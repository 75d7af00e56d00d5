package core

import (
	"context"
	"fmt"
	"strings"

	"systolicdp/internal/multistage"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
)

// SolveCtx is Solve bounded by a context: it returns early with ctx.Err()
// if the context is cancelled or its deadline passes before the solve
// completes. The underlying computation is not interruptible, so on early
// return it continues in a background goroutine and its result is
// discarded; callers that solve untrusted sizes should bound them before
// submission. The facade's SolveCtx and dpsolve -timeout call it. dpserve
// calls Solve instead, on a goroutine holding one of its solve slots, so
// that a late solve keeps its slot until the kernel returns.
func SolveCtx(ctx context.Context, p Problem) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		sol *Solution
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		// This goroutine is detached once the caller's context fires, and
		// no caller can recover a panic on it, so a panicking Problem
		// implementation must not crash the process from here.
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("core: solve panicked: %v", r)}
			}
		}()
		sol, err := Solve(p)
		ch <- outcome{sol, err}
	}()
	select {
	case o := <-ch:
		return o.sol, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// StreamProblemFromGraph converts a validated single-sink multistage
// graph into one instance of a Design-1 stream batch: the cost-matrix
// string (all but the last transition) and the initial vector (the final
// single-column transition). This is the per-instance form
// pipearray.NewStream consumes.
func StreamProblemFromGraph(g *multistage.Graph) (pipearray.StreamProblem, error) {
	var sp pipearray.StreamProblem
	if err := g.Validate(); err != nil {
		return sp, err
	}
	mats := g.Matrices()
	k := len(mats)
	if k < 2 {
		return sp, fmt.Errorf("core: streamed Design 1 needs at least 2 cost matrices")
	}
	last := mats[k-1]
	if last.Cols != 1 {
		return sp, fmt.Errorf("core: streamed Design 1 needs a single-sink graph (last stage of 1 node); wrap with SingleSourceSink")
	}
	sp.Ms = mats[:k-1]
	// An m × 1 matrix's row-major data is its column: the vector is
	// shared with the graph, not copied, as the matrices are.
	sp.V = last.Data[:last.Rows:last.Rows]
	return sp, nil
}

// SolveGraphBatch solves a batch of identically-shaped single-sink
// multistage graphs in ONE streamed Design-1 run on the lock-step
// engine: all instances share a single pipeline fill (B*K'*m + m - 1
// cycles versus B*(K'*m + m - 1) for separate runs). Returns one
// Solution per graph, in order. All graphs must share stage count and
// stage sizes; pipearray.NewStream enforces this. The facade and the
// differential checker run it; dpserve does not, since each instance's
// direct sweep (Solve) gives the same bits for less work on one core.
func SolveGraphBatch(gs []*multistage.Graph) ([]*Solution, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("core: empty graph batch")
	}
	problems := make([]pipearray.StreamProblem, len(gs))
	for i, g := range gs {
		sp, err := StreamProblemFromGraph(g)
		if err != nil {
			return nil, fmt.Errorf("core: batch graph %d: %v", i, err)
		}
		problems[i] = sp
	}
	st, err := pipearray.NewStream(problems)
	if err != nil {
		return nil, err
	}
	outs, _, err := st.RunObserved(false)
	if err != nil {
		return nil, err
	}
	mp := semiring.MinPlus{}
	class := Class{Monadic, Serial}
	sols := make([]*Solution, len(outs))
	for i, out := range outs {
		sols[i] = &Solution{
			Class:  class,
			Method: Recommend(class).Method,
			Cost:   semiring.Fold(mp, out),
		}
	}
	return sols, nil
}

// BatchKernel is one problem kind's batched solver: the serving tier's
// shape-bucketed scheduler groups concurrent problems by (Kind, Shape)
// and hands each bucket to its kernel. Implementations must be bitwise
// identical per instance to the kind's sequential engine (the
// differential checker enforces this), and must not let one instance's
// values affect another's.
type BatchKernel interface {
	// Kind names the kernel: the batch-occupancy metric label and half
	// of its bucket key. Admission prices and calibrates each member
	// under the member's own Work kind.
	Kind() string
	// Shape returns the batch-compatibility bucket for p: problems this
	// kernel accepts with equal shape strings may share one run. ok=false
	// means p is not batchable by this kernel.
	Shape(p Problem) (shape string, ok bool)
	// Solve solves the whole batch, returning one Solution per problem
	// in order.
	Solve(ps []Problem) ([]*Solution, error)
}

// BatchKernels returns the kernel set in serving priority order. The
// first kernel whose Shape accepts a problem owns it; every other
// problem is solved alone. The set holds only the Design-1 kernel:
// Design 1 was batched because its streamed instances share one
// pipeline fill, which no other kind's kernel offered.
func BatchKernels() []BatchKernel {
	return []BatchKernel{GraphStreamKernel{}}
}

// GraphStreamKernel collects same-shape Design-1 multistage graphs and
// solves each member alone by its direct sweep (Solve). It keeps the
// stream's kind and shape buckets, but no longer streams them through
// the pipelined array (SolveGraphBatch): on one core the cycle-stepped
// stream costs 18-29 times the sweep per graph, and sharing one pipeline
// fill across 16 graphs saved a fifth to a third of that at 7 × 6 and
// nothing at 21 × 18 or 63 × 54 (BenchmarkSolveGraph).
type GraphStreamKernel struct{}

// Kind keeps the name the kernel had while it streamed.
func (GraphStreamKernel) Kind() string { return "graph-stream" }

// Shape returns the FULL per-matrix dimension profile of the stream
// decomposition — every cost matrix's rows×cols plus the vector length —
// not just (m, k, rows[0]): two specs can agree on vector length, matrix
// count and first-stage rows yet still disagree on later-stage
// dimensions. Such a pair could not share a stream, and since a failing
// member fails its whole batch, a graph Validate refuses must not share
// a bucket with one it accepts.
func (GraphStreamKernel) Shape(p Problem) (string, bool) {
	mp, ok := p.(*MultistageProblem)
	if !ok || mp.Design != 1 {
		return "", false
	}
	sp, err := StreamProblemFromGraph(mp.Graph)
	if err != nil {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", len(sp.V))
	for _, m := range sp.Ms {
		fmt.Fprintf(&b, ";%dx%d", m.Rows, m.Cols)
	}
	return b.String(), true
}

// Solve solves each member by Solve, in order.
func (GraphStreamKernel) Solve(ps []Problem) ([]*Solution, error) {
	sols := make([]*Solution, len(ps))
	for i, p := range ps {
		if _, ok := p.(*MultistageProblem); !ok {
			return nil, fmt.Errorf("core: graph-stream kernel got %T", p)
		}
		sol, err := Solve(p)
		if err != nil {
			return nil, fmt.Errorf("core: batch graph %d: %v", i, err)
		}
		sols[i] = sol
	}
	return sols, nil
}
