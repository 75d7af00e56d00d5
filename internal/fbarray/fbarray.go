// Package fbarray implements Design 3 of the paper (Figure 5): a linear
// systolic array with a feedback controller that solves the node-valued
// serial optimisation problem of equation (4) — min over assignments of
// sum_k f(X_k, X_{k+1}) — by the variable-elimination recurrence of
// equations (10)-(13).
//
// Each PE P_i holds three registers: R_i (the pipeline register through
// which input data pass), and K_i/H_i (the fed-back previous-stage node
// value and its partial cost h), plus three operation units: F (edge-cost
// evaluation), A (addition), and C (comparison). Stage-k values enter P_1
// one per iteration; as token x_{k,j} passes P_i it accumulates
//
//	h(x_{k,j}) = min_i ( h(x_{k-1,i}) + f(x_{k-1,i}, x_{k,j}) )
//
// one term per PE. Tokens leaving P_m are fed back round-robin — PE i
// captures the feedback bus when t mod m == i, the paper's circulating
// token on a single broadcast bus — into K_i/H_i just in time for the next
// stage's tokens. After N*m iterations a final comparison token circulates
// with F = 0 folding min_i h(x_{N,i}); the optimum emerges from P_m at
// iteration (N+1)*m, the paper's total.
//
// Because edge costs are computed from node values by the F unit, the
// array inputs one word per iteration — the order-of-magnitude
// input-bandwidth reduction over Designs 1-2 that Section 3.2 claims.
//
// Path registers: each token carries the index of the predecessor
// attaining its current h; P_m records these (N registers of m indices),
// and the optimal assignment is traced back after the run, as in the
// paper's path-register scheme.
//
// New assumes the stage-independent cost function of the paper's
// simplified Figure 5; NewStaged restores the per-stage F_i subscripts
// for stage-dependent costs, and NewSemiring generalises the comparison
// unit to any comparative semiring (e.g. (MAX,+)).
package fbarray

import (
	"fmt"

	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
	"systolicdp/internal/systolic"
)

// Array is a configured Design-3 feedback array for one node-valued
// problem.
type Array struct {
	N, M    int // stages, values per stage
	net     *systolic.Array
	pes     []*pe
	sinkIdx int
	s       semiring.Comparative
}

// pe is one Design-3 processing element (Figure 5(b)). The comparison
// unit C is semiring-generic.
type pe struct {
	i, m, n int
	t       int
	k, h    float64 // K_i and H_i registers
	fk      multistage.StagedCostFunc
	s       semiring.Comparative
}

func (p *pe) NumIn() int  { return 2 } // 0: pipe, 1: feedback bus
func (p *pe) NumOut() int { return 1 }

func (p *pe) Reset() {
	p.t = 0
	p.k = 0
	p.h = 0
}

func (p *pe) Step(in []systolic.Token) ([]systolic.Token, bool) {
	t := p.t
	p.t++
	// Latch the feedback bus when the circulating token selects this PE;
	// the freshly latched K/H are usable in the same iteration (the bus
	// feeds the F and A units combinationally in Figure 5(b)).
	if fb := in[1]; fb.Valid && t%p.m == p.i {
		p.k, p.h = fb.V, fb.W
	}
	tok := in[0]
	if !tok.Valid {
		return []systolic.Token{tok}, false
	}
	switch {
	case tok.Ctl == 0:
		// Stage-1 tokens: h(x_1) = One (0) by definition; shift only.
		return []systolic.Token{tok}, false
	case tok.Ctl < p.n:
		// A(dd) then C(ompare): fold one elimination term. The F unit is
		// subscripted by the incoming token's stage (the general Figure 5
		// with per-stage F_i units).
		cand := p.s.Mul(p.h, p.fk(tok.Ctl-1, p.k, tok.V))
		if p.s.Better(cand, tok.W) {
			tok.W = cand
			tok.Tag = p.i // path register: predecessor index
		}
		return []systolic.Token{tok}, true
	default:
		// Final comparison token: F = 0, fold the H_i registers.
		if p.s.Better(p.h, tok.W) {
			tok.W = p.h
			tok.Tag = p.i
		}
		return []systolic.Token{tok}, true
	}
}

// New builds a Design-3 array over (MIN,+) for the node-valued problem p,
// which must be uniform (the same number of quantized values in every
// stage) with a stage-independent cost function, the regularity Figure 5
// assumes.
func New(p *multistage.NodeValued) (*Array, error) {
	return NewSemiring(semiring.MinPlus{}, p)
}

// NewSemiring builds a Design-3 array over any comparative semiring;
// (MAX,+) maximises total reward instead of minimising cost.
func NewSemiring(s semiring.Comparative, p *multistage.NodeValued) (*Array, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := p.F
	return newArray(s, p.Values, p.Stages(), func(_ int, x, y float64) float64 { return f(x, y) })
}

// NewStaged builds a Design-3 array whose F units are subscripted by
// stage (the general form of Figure 5), accepting stage-dependent edge
// costs such as time-varying tracking references.
func NewStaged(s semiring.Comparative, p *multistage.StagedNodeValued) (*Array, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newArray(s, p.Values, p.Stages(), p.FK)
}

func newArray(s semiring.Comparative, values [][]float64, n int, fk multistage.StagedCostFunc) (*Array, error) {
	m := len(values[0])
	for _, vs := range values[1:] {
		if len(vs) != m {
			return nil, fmt.Errorf("fbarray: Design 3 requires the same number of values in every stage")
		}
	}
	a := &Array{N: n, M: m, s: s}
	net := &systolic.Array{}
	for i := 0; i < m; i++ {
		e := &pe{i: i, m: m, n: n, fk: fk, s: s}
		a.pes = append(a.pes, e)
		net.PEs = append(net.PEs, e)
	}
	// External source into P_1's pipe port: stage values then the final
	// comparison token. Copy the values so later mutation of the problem
	// cannot corrupt a queued run.
	vcopy := make([][]float64, n)
	for k := range vcopy {
		vcopy[k] = append([]float64(nil), values[k]...)
	}
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: systolic.External, Port: 0},
		To:   systolic.Endpoint{PE: 0, Port: 0},
		Source: func(t int) systolic.Token {
			switch {
			case t < n*m:
				k, j := t/m, t%m
				w := s.Zero()
				if k == 0 {
					w = s.One()
				}
				return systolic.Token{V: vcopy[k][j], W: w, Tag: -1, Ctl: k, Valid: true}
			case t == n*m:
				return systolic.Token{V: 0, W: s.Zero(), Tag: -1, Ctl: n, Valid: true}
			default:
				return systolic.Bubble()
			}
		},
	})
	// Pipe wires P_i -> P_{i+1}.
	for i := 0; i+1 < m; i++ {
		net.Wires = append(net.Wires, systolic.Wire{
			From: systolic.Endpoint{PE: i, Port: 0},
			To:   systolic.Endpoint{PE: i + 1, Port: 0},
			Init: systolic.Bubble(),
		})
	}
	// Feedback bus: P_m's output fans out to every PE's port 1.
	for i := 0; i < m; i++ {
		net.Wires = append(net.Wires, systolic.Wire{
			From: systolic.Endpoint{PE: m - 1, Port: 0},
			To:   systolic.Endpoint{PE: i, Port: 1},
			Init: systolic.Bubble(),
		})
	}
	a.sinkIdx = len(net.Wires)
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: m - 1, Port: 0},
		To:   systolic.Endpoint{PE: systolic.External, Port: 0},
	})
	a.net = net
	return a, nil
}

// Iterations returns the paper's total iteration count (N+1)*m.
func (a *Array) Iterations() int { return (a.N + 1) * a.M }

// SerialIterations returns the single-processor step count
// (N-1)*m^2 + m, the numerator of the PU expression in Section 3.2.
func (a *Array) SerialIterations() int { return (a.N-1)*a.M*a.M + a.M }

// Result of a Design-3 run: the optimal objective value, one optimal
// assignment (value index per stage, reconstructed from the path
// registers), and per-PE busy counts.
type Result struct {
	Cost float64
	Path []int
	Busy []int
}

// Run executes the array. If goroutines is true the goroutine-per-PE
// runner is used, otherwise the lock-step runner. The array is
// re-runnable: every run resets the network first, so repeated runs are
// bit-identical (cost, path, and busy counts).
func (a *Array) Run(goroutines bool) (*Result, error) {
	return a.RunObserved(goroutines, nil, nil)
}

// RunTraced is Run on the lock-step runner with a wire-trace callback
// (see the trace package) invoked after every cycle with the latched
// wire values.
func (a *Array) RunTraced(trace func(cycle int, wires []systolic.Token)) (*Result, error) {
	return a.RunObserved(false, trace, nil)
}

// ObservedCycles reports the number of cycles an observed run executes,
// for sizing cycle recorders.
func (a *Array) ObservedCycles() int { return a.Iterations() }

// RunObserved is Run with observability hooks: peTrace receives every
// PE's busy bit each cycle (both runners; see systolic.PETrace for the
// concurrency contract), and wireTrace receives per-cycle wire snapshots
// (lock-step only).
func (a *Array) RunObserved(goroutines bool, wireTrace func(cycle int, wires []systolic.Token), peTrace systolic.PETrace) (*Result, error) {
	if goroutines && wireTrace != nil {
		return nil, fmt.Errorf("fbarray: wire traces require the lock-step runner")
	}
	a.net.Reset()
	cycles := a.Iterations()
	var res *systolic.Result
	var err error
	if goroutines {
		res, err = a.net.RunGoroutinesObserved(cycles, peTrace)
	} else {
		res, err = a.net.RunLockstepObserved(cycles, wireTrace, peTrace)
	}
	if err != nil {
		return nil, err
	}
	n, m := a.N, a.M
	// Path registers in P_m: token (k, j) exits P_m at cycle k*m + j + m-1
	// carrying the best stage-(k-1) predecessor of value j in stage k.
	pathreg := make([][]int, n)
	for k := range pathreg {
		pathreg[k] = make([]int, m)
	}
	out := &Result{Cost: a.s.Zero(), Busy: res.Busy}
	bestLast := -1
	for _, rec := range res.Sunk[a.sinkIdx] {
		if !rec.Token.Valid {
			continue
		}
		u := rec.Cycle - (m - 1)
		if u < 0 {
			continue
		}
		k, j := u/m, u%m
		switch {
		case k < n:
			pathreg[k][j] = rec.Token.Tag
		case k == n && j == 0:
			// The final comparison token.
			out.Cost = rec.Token.W
			bestLast = rec.Token.Tag
		}
	}
	if bestLast < 0 {
		return nil, fmt.Errorf("fbarray: final comparison token not observed")
	}
	path := make([]int, n)
	path[n-1] = bestLast
	for k := n - 1; k >= 1; k-- {
		path[k-1] = pathreg[k][path[k]]
	}
	out.Path = path
	return out, nil
}

// Solve builds and runs the array in lock-step mode.
func Solve(p *multistage.NodeValued) (*Result, error) {
	a, err := New(p)
	if err != nil {
		return nil, err
	}
	return a.Run(false)
}

// WireNames labels the array's wires for trace rendering: the stage-value
// source, the pipe stages, the feedback-bus fan-out, and the sink.
func (a *Array) WireNames() []string {
	names := make([]string, 0, len(a.net.Wires))
	names = append(names, "x>P1")
	for i := 0; i+1 < a.M; i++ {
		names = append(names, fmt.Sprintf("P%d>P%d", i+1, i+2))
	}
	for i := 0; i < a.M; i++ {
		names = append(names, fmt.Sprintf("fb>P%d", i+1))
	}
	names = append(names, fmt.Sprintf("P%d>out", a.M))
	return names
}

// InputWordsPerCycle reports the external input bandwidth of Design 3:
// one node value per iteration, since edge costs are computed on-array by
// the F units — the order-of-magnitude reduction over Designs 1-2 that
// Section 3.2 claims.
func (a *Array) InputWordsPerCycle() int { return 1 }
