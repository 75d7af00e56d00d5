// Package knapsack implements the weighted-deadline scheduling DP
// 1||Σ w_j U_j (minimize the total weight of late jobs on one machine)
// via the Lawler–Moore pseudo-polynomial recurrence — the knapsack-style
// workload of the coflow exemplar. Jobs are sorted by due date (EDD,
// stable); A[t] tracks the maximum on-time weight achievable with total
// processing time exactly t, and each job relaxes the row like a 0/1
// knapsack item gated by its deadline.
//
// Sequential is the reference in-place sweep. Lockstep is the systolic
// mapping: one wave per job over a row of T+1 cell PEs, double-buffered
// so every cell reads only pre-wave values — exactly the paper's
// lockstep discipline. The in-place downward loop and the
// double-buffered wave are algebraically the same schedule (a downward
// scan only reads indices it has not yet written), and both engines
// share the relaxation expression, so results are bitwise identical.
package knapsack

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"systolicdp/internal/arena"
)

// Job is one unit of work: processing time P, due date D (both in
// integer time units), and late weight W. Zero-length and zero-weight
// jobs are legal degenerates.
type Job struct {
	P int     // processing time
	D int     // due date
	W float64 // weight lost if the job completes after D
}

// Validate rejects negative times and non-finite or negative weights.
func Validate(jobs []Job) error {
	for i, j := range jobs {
		if j.P < 0 {
			return fmt.Errorf("knapsack: job %d has negative processing time %d", i, j.P)
		}
		if j.D < 0 {
			return fmt.Errorf("knapsack: job %d has negative due date %d", i, j.D)
		}
		if math.IsNaN(j.W) || math.IsInf(j.W, 0) || j.W < 0 {
			return fmt.Errorf("knapsack: job %d has bad weight %v", i, j.W)
		}
	}
	return nil
}

// Horizon is the DP row length minus one: no on-time schedule can run
// past the latest due date or the total processing time, so
// T = min(max D, Σ P). This closed form is shared verbatim by the
// solver and the admission controller's pricing arm — they must agree
// or the priced cell count drifts from the executed one.
func Horizon(jobs []Job) int {
	maxDue, sumProc := 0, 0
	for _, j := range jobs {
		if j.D > maxDue {
			maxDue = j.D
		}
		sumProc += j.P
	}
	if sumProc < maxDue {
		return sumProc
	}
	return maxDue
}

// eddOrder returns the jobs stably sorted by due date — the order in
// which Lawler–Moore must consider them. Stability pins the tie order
// so both engines stream the identical job sequence.
func eddOrder(jobs []Job) []Job {
	s := make([]Job, len(jobs))
	copy(s, jobs)
	sort.SliceStable(s, func(a, b int) bool { return s[a].D < s[b].D })
	return s
}

// relax is THE shared per-cell expression: take job w at exact
// processing time t if it beats the incumbent. -Inf marks unreachable
// exact sums and flows through max-plus untouched (-Inf + w = -Inf,
// never > a finite incumbent), so both engines agree bitwise.
func relax(incumbent, below float64, w float64) float64 {
	if cand := below + w; cand > incumbent {
		return cand
	}
	return incumbent
}

// Sequential computes the minimum total late weight with the reference
// in-place Lawler–Moore sweep. An empty job list is legal (late weight
// 0).
func Sequential(jobs []Job) (float64, error) {
	if err := Validate(jobs); err != nil {
		return 0, err
	}
	on, err := OnTimeWeight(jobs)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, j := range jobs {
		total += j.W
	}
	return total - on, nil
}

// OnTimeWeight computes the maximum total weight of jobs that can all
// complete by their due dates — the quantity the DP row maximizes and
// the one dpcheck's prefix-monotonicity invariant is stated over:
// appending a job can never decrease it.
func OnTimeWeight(jobs []Job) (float64, error) {
	if err := Validate(jobs); err != nil {
		return 0, err
	}
	T := Horizon(jobs)
	A := make([]float64, T+1)
	ninf := math.Inf(-1)
	for t := 1; t <= T; t++ {
		A[t] = ninf
	}
	for _, j := range eddOrder(jobs) {
		hi := j.D
		if hi > T {
			hi = T
		}
		// Downward in-place scan: A[t-P] has not been rewritten yet when
		// cell t reads it, so every read sees the pre-job row.
		for t := hi; t >= j.P; t-- {
			A[t] = relax(A[t], A[t-j.P], j.W)
		}
	}
	best := 0.0
	for _, v := range A {
		if v > best {
			best = v
		}
	}
	return best, nil
}

// workspace is the pooled Lockstep state: the double-buffered DP rows
// plus a scratch job slice for the EDD reorder, grown in place, so a
// solve that fits the pooled capacity allocates nothing.
type workspace struct {
	rows [2][]float64
	jobs []Job
}

var rowPool = sync.Pool{New: func() any { return new(workspace) }}

// eddInto is eddOrder writing into a reusable buffer with the
// allocation-free generic stable sort — the same order, bitwise the
// same stream.
func eddInto(buf, jobs []Job) []Job {
	if cap(buf) < len(jobs) {
		buf = make([]Job, len(jobs))
	}
	buf = buf[:len(jobs)]
	copy(buf, jobs)
	slices.SortStableFunc(buf, func(a, b Job) int { return a.D - b.D })
	return buf
}

// Lockstep computes the same answer on the systolic mapping: T+1 cell
// PEs hold the row, each of the n EDD-ordered jobs is broadcast as one
// wave, and every PE relaxes from the double-buffered pre-wave row in
// lockstep. Rows come from a pooled workspace, so a solve whose horizon
// and job count fit its capacity allocates nothing. Returns the late
// weight and the wave (cycle) count n.
func Lockstep(jobs []Job) (float64, int, error) {
	if err := Validate(jobs); err != nil {
		return 0, 0, err
	}
	T := Horizon(jobs)
	ws := rowPool.Get().(*workspace)
	cur := arena.Floats(ws.rows[0], T+1)
	next := arena.Floats(ws.rows[1], T+1)
	ws.jobs = eddInto(ws.jobs, jobs)
	ninf := math.Inf(-1)
	cur[0] = 0
	for t := 1; t <= T; t++ {
		cur[t] = ninf
	}
	total := 0.0
	for _, j := range jobs {
		total += j.W
	}
	for _, j := range ws.jobs {
		hi := j.D
		if hi > T {
			hi = T
		}
		// One lockstep wave: every cell computes from the pre-wave row.
		for t := 0; t <= T; t++ {
			if t >= j.P && t <= hi {
				next[t] = relax(cur[t], cur[t-j.P], j.W)
			} else {
				next[t] = cur[t]
			}
		}
		cur, next = next, cur
	}
	best := 0.0
	for _, v := range cur {
		if v > best {
			best = v
		}
	}
	ws.rows[0], ws.rows[1] = cur, next
	rowPool.Put(ws) // clean completion only (arena poisoning discipline)
	return total - best, len(jobs), nil
}
