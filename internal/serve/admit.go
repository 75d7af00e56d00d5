// Cycle-model admission control.
//
// The paper's central operational claim is that systolic DP cost is
// predictable in closed form BEFORE running: a Design-1 stream of K'
// matrices over an m-vector occupies the array for exactly K'·m + m − 1
// cycles (Section 3.2), and the other problem kinds have equally explicit
// iteration counts. A server that can price a request before enqueueing
// it does not have to discover overload the expensive way (admit
// everything, let deadlines expire mid-solve); it can compare the
// predicted completion time of the current backlog against each
// request's deadline and shed the ones that cannot finish in time with a
// cheap, immediate 429 + Retry-After.
//
// Two model pieces are involved:
//
//   - EstimateCost maps a core.Problem to (kind, cycles): the closed-form
//     work unit count for that problem kind. The units are per-kind
//     (stream cycles for Design-1 graphs, lattice cells for DTW, table
//     entries for chain ordering, ...), so they are NOT comparable across
//     kinds directly;
//   - the Admitter calibrates a per-kind service rate (units/second, an
//     EWMA over measured solves) that converts those units into predicted
//     seconds, and tracks the total admitted-but-unfinished backlog in
//     seconds.
//
// Admission is optimistic until calibrated: the first request of a kind
// is always admitted (its measured solve seeds the rate), so an idle
// server never 429s a cold start.
package serve

import (
	"fmt"
	"sync"
	"time"

	"systolicdp/internal/align"
	"systolicdp/internal/core"
	"systolicdp/internal/knapsack"
)

// UnpricedKind is the calibration bucket for problems with no
// closed-form pricing arm. Nothing the server can build should land
// here — TestEstimateCostExhaustive pins every registered spec kind to
// a real arm — but a Problem type added without pricing still must not
// sail past admission at ~zero predicted cost: unpriced work is priced
// pessimistically from its own observed per-solve seconds (see
// Admitter.Admit) and counted by dpserve_admit_unpriced_total.
const UnpricedKind = "other"

// EstimateCost returns the closed-form cost model for one problem: a
// calibration kind and the predicted work in that kind's units.
func EstimateCost(p core.Problem) (kind string, cycles float64) {
	switch q := p.(type) {
	case *core.MultistageProblem:
		if q.Design == 1 {
			if sp, err := core.StreamProblemFromGraph(q.Graph); err == nil {
				// Section 3.2: K' matrices over an m-vector stream through
				// the pipelined array in K'·m + m − 1 wall cycles.
				kp, m := float64(len(sp.Ms)), float64(len(sp.V))
				return "graph-stream", kp*m + m - 1
			}
		}
		// Sequential / Design-2 path: one multiply-accumulate per edge.
		total := 0.0
		for _, c := range q.Graph.Matrices() {
			total += float64(c.Rows * c.Cols)
		}
		return "graph", total
	case *core.NodeValuedProblem:
		// The elimination sweep relaxes |N_k|·|N_k+1| transitions per
		// stage pair — count the pairwise comparisons.
		vs := q.Problem.Values
		total := 0.0
		for k := 0; k+1 < len(vs); k++ {
			total += float64(len(vs[k]) * len(vs[k+1]))
		}
		return "nodevalued", total + 1
	case *core.DTWProblem:
		// The warping lattice has |x|·|y| cells, swept row by row.
		return "dtw", float64(len(q.X)*len(q.Y)) + 1
	case *core.AlignProblem:
		// Three affine-gap layers over the boundary-inclusive lattice.
		return "align", float64(align.Cells(len(q.X), len(q.Y))) + 1
	case *core.ViterbiProblem:
		// One relaxation per trellis edge plus the final fold over the
		// last stage's states.
		return "viterbi", float64(q.Trellis.Work()) + 1
	case *core.KnapsackProblem:
		// Lawler-Moore: n lockstep waves over a row of Horizon+1 cells.
		return "knapsack", float64(len(q.Jobs)*(knapsack.Horizon(q.Jobs)+1)) + 1
	case *core.ChainOrderingProblem:
		// Equation (6): O(n³) table fill — n³/6 min-plus updates.
		n := float64(len(q.Dims) - 1)
		return "chain", n*n*n/6 + n*n + 1
	case *core.NonserialChainProblem:
		// Equation (40) shape: eliminating variable i scans the product of
		// the three adjacent domains.
		ds := q.Chain.Domains
		total := 0.0
		for i := 0; i+2 < len(ds); i++ {
			total += float64(len(ds[i]) * len(ds[i+1]) * len(ds[i+2]))
		}
		return "nonserial", total + 1
	default:
		return UnpricedKind, 1
	}
}

// OverloadError is the admission controller's shed verdict: the backlog's
// predicted completion exceeds the request's deadline, so solving it
// would only produce a late answer. It maps to 429 (errors.Is ErrBusy)
// and carries the model's earliest useful retry time.
type OverloadError struct {
	RetryAfter time.Duration
	Predicted  time.Duration // model-predicted completion had it been admitted
	Deadline   time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: admission shed: predicted completion %v exceeds deadline %v (retry after %v)",
		e.Predicted.Round(time.Millisecond), e.Deadline.Round(time.Millisecond), e.RetryAfter)
}

// Is maps the shed to the 429 backpressure status.
func (e *OverloadError) Is(target error) bool { return target == ErrBusy }

// Reservation is one admitted request's claim on the backlog; Release
// returns it when the request finishes (or fails, or is abandoned).
type Reservation struct {
	a       *Admitter
	seconds float64
	once    sync.Once
}

// Release frees the reservation. Idempotent.
func (r *Reservation) Release() {
	if r == nil || r.a == nil {
		return
	}
	r.once.Do(func() {
		r.a.mu.Lock()
		r.a.outstanding--
		r.a.backlog -= r.seconds
		// Float addition is not associative: releases interleaved in a
		// different order than their admissions can leave a ~1e-18 residue
		// that would ratchet up forever. With no reservations outstanding
		// the backlog is zero by definition, so snap it.
		if r.a.backlog < 0 || r.a.outstanding == 0 {
			r.a.backlog = 0
		}
		r.a.mu.Unlock()
	})
}

// Admitter prices requests with the closed-form cycle model and sheds
// the ones whose predicted completion misses their deadline. With
// enabled=false it still tracks backlog and calibrates rates (so the
// gauges stay meaningful and a later enablement starts warm) but never
// sheds.
type Admitter struct {
	enabled  bool
	headroom float64 // >1 sheds earlier (safety factor on the prediction)
	workers  int     // concurrent service lanes draining the backlog

	mu          sync.Mutex
	backlog     float64            // seconds of admitted-but-unfinished predicted work
	outstanding int                // live reservations backing the backlog
	rates       map[string]float64 // EWMA units/second per kind; 0 = uncalibrated
	// unpricedSecs is the EWMA of observed per-solve WALL SECONDS for
	// UnpricedKind work. Unpriced requests all carry cycles=1, so the
	// shared units/second rate says nothing about how long one takes —
	// a single fast unpriced solve would price every later one at ~zero.
	// Seconds-per-solve is the honest (pessimistic) model when no closed
	// form exists.
	unpricedSecs float64
}

// NewAdmitter builds an Admitter. headroom <= 0 defaults to 1; workers
// <= 0 defaults to 1.
func NewAdmitter(enabled bool, headroom float64, workers int) *Admitter {
	if headroom <= 0 {
		headroom = 1
	}
	if workers < 1 {
		workers = 1
	}
	return &Admitter{
		enabled:  enabled,
		headroom: headroom,
		workers:  workers,
		rates:    make(map[string]float64),
	}
}

// Admit prices a request of the given kind and cost against the current
// backlog and the request's deadline. On admission it returns a
// Reservation the caller must Release when the work finishes. On shed it
// returns an *OverloadError with the Retry-After the model suggests.
func (a *Admitter) Admit(kind string, cycles float64, deadline time.Duration) (*Reservation, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	est := 0.0
	if rate := a.rates[kind]; rate > 0 {
		est = cycles / rate
	}
	if kind == UnpricedKind && a.unpricedSecs > est {
		// No closed-form pricing arm: the rate-based estimate is
		// meaningless (every unpriced request carries cycles=1), so take
		// the observed per-solve seconds instead of sailing past the shed
		// at ~zero predicted cost.
		est = a.unpricedSecs
	}
	// Predicted completion: the standing backlog drains across the
	// worker lanes while this request's own solve occupies one of them.
	predicted := a.backlog/float64(a.workers) + est
	if a.enabled && predicted*a.headroom > deadline.Seconds() {
		retry := time.Duration((predicted*a.headroom - deadline.Seconds()) * float64(time.Second))
		if retry < time.Second {
			retry = time.Second
		}
		return nil, &OverloadError{
			RetryAfter: retry,
			Predicted:  time.Duration(predicted * float64(time.Second)),
			Deadline:   deadline,
		}
	}
	a.backlog += est
	a.outstanding++
	return &Reservation{a: a, seconds: est}, nil
}

// Observe feeds one measured solve back into the per-kind rate model:
// cycles of modeled work completed in the given wall seconds. An EWMA
// (α=0.3) keeps the rate tracking drift (batch occupancy changes, CPU
// contention) without whipsawing on one outlier.
func (a *Admitter) Observe(kind string, cycles, seconds float64) {
	if cycles <= 0 || seconds <= 0 {
		return
	}
	sample := cycles / seconds
	a.mu.Lock()
	if cur := a.rates[kind]; cur > 0 {
		a.rates[kind] = 0.7*cur + 0.3*sample
	} else {
		a.rates[kind] = sample
	}
	if kind == UnpricedKind {
		if cur := a.unpricedSecs; cur > 0 {
			a.unpricedSecs = 0.7*cur + 0.3*seconds
		} else {
			a.unpricedSecs = seconds
		}
	}
	a.mu.Unlock()
}

// BacklogSeconds reports the admitted-but-unfinished predicted work.
func (a *Admitter) BacklogSeconds() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.backlog
}

// Rate reports the calibrated units/second for one kind (0 until the
// first Observe).
func (a *Admitter) Rate(kind string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rates[kind]
}

// Rates returns a snapshot of every calibrated per-kind service rate
// (units/second). The map is a copy; mutating it does not affect the
// admitter.
func (a *Admitter) Rates() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]float64, len(a.rates))
	for k, v := range a.rates {
		out[k] = v
	}
	return out
}

// Enabled reports whether the admitter sheds (vs. calibrate-only).
func (a *Admitter) Enabled() bool { return a.enabled }

// HeadroomFactor reports the safety factor applied to predictions.
func (a *Admitter) HeadroomFactor() float64 { return a.headroom }

// Workers reports the concurrent service lanes the backlog drains across.
func (a *Admitter) Workers() int { return a.workers }

// setRate pins a kind's calibration directly (tests).
func (a *Admitter) setRate(kind string, rate float64) {
	a.mu.Lock()
	a.rates[kind] = rate
	a.mu.Unlock()
}
