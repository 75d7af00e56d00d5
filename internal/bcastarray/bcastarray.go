// Package bcastarray implements Design 2 of the paper (Figure 4): a linear
// systolic array with parallel inputs and a broadcast bus that evaluates a
// string of (MIN,+) matrix products.
//
// Unlike Design 1, every matrix is fed in the same (row) format and the
// moving vector is broadcast to all PEs in the same cycle, so there is no
// pipeline skew: processing K matrices takes exactly K*m iterations. At
// each phase boundary the MOVE signal gates the accumulated result vector
// into the S registers; with FIRST = 0 the S values are fed back and
// broadcast as the next phase's inputs. As the paper notes, only one
// feedback line drives the bus in any iteration, selected by a circulating
// token — here, S_j is driven by PE j at iteration j.
//
// The broadcast bus is combinational, so the array is simulated by a
// bespoke lock-step loop rather than the registered-wire engine; the
// goroutine runner models the bus as a coordinator goroutine fanning
// tokens out to one goroutine per PE and collecting the gated results at
// phase boundaries.
package bcastarray

import (
	"fmt"
	"sync"

	"systolicdp/internal/matrix"
	"systolicdp/internal/semiring"
	"systolicdp/internal/systolic"
)

// Array is a configured Design-2 broadcast array for one matrix string.
type Array struct {
	M, K int
	rows int
	feed [][][]float64 // [phase][pe][iteration]
	v    []float64
	s    semiring.Comparative
}

// New builds a Design-2 array over (MIN,+) computing
// ms[0].(ms[1].(...(ms[K-1].v))). Shape rules match Design 1: all
// matrices m x m with m = len(v), except ms[0] which may be r x m
// (padded with semiring-Zero rows).
func New(ms []*matrix.Matrix, v []float64) (*Array, error) {
	return NewSemiring(semiring.MinPlus{}, ms, v)
}

// NewSemiring builds a Design-2 array over any comparative semiring.
func NewSemiring(s semiring.Comparative, ms []*matrix.Matrix, v []float64) (*Array, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("bcastarray: empty matrix string")
	}
	m := len(v)
	if m == 0 {
		return nil, fmt.Errorf("bcastarray: empty input vector")
	}
	for idx, mm := range ms {
		wantRows := m
		if idx == 0 {
			if mm.Rows > m {
				return nil, fmt.Errorf("bcastarray: first matrix has %d rows > m=%d", mm.Rows, m)
			}
			wantRows = mm.Rows
		}
		if mm.Rows != wantRows || mm.Cols != m {
			return nil, fmt.Errorf("bcastarray: matrix %d is %dx%d, want %dx%d", idx, mm.Rows, mm.Cols, wantRows, m)
		}
	}
	k := len(ms)
	inf := s.Zero()
	feed := make([][][]float64, k)
	for ph := 0; ph < k; ph++ {
		src := ms[k-1-ph] // phase ph multiplies the (ph+1)-th matrix from the right
		fv := make([][]float64, m)
		for i := 0; i < m; i++ {
			fv[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				if i < src.Rows {
					fv[i][j] = src.At(i, j)
				} else {
					fv[i][j] = inf
				}
			}
		}
		feed[ph] = fv
	}
	return &Array{M: m, K: k, rows: ms[0].Rows, feed: feed, v: append([]float64(nil), v...), s: s}, nil
}

// Iterations returns the iteration count K*m; with a combinational
// broadcast bus this is also the wall-cycle count.
func (a *Array) Iterations() int { return a.K * a.M }

// WallCycles equals Iterations: broadcast removes the pipeline skew of
// Design 1.
func (a *Array) WallCycles() int { return a.Iterations() }

// ObservedCycles reports the number of iterations an observed run
// executes, for sizing cycle recorders (one iteration = one cycle: the
// broadcast bus removes the pipeline skew).
func (a *Array) ObservedCycles() int { return a.Iterations() }

// RunLockstep simulates the array cycle by cycle and returns the result
// vector (live entries only) and the per-PE busy counts. All state is
// per-run, so the array is re-runnable: repeated runs are bit-identical.
func (a *Array) RunLockstep() ([]float64, []int) {
	return a.RunLockstepObserved(nil)
}

// RunLockstepObserved is RunLockstep with a per-PE trace hook invoked
// once per PE per iteration (Design 2 keeps every PE busy every
// iteration — the broadcast bus has no fill or drain).
func (a *Array) RunLockstepObserved(peTrace systolic.PETrace) ([]float64, []int) {
	m := a.M
	acc := make([]float64, m) // A_i accumulators
	gated := make([]float64, m)
	for i := range acc {
		acc[i] = a.s.Zero()
	}
	busy := make([]int, m)
	for k := 0; k < a.K; k++ {
		for j := 0; j < m; j++ {
			// FIRST=1 on phase 0: the external input vector is broadcast;
			// afterwards PE j drives its S register onto the bus.
			x := a.v[j]
			if k > 0 {
				x = gated[j]
			}
			for i := 0; i < m; i++ {
				acc[i] = a.s.Add(acc[i], a.s.Mul(a.feed[k][i][j], x))
				busy[i]++
				if peTrace != nil {
					peTrace(i, k*m+j, true)
				}
			}
		}
		// MOVE: gate accumulators into the S registers.
		copy(gated, acc)
		for i := range acc {
			acc[i] = a.s.Zero()
		}
	}
	return gated[:a.rows], busy
}

// busMsg is one broadcast: the value on the bus for one iteration.
type busMsg struct {
	phase int
	x     float64
}

// RunGoroutines executes the array with one goroutine per PE plus a bus
// coordinator. The coordinator broadcasts the moving value each iteration
// and collects the gated S values at phase boundaries (the circulating
// token of the paper). Results and busy counts match RunLockstep exactly.
func (a *Array) RunGoroutines() ([]float64, []int) {
	return a.RunGoroutinesObserved(nil)
}

// RunGoroutinesObserved is RunGoroutines with a per-PE trace hook: each
// PE goroutine reports its own iterations concurrently (see
// systolic.PETrace for the contract). The iteration index matches the
// lock-step schedule: k*m + j for phase k, broadcast step j.
func (a *Array) RunGoroutinesObserved(peTrace systolic.PETrace) ([]float64, []int) {
	m := a.M
	bus := make([]chan busMsg, m)   // coordinator -> PE i
	gate := make([]chan float64, m) // PE i -> coordinator at phase end
	for i := range bus {
		bus[i] = make(chan busMsg, 1)
		gate[i] = make(chan float64, 1)
	}
	busy := make([]int, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acc := a.s.Zero()
			b := 0
			for k := 0; k < a.K; k++ {
				for j := 0; j < m; j++ {
					msg := <-bus[i]
					acc = a.s.Add(acc, a.s.Mul(a.feed[msg.phase][i][j], msg.x))
					if peTrace != nil {
						peTrace(i, msg.phase*m+j, true)
					}
					b++
				}
				gate[i] <- acc
				acc = a.s.Zero()
			}
			busy[i] = b
		}(i)
	}
	gated := make([]float64, m)
	for k := 0; k < a.K; k++ {
		for j := 0; j < m; j++ {
			x := a.v[j]
			if k > 0 {
				x = gated[j]
			}
			for i := 0; i < m; i++ {
				bus[i] <- busMsg{phase: k, x: x}
			}
		}
		for i := 0; i < m; i++ {
			gated[i] = <-gate[i]
		}
	}
	wg.Wait()
	return gated[:a.rows], busy
}

// Solve builds and runs the array in lock-step mode.
func Solve(ms []*matrix.Matrix, v []float64) ([]float64, error) {
	a, err := New(ms, v)
	if err != nil {
		return nil, err
	}
	out, _ := a.RunLockstep()
	return out, nil
}

// ReferenceSolve computes the same product with the sequential baseline.
func ReferenceSolve(ms []*matrix.Matrix, v []float64) []float64 {
	return matrix.ChainVec(semiring.MinPlus{}, ms, v)
}

// InputWordsPerCycle reports the external input bandwidth the design
// needs: m matrix elements per iteration plus the bus value during the
// first phase. Section 3.2 argues this I/O cost motivates Design 3.
func (a *Array) InputWordsPerCycle() int { return a.M + 1 }
