// Package pipearray implements Design 1 of the paper (Figure 3): a linear
// systolic array of m processing elements that evaluates a string of
// (MIN,+) matrix products A.(B.(C.D)) — i.e. a monadic-serial DP problem —
// with no broadcasts.
//
// The array alternates between two phase types, exactly as controlled by
// the paper's ODD/MOVE/FIRST signals:
//
//   - type X (ODD=1): the input vector is shifted through the pipeline
//     while each PE accumulates one element of the result vector in its
//     stationary accumulator A_i; at the phase boundary MOVE transfers
//     A_i into R_i;
//   - type Y (ODD=0): the input vector is stationary in the R_i registers
//     while result accumulators are shifted through the pipeline, each PE
//     folding in one term as the accumulator passes; finished results exit
//     P_m and feed back into P_1 as the moving input of the next phase.
//
// PE i processes local iteration (k, j) at global cycle k*m + j + i (the
// one-cycle control skew between adjacent PEs noted in the paper), fed the
// matrix element M_k[i][j] in type-X phases and M_k[j][i] (the transposed
// column feed of Figure 3) in type-Y phases.
//
// Processing K matrices takes K*m iterations per PE and K*m + m - 1 wall
// cycles including skew; for an (N+1)-stage graph (K = N-1 matrices after
// the last stage's costs become the initial vector) that is N*m - 1 wall
// cycles, the paper's N*m iteration count.
package pipearray

import (
	"fmt"

	"systolicdp/internal/matrix"
	"systolicdp/internal/semiring"
	"systolicdp/internal/systolic"
)

// Array is a configured Design-1 systolic array for one matrix string.
type Array struct {
	M       int // number of PEs (= vector length)
	K       int // number of matrix phases
	rows    int // rows of the leftmost matrix (= live entries of the result)
	net     *systolic.Array
	pes     []*pe
	sinkIdx int
	s       semiring.Comparative
}

// pe is one Design-1 processing element (Figure 3(b)): register R, the
// stationary-vector element, and accumulator A. The comparison unit is
// semiring-generic: (MIN,+) for shortest paths, (MAX,+) for longest.
type pe struct {
	i, m, k int // index, array width, number of phases
	t       int // local cycle counter
	r, a    float64
	s       semiring.Comparative
}

func (p *pe) NumIn() int  { return 3 } // 0: pipe, 1: matrix feed, 2: feedback (P_1 only)
func (p *pe) NumOut() int { return 1 }

func (p *pe) Reset() {
	p.t = 0
	p.r = p.s.Zero()
	p.a = p.s.Zero()
}

func (p *pe) Step(in []systolic.Token) ([]systolic.Token, bool) {
	t := p.t
	p.t++
	u := t - p.i
	if u < 0 || u >= p.k*p.m {
		// Inactive (pipeline fill or drain): forward the pipe token so
		// type-Y results can travel to the sink.
		return []systolic.Token{in[0]}, false
	}
	k, j := u/p.m, u%p.m
	// Select the moving token. P_1 multiplexes between the external
	// source (first matrix), freshly injected accumulators (type-Y
	// phases), and the feedback path from P_m (later type-X phases); all
	// other PEs take the pipe input.
	mov := in[0]
	if p.i == 0 {
		switch {
		case k == 0:
			mov = in[0] // external input vector element v_j
		case k%2 == 1:
			// Inject a fresh result accumulator, initialised to the
			// semiring zero (+inf for (MIN,+)), tagged with its index.
			mov = systolic.Token{V: p.s.Zero(), Tag: j, Valid: true}
		default:
			mov = in[2] // feedback: result of the previous type-Y phase
		}
	}
	e := in[1].V // matrix element for this iteration
	if k%2 == 0 {
		// Type X: moving input, stationary accumulator.
		p.a = p.s.Add(p.a, p.s.Mul(e, mov.V))
		if j == p.m-1 {
			// MOVE: the accumulated result becomes the stationary input
			// of the next (type-Y) phase.
			p.r = p.a
			p.a = p.s.Zero()
		}
		return []systolic.Token{mov}, true
	}
	// Type Y: stationary input in R, moving accumulator.
	mov.V = p.s.Add(mov.V, p.s.Mul(e, p.r))
	return []systolic.Token{mov}, true
}

// New builds a Design-1 array over the (MIN,+) semiring computing
// ms[0].(ms[1].(...(ms[K-1].v))). Every matrix must be m x m where
// m = len(v), except ms[0], which may be r x m with r <= m (the
// degenerate first matrix of a single-source graph); it is padded with
// semiring-Zero rows. The result has len(v) entries of which the first
// rows(ms[0]) are live.
func New(ms []*matrix.Matrix, v []float64) (*Array, error) {
	return NewSemiring(semiring.MinPlus{}, ms, v)
}

// NewSemiring builds a Design-1 array over any comparative semiring:
// (MAX,+) turns the search into a longest-path evaluation, exactly the
// "maximization (or minimization)" latitude Section 2 allows.
func NewSemiring(s semiring.Comparative, ms []*matrix.Matrix, v []float64) (*Array, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("pipearray: empty matrix string")
	}
	m := len(v)
	if m == 0 {
		return nil, fmt.Errorf("pipearray: empty input vector")
	}
	for idx, mm := range ms {
		wantRows := m
		if idx == 0 {
			if mm.Rows > m {
				return nil, fmt.Errorf("pipearray: first matrix has %d rows > m=%d", mm.Rows, m)
			}
			wantRows = mm.Rows
		}
		if mm.Rows != wantRows || mm.Cols != m {
			return nil, fmt.Errorf("pipearray: matrix %d is %dx%d, want %dx%d", idx, mm.Rows, mm.Cols, wantRows, m)
		}
	}
	k := len(ms)
	// feedVal[phase][i][j]: element fed to PE i at local iteration j.
	// Phase p multiplies the (p+1)-th matrix from the right: ms[k-1-p].
	inf := s.Zero()
	feedVal := make([][][]float64, k)
	for ph := 0; ph < k; ph++ {
		src := ms[k-1-ph]
		fv := make([][]float64, m)
		for i := 0; i < m; i++ {
			fv[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				var row, col int
				if ph%2 == 0 {
					row, col = i, j // type X: row feed
				} else {
					row, col = j, i // type Y: transposed column feed
				}
				if row < src.Rows {
					fv[i][j] = src.At(row, col)
				} else {
					fv[i][j] = inf // padding rows of a degenerate matrix
				}
			}
		}
		feedVal[ph] = fv
	}

	a := &Array{M: m, K: k, rows: ms[0].Rows, s: s}
	net := &systolic.Array{}
	for i := 0; i < m; i++ {
		p := &pe{i: i, m: m, k: k, r: inf, a: inf, s: s}
		a.pes = append(a.pes, p)
		net.PEs = append(net.PEs, p)
	}
	// Matrix feeds: PE i active at cycles [i, k*m+i).
	for i := 0; i < m; i++ {
		i := i
		net.Wires = append(net.Wires, systolic.Wire{
			From: systolic.Endpoint{PE: systolic.External, Port: 0},
			To:   systolic.Endpoint{PE: i, Port: 1},
			Source: func(t int) systolic.Token {
				u := t - i
				if u < 0 || u >= k*m {
					return systolic.Bubble()
				}
				return systolic.Token{V: feedVal[u/m][i][u%m], Valid: true}
			},
		})
	}
	// P_1 external input: the initial vector during phase 0.
	vcopy := append([]float64(nil), v...)
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: systolic.External, Port: 0},
		To:   systolic.Endpoint{PE: 0, Port: 0},
		Source: func(t int) systolic.Token {
			if t < len(vcopy) {
				return systolic.Token{V: vcopy[t], Tag: t, Valid: true}
			}
			return systolic.Bubble()
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
	// Feedback P_m -> P_1 (port 2) and the external sink.
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: m - 1, Port: 0},
		To:   systolic.Endpoint{PE: 0, Port: 2},
		Init: systolic.Bubble(),
	})
	// Unused feedback ports of P_2..P_m are tied off.
	for i := 1; i < m; i++ {
		net.Wires = append(net.Wires, systolic.Wire{
			From:   systolic.Endpoint{PE: systolic.External, Port: 0},
			To:     systolic.Endpoint{PE: i, Port: 2},
			Source: func(int) systolic.Token { return systolic.Bubble() },
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

// Iterations returns the paper's per-PE iteration count K*m.
func (a *Array) Iterations() int { return a.K * a.M }

// WallCycles returns the wall-clock cycles until the last result is
// available: K*m iterations plus m-1 cycles of pipeline skew.
func (a *Array) WallCycles() int { return a.K*a.M + a.M - 1 }

// Run executes the array and returns the result vector (padded entries
// removed) together with the engine run result. If goroutines is true the
// goroutine-per-PE runner is used, otherwise the lock-step runner. The
// array is re-runnable: every run resets the network first, so repeated
// runs (any runner) are bit-identical.
func (a *Array) Run(goroutines bool) ([]float64, *systolic.Result, error) {
	return a.RunObserved(goroutines, nil, nil)
}

// RunObserved is Run with observability hooks: peTrace receives every
// PE's busy bit each cycle (both runners; see systolic.PETrace for the
// concurrency contract), and wireTrace receives per-cycle wire snapshots
// (lock-step only — the goroutine runner has no global latch instant, so
// passing a wireTrace with goroutines=true is an error).
func (a *Array) RunObserved(goroutines bool, wireTrace func(cycle int, wires []systolic.Token), peTrace systolic.PETrace) ([]float64, *systolic.Result, error) {
	if goroutines && wireTrace != nil {
		return nil, nil, fmt.Errorf("pipearray: wire traces require the lock-step runner")
	}
	a.net.Reset()
	cycles := a.WallCycles() + 1
	var res *systolic.Result
	var err error
	if goroutines {
		res, err = a.net.RunGoroutinesObserved(cycles, peTrace)
	} else {
		res, err = a.net.RunLockstepObserved(cycles, wireTrace, peTrace)
	}
	if err != nil {
		return nil, nil, err
	}
	return a.decode(res), res, nil
}

// ObservedCycles reports the number of cycles an observed run executes,
// for sizing cycle recorders.
func (a *Array) ObservedCycles() int { return a.WallCycles() + 1 }

// decode extracts the result vector from a finished run.
func (a *Array) decode(res *systolic.Result) []float64 {
	out := make([]float64, a.M)
	if (a.K-1)%2 == 1 {
		// Final phase was type Y: results exited P_m tagged with their
		// element index.
		lastPhase := a.K - 1
		for _, rec := range res.Sunk[a.sinkIdx] {
			// y_j exits P_m at cycle lastPhase*m + j + m - 1.
			j := rec.Cycle - lastPhase*a.M - (a.M - 1)
			if j >= 0 && j < a.M && rec.Token.Valid {
				out[j] = rec.Token.V
			}
		}
	} else {
		// Final phase was type X: results are stationary in the
		// accumulators, which MOVE transferred into the R registers at the
		// phase boundary (the hardware would shift them out in m further
		// cycles; the host reads them directly here).
		for i, p := range a.pes {
			out[i] = p.r
		}
	}
	return out[:a.rows]
}

// Solve is a convenience wrapper: build, run lock-step, and return the
// result vector.
func Solve(ms []*matrix.Matrix, v []float64) ([]float64, error) {
	a, err := New(ms, v)
	if err != nil {
		return nil, err
	}
	out, _, err := a.Run(false)
	return out, err
}

// ReferenceSolve computes the same product with the sequential baseline.
func ReferenceSolve(ms []*matrix.Matrix, v []float64) []float64 {
	return matrix.ChainVec(semiring.MinPlus{}, ms, v)
}

// InputWordsPerCycle reports the external input bandwidth the design
// needs: m matrix-element streams plus the vector input. Section 3.2
// identifies this I/O cost as the bottleneck Design 3 removes.
func (a *Array) InputWordsPerCycle() int { return a.M + 1 }

// RunTraced is Run with a lock-step trace callback (see the trace
// package) invoked after every cycle with the latched wire values.
func (a *Array) RunTraced(trace func(cycle int, wires []systolic.Token)) ([]float64, *systolic.Result, error) {
	return a.RunObserved(false, trace, nil)
}

// WireNames labels the array's wires for trace rendering: matrix feeds,
// the vector input, the pipe stages, the feedback line, tie-offs, and the
// sink.
func (a *Array) WireNames() []string {
	names := make([]string, 0, len(a.net.Wires))
	for i := 0; i < a.M; i++ {
		names = append(names, fmt.Sprintf("feed>P%d", i+1))
	}
	names = append(names, "v>P1")
	for i := 0; i+1 < a.M; i++ {
		names = append(names, fmt.Sprintf("P%d>P%d", i+1, i+2))
	}
	names = append(names, fmt.Sprintf("P%d>P1 fb", a.M))
	for i := 1; i < a.M; i++ {
		names = append(names, fmt.Sprintf("tie>P%d", i+1))
	}
	names = append(names, fmt.Sprintf("P%d>out", a.M))
	return names
}
