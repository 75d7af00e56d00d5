package pipearray

import (
	"fmt"
	"math"

	"systolicdp/internal/matrix"
	"systolicdp/internal/systolic"
)

// Section 3.2 notes that "there is no delay between feeding successive
// input matrices into the systolic array, and the processors are kept
// busy most of the time". Stream extends that property across problem
// *instances*: a batch of independent matrix-string problems of identical
// shape is fed back-to-back through one Design-1 array, sustaining one
// result vector per K'*m cycles of steady state with a single pipeline
// fill. Problems whose phase count K is odd are padded with one identity
// phase (multiplication by the semiring identity, a type-Y flush), so
// every problem ends on a moving-result phase and streams out of P_m with
// no drain stalls.

// StreamProblem is one instance: a matrix string and its initial vector,
// shaped as in New.
type StreamProblem struct {
	Ms []*matrix.Matrix
	V  []float64
}

// phase sources for P_1's moving-token multiplexer.
const (
	srcExternal = iota // the problem's input vector, fed by the host
	srcInject          // fresh result accumulators (type-Y phases)
	srcFeedback        // results of the previous phase, via P_m -> P_1
)

// phaseDesc describes one global phase of a streamed run.
type phaseDesc struct {
	typeY bool
	src   int
	feed  [][]float64 // [pe][iteration]
}

// streamPE generalises the Design-1 PE to a phase-descriptor table.
type streamPE struct {
	i, m   int
	phases []phaseDesc
	t      int
	r, a   float64
}

func (p *streamPE) NumIn() int  { return 3 }
func (p *streamPE) NumOut() int { return 1 }
func (p *streamPE) Reset() {
	p.t = 0
	p.r = math.Inf(1)
	p.a = math.Inf(1)
}

func (p *streamPE) Step(in []systolic.Token) ([]systolic.Token, bool) {
	t := p.t
	p.t++
	u := t - p.i
	if u < 0 || u >= len(p.phases)*p.m {
		return []systolic.Token{in[0]}, false
	}
	g, j := u/p.m, u%p.m
	ph := &p.phases[g]
	mov := in[0]
	if p.i == 0 {
		switch ph.src {
		case srcExternal:
			mov = in[0]
		case srcInject:
			mov = systolic.Token{V: math.Inf(1), Tag: j, Valid: true}
		case srcFeedback:
			mov = in[2]
		}
	}
	e := ph.feed[p.i][j]
	if !ph.typeY {
		p.a = min(p.a, e+mov.V)
		if j == p.m-1 {
			p.r = p.a
			p.a = math.Inf(1)
		}
		return []systolic.Token{mov}, true
	}
	mov.V = min(mov.V, e+p.r)
	return []systolic.Token{mov}, true
}

// Stream is a Design-1 array configured for a batch of problems.
type Stream struct {
	M          int
	KPadded    int // phases per problem after identity padding (even)
	B          int // batch size
	rows       int
	net        *systolic.Array
	sinkIdx    int
	lastPhases []int // global index of each problem's final phase
}

// NewStream builds a streamed Design-1 array. All problems must share the
// vector length m, the phase count K, and the first-matrix row count.
func NewStream(problems []StreamProblem) (*Stream, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("pipearray: empty batch")
	}
	m := len(problems[0].V)
	k := len(problems[0].Ms)
	if k == 0 || m == 0 {
		return nil, fmt.Errorf("pipearray: empty problem shape")
	}
	rows := problems[0].Ms[0].Rows
	for bi, pr := range problems {
		if len(pr.V) != m || len(pr.Ms) != k || pr.Ms[0].Rows != rows {
			return nil, fmt.Errorf("pipearray: problem %d shape differs from problem 0", bi)
		}
		for idx, mm := range pr.Ms {
			wantRows := m
			if idx == 0 {
				if mm.Rows > m {
					return nil, fmt.Errorf("pipearray: problem %d first matrix has %d rows > m=%d", bi, mm.Rows, m)
				}
				wantRows = mm.Rows
			}
			if mm.Rows != wantRows || mm.Cols != m {
				return nil, fmt.Errorf("pipearray: problem %d matrix %d is %dx%d", bi, idx, mm.Rows, mm.Cols)
			}
		}
	}
	kp := k
	if kp%2 == 1 {
		kp++ // identity-phase padding so results always stream out
	}
	inf := math.Inf(1)
	identityFeed := func() [][]float64 {
		fv := make([][]float64, m)
		for i := 0; i < m; i++ {
			fv[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				if i == j {
					fv[i][j] = 0 // (MIN,+) multiplicative identity
				} else {
					fv[i][j] = inf
				}
			}
		}
		return fv
	}

	s := &Stream{M: m, KPadded: kp, B: len(problems), rows: rows}
	var phases []phaseDesc
	for bi, pr := range problems {
		for ph := 0; ph < k; ph++ {
			src := pr.Ms[k-1-ph]
			typeY := ph%2 == 1
			fv := make([][]float64, m)
			for i := 0; i < m; i++ {
				fv[i] = make([]float64, m)
				for j := 0; j < m; j++ {
					var row, col int
					if typeY {
						row, col = j, i
					} else {
						row, col = i, j
					}
					if row < src.Rows {
						fv[i][j] = src.At(row, col)
					} else {
						fv[i][j] = inf
					}
				}
			}
			d := phaseDesc{typeY: typeY, feed: fv}
			switch {
			case ph == 0:
				d.src = srcExternal
			case typeY:
				d.src = srcInject
			default:
				d.src = srcFeedback
			}
			phases = append(phases, d)
		}
		if kp > k {
			phases = append(phases, phaseDesc{typeY: true, src: srcInject, feed: identityFeed()})
		}
		s.lastPhases = append(s.lastPhases, (bi+1)*kp-1)
	}

	net := &systolic.Array{}
	pes := make([]*streamPE, m)
	for i := 0; i < m; i++ {
		pes[i] = &streamPE{i: i, m: m, phases: phases, r: inf, a: inf}
		net.PEs = append(net.PEs, pes[i])
	}
	// Matrix feeds per PE.
	for i := 0; i < m; i++ {
		i := i
		net.Wires = append(net.Wires, systolic.Wire{
			From: systolic.Endpoint{PE: systolic.External, Port: 0},
			To:   systolic.Endpoint{PE: i, Port: 1},
			Source: func(t int) systolic.Token {
				u := t - i
				if u < 0 || u >= len(phases)*m {
					return systolic.Bubble()
				}
				return systolic.Token{V: phases[u/m].feed[i][u%m], Valid: true}
			},
		})
	}
	// External vector input: problem b's vector during its first phase.
	vs := make([][]float64, len(problems))
	for bi, pr := range problems {
		vs[bi] = append([]float64(nil), pr.V...)
	}
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: systolic.External, Port: 0},
		To:   systolic.Endpoint{PE: 0, Port: 0},
		Source: func(t int) systolic.Token {
			g, j := t/m, t%m
			if g < len(phases) && g%kp == 0 {
				return systolic.Token{V: vs[g/kp][j], Tag: j, Valid: true}
			}
			return systolic.Bubble()
		},
	})
	for i := 0; i+1 < m; i++ {
		net.Wires = append(net.Wires, systolic.Wire{
			From: systolic.Endpoint{PE: i, Port: 0},
			To:   systolic.Endpoint{PE: i + 1, Port: 0},
			Init: systolic.Bubble(),
		})
	}
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: m - 1, Port: 0},
		To:   systolic.Endpoint{PE: 0, Port: 2},
		Init: systolic.Bubble(),
	})
	for i := 1; i < m; i++ {
		net.Wires = append(net.Wires, systolic.Wire{
			From:   systolic.Endpoint{PE: systolic.External, Port: 0},
			To:     systolic.Endpoint{PE: i, Port: 2},
			Source: func(int) systolic.Token { return systolic.Bubble() },
		})
	}
	s.sinkIdx = len(net.Wires)
	net.Wires = append(net.Wires, systolic.Wire{
		From: systolic.Endpoint{PE: m - 1, Port: 0},
		To:   systolic.Endpoint{PE: systolic.External, Port: 0},
	})
	s.net = net
	return s, nil
}

// WallCycles returns the total cycles for the whole batch: B*K'*m
// iterations plus the single pipeline fill of m-1 cycles — versus
// B*(K'*m + m - 1) for separate runs.
func (s *Stream) WallCycles() int { return s.B*s.KPadded*s.M + s.M - 1 }

// SetParallelism sets the lock-step engine's compute-phase worker count
// for this stream (see systolic.Array.Parallelism).
func (s *Stream) SetParallelism(p int) { s.net.Parallelism = p }

// SetParallelThreshold sets the minimum PE count at which the parallel
// compute phase engages; 0 keeps the engine default, 1 forces it on.
func (s *Stream) SetParallelThreshold(n int) { s.net.ParallelThreshold = n }

// LockstepWorkers reports the compute-phase worker count a lock-step run
// will use after threshold gating and clamping.
func (s *Stream) LockstepWorkers() int { return s.net.LockstepWorkers() }

// Run executes the batch and returns each problem's result vector (live
// rows only), in order.
func (s *Stream) Run(goroutines bool) ([][]float64, error) {
	out, _, err := s.RunObserved(goroutines)
	return out, err
}

// RunObserved is Run returning the underlying engine result as well, so
// callers can report measured utilization and cycle counts for the whole
// streamed batch.
func (s *Stream) RunObserved(goroutines bool) ([][]float64, *systolic.Result, error) {
	s.net.Reset()
	cycles := s.WallCycles() + 1
	var res *systolic.Result
	var err error
	if goroutines {
		res, err = s.net.RunGoroutines(cycles)
	} else {
		res, err = s.net.RunLockstep(cycles, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	out := make([][]float64, s.B)
	for bi := range out {
		out[bi] = make([]float64, s.M)
	}
	for _, rec := range res.Sunk[s.sinkIdx] {
		if !rec.Token.Valid {
			continue
		}
		// Result y_j of the problem whose final phase is g exits P_m at
		// cycle g*m + j + m - 1.
		u := rec.Cycle - (s.M - 1)
		if u < 0 {
			continue
		}
		g, j := u/s.M, u%s.M
		for bi, last := range s.lastPhases {
			if g == last {
				out[bi][j] = rec.Token.V
			}
		}
	}
	for bi := range out {
		out[bi] = out[bi][:s.rows]
	}
	return out, res, nil
}
