// Package dtw implements dynamic time warping, the pattern-recognition DP
// the paper's Section 1 cites (Ney's DP for pattern recognition; Clarke &
// Dyer's systolic array for curve detection is the same lattice shape).
// The recurrence
//
//	D(i,j) = d(x_i, y_j) + min( D(i-1,j), D(i,j-1), D(i-1,j-1) )
//
// is evaluated two ways: the sequential O(n*m) DP baseline, and a linear
// systolic array of m PEs (one per sample of the reference series) on the
// shared engine. Row tokens stream through the array and anti-diagonals
// of the lattice compute in parallel, finishing in n+m-1 cycles — the
// classic systolic wavefront for this recurrence.
package dtw

import (
	"fmt"
	"math"

	"systolicdp/internal/systolic"
)

// Dist is a pointwise sample distance.
type Dist func(a, b float64) float64

// AbsDist is |a-b|.
func AbsDist(a, b float64) float64 { return math.Abs(a - b) }

// SqDist is (a-b)^2.
func SqDist(a, b float64) float64 { return (a - b) * (a - b) }

// Sequential computes the DTW distance between x and y with the O(n*m)
// baseline DP.
func Sequential(x, y []float64, d Dist) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("dtw: empty series")
	}
	if d == nil {
		d = AbsDist
	}
	n, m := len(x), len(y)
	prev := make([]float64, m)
	cur := make([]float64, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			c := d(x[i], y[j])
			switch {
			case i == 0 && j == 0:
				cur[j] = c
			case i == 0:
				cur[j] = c + cur[j-1]
			case j == 0:
				cur[j] = c + prev[j]
			default:
				cur[j] = c + min(prev[j], cur[j-1], prev[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return prev[m-1], nil
}

// pe is one column processor: it owns y_j, its previous-row value
// D(i-1, j), and forwards (x_i, D(i,j), D(i-1,j)) to the next column.
type pe struct {
	j       int
	y       float64
	d       Dist
	prevOwn float64 // D(i-1, j)
	lastInW float64 // D(i-1, j-1): the previous row's incoming left value
}

func (p *pe) NumIn() int  { return 1 }
func (p *pe) NumOut() int { return 1 }
func (p *pe) Reset() {
	p.prevOwn = math.Inf(1)
	p.lastInW = math.Inf(1)
}

func (p *pe) Step(in []systolic.Token) ([]systolic.Token, bool) {
	tok := in[0]
	if !tok.Valid {
		return []systolic.Token{systolic.Bubble()}, false
	}
	// tok.V = x_i and tok.W = D(i, j-1). The diagonal D(i-1, j-1) needs
	// no extra wire: it is exactly the left value this PE received on the
	// previous row, held in the lastInW register.
	diag := p.lastInW
	left := tok.W
	up := p.prevOwn
	best := min(up, left, diag)
	if math.IsInf(best, 1) {
		best = 0 // the (0,0) corner starts the lattice
	}
	val := p.d(tok.V, p.y) + best
	p.lastInW = left
	p.prevOwn = val
	out := tok
	out.W = val
	return []systolic.Token{out}, true
}

// Array is a DTW systolic array for a fixed reference series y.
type Array struct {
	M    int
	net  *systolic.Array
	pes  []*pe
	d    Dist
	sink int
}

// New builds the array for reference series y.
func New(y []float64, d Dist) (*Array, error) {
	if len(y) == 0 {
		return nil, fmt.Errorf("dtw: empty reference series")
	}
	if d == nil {
		d = AbsDist
	}
	a := &Array{M: len(y), d: d}
	net := &systolic.Array{}
	for j, yv := range y {
		p := &pe{j: j, y: yv, d: d, prevOwn: math.Inf(1)}
		a.pes = append(a.pes, p)
		net.PEs = append(net.PEs, p)
	}
	a.net = net
	return a, nil
}

// Match streams query series x through the array and returns the DTW
// distance. The run takes n + m - 1 cycles.
func (a *Array) Match(x []float64, goroutines bool) (float64, int, error) {
	if len(x) == 0 {
		return 0, 0, fmt.Errorf("dtw: empty query series")
	}
	a.net.Wires = a.wires(x)
	a.net.Reset()
	cycles := len(x) + a.M - 1
	var res *systolic.Result
	var err error
	if goroutines {
		res, err = a.net.RunGoroutines(cycles)
	} else {
		res, err = a.net.RunLockstep(cycles, nil)
	}
	if err != nil {
		return 0, 0, err
	}
	// The final value exits PE m-1 at cycle (n-1)+(m-1).
	var out float64 = math.NaN()
	for _, rec := range res.Sunk[a.sink] {
		if rec.Token.Valid && rec.Cycle == cycles-1 {
			out = rec.Token.W
		}
	}
	if math.IsNaN(out) {
		return 0, 0, fmt.Errorf("dtw: result token not observed")
	}
	return out, cycles, nil
}

// wires builds the per-run wiring: the query feed and the column chain.
func (a *Array) wires(x []float64) []systolic.Wire {
	xcopy := append([]float64(nil), x...)
	var ws []systolic.Wire
	ws = append(ws, systolic.Wire{
		From: systolic.Endpoint{PE: systolic.External, Port: 0},
		To:   systolic.Endpoint{PE: 0, Port: 0},
		Source: func(t int) systolic.Token {
			if t < len(xcopy) {
				// Left boundary: D(i, -1) = +inf (no predecessor column).
				return systolic.Token{V: xcopy[t], W: math.Inf(1), Ctl: t, Valid: true}
			}
			return systolic.Bubble()
		},
	})
	for j := 0; j+1 < a.M; j++ {
		ws = append(ws, systolic.Wire{
			From: systolic.Endpoint{PE: j, Port: 0},
			To:   systolic.Endpoint{PE: j + 1, Port: 0},
			Init: systolic.Bubble(),
		})
	}
	a.sink = len(ws)
	ws = append(ws, systolic.Wire{
		From: systolic.Endpoint{PE: a.M - 1, Port: 0},
		To:   systolic.Endpoint{PE: systolic.External, Port: 0},
	})
	return ws
}

// MatchBank matches one query against a bank of reference templates, one
// systolic array per template running concurrently — the speech-
// recognition deployment the paper's Section 1 citations target (each
// template resident in hardware, utterances streamed past all of them).
// It returns the index of the best-matching template and its distance.
func MatchBank(templates [][]float64, x []float64, d Dist) (best int, dist float64, err error) {
	if len(templates) == 0 {
		return 0, 0, fmt.Errorf("dtw: empty template bank")
	}
	type result struct {
		idx  int
		dist float64
		err  error
	}
	results := make(chan result, len(templates))
	for i, y := range templates {
		go func(i int, y []float64) {
			arr, err := New(y, d)
			if err != nil {
				results <- result{i, 0, err}
				return
			}
			v, _, err := arr.Match(x, false)
			results <- result{i, v, err}
		}(i, y)
	}
	best, dist = -1, math.Inf(1)
	for range templates {
		r := <-results
		if r.err != nil {
			err = r.err
			continue
		}
		if r.dist < dist {
			best, dist = r.idx, r.dist
		}
	}
	if err != nil {
		return 0, 0, err
	}
	return best, dist, nil
}
