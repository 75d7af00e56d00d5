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
//
// The baseline, Sequential, is also the serving engine, and it sweeps the
// lattice in the array's order: one anti-diagonal after another. The
// cells of a diagonal do not depend on each other, so one core overlaps
// their adds and mins where a row sweep would wait on the cell to the
// left of each.
package dtw

import (
	"fmt"
	"math"
	"sync"

	"systolicdp/internal/arena"
	"systolicdp/internal/systolic"
)

// Dist is a pointwise sample distance.
type Dist func(a, b float64) float64

// AbsDist is |a-b|.
func AbsDist(a, b float64) float64 { return math.Abs(a - b) }

// SqDist is (a-b)^2.
func SqDist(a, b float64) float64 { return (a - b) * (a - b) }

// diagonals is Sequential's pooled workspace: its two diagonals.
type diagonals struct{ prev, cur []float64 }

var diagPool = sync.Pool{New: func() any { return new(diagonals) }}

// Sequential computes the DTW distance between x and y with the O(n*m)
// DP, one anti-diagonal at a time. It holds two diagonals of
// min(|x|,|y|) floats, taken from a pool, so a warm solve allocates
// nothing. A nil d is |a-b|, evaluated inline.
func Sequential(x, y []float64, d Dist) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("dtw: empty series")
	}
	// Run the diagonals along the shorter series. The transposed lattice
	// charges d(y_j, x_i) at (j, i), so d's operands swap back.
	if len(x) > len(y) {
		x, y = y, x
		if d != nil {
			d0 := d
			d = func(a, b float64) float64 { return d0(b, a) }
		}
	}
	at := func(i, j int) float64 {
		if d == nil {
			return math.Abs(x[i] - y[j])
		}
		return d(x[i], y[j])
	}
	n, m := len(x), len(y)
	// Both buffers are indexed by the row i of cell (i, k-i). On
	// diagonal k, prev holds k-1 and cur holds k-2, which k overwrites
	// from the bottom row up: cell i reads k-2 only at row i-1.
	ws := diagPool.Get().(*diagonals)
	prev := arena.Floats(ws.prev, n)
	cur := arena.Floats(ws.cur, n)
	cur[0] = at(0, 0)
	for k := 1; k < n+m-1; k++ {
		prev, cur = cur, prev
		if k < n {
			cur[k] = at(k, 0) + prev[k-1] // column 0
		}
		// Interior rows: up is prev[i-1], left prev[i], diagonal cur[i-1].
		lo, hi := max(1, k-m+1), min(k-1, n-1)
		// A nil d, the served path, is |a-b| inline. One loop calling
		// AbsDist through d ran 6.7 against 4.4 ns per cell at 1000x963
		// and 6.9 against 4.5 at 256x256 (2-vCPU Xeon, EXPERIMENTS.md).
		if d == nil {
			for i := hi; i >= lo; i-- {
				cur[i] = math.Abs(x[i]-y[k-i]) + min(prev[i-1], prev[i], cur[i-1])
			}
		} else {
			for i := hi; i >= lo; i-- {
				cur[i] = d(x[i], y[k-i]) + min(prev[i-1], prev[i], cur[i-1])
			}
		}
		if k < m {
			cur[0] = at(0, k) + prev[0] // row 0, after row 1 read the old cur[0]
		}
	}
	// Read the answer before the Put: once the workspace is back in the
	// pool, another solve may take it and overwrite cur. Clean
	// completion only (arena discipline): a panicking solve, a panicking
	// d among them, drops its workspace.
	res := cur[n-1]
	ws.prev, ws.cur = prev, cur
	diagPool.Put(ws)
	return res, nil
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
