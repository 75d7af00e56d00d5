// Package align implements global sequence alignment with affine gap
// penalties (Needleman–Wunsch–Gotoh) over float64 series — the
// edit-distance / Smith–Waterman family of lattice DPs the paper's
// Section 1 cites as the canonical pattern-recognition workload. Like
// DTW it is a 2-D monadic-serial lattice whose anti-diagonals are
// independent, but each cell carries THREE coupled states (match,
// gap-in-y, gap-in-x), the affine-gap automaton of Gotoh's algorithm: a
// gap of length L costs Open + L·Ext, so extending a gap is cheaper
// than opening one.
//
// The lattice is (n+1)×(m+1) over x (length n) and y (length m); the
// empty row/column 0 is part of the recurrence (an empty series aligns
// against pure gap runs), so empty inputs are legal — align("", "") is 0
// and align("", y) is one gap run over y.
//
// Reference is the three-layer rolling-row recurrence as written, the
// oracle. Sequential, the serving engine, computes the same values bit
// for bit from two numbers per column, sweeping two lattice rows per
// column step on a pooled row (see Sequential). Unlike dtw.Sequential
// it sweeps rows, not anti-diagonals: only one of its three layers
// waits on the cell to the left, and an anti-diagonal sweep measured
// slower at small shapes and allocated more.
package align

import (
	"fmt"
	"math"
	"sync"
)

// Params are the affine gap penalties: a gap of length L costs
// Open + L·Ext. Substitution cost is fixed at |a-b| (the same absolute
// metric the DTW serving path uses), which keeps the lattice symmetric:
// Cost(x,y) == Cost(y,x), the metamorphic invariant the checker asserts.
type Params struct {
	Open float64 // gap opening penalty (charged once per gap run)
	Ext  float64 // gap extension penalty (charged per gapped sample)
}

// Validate rejects non-finite or negative penalties, checking Open
// before Ext so the error names the same field every time.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"open", p.Open}, {"ext", p.Ext}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("align: non-finite gap %s %v", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("align: negative gap %s %v", f.name, f.v)
		}
	}
	return nil
}

// Cells returns the number of DP cell updates the solve performs: three
// affine-gap layers over the full boundary-inclusive lattice. This is
// the closed form the admission controller prices align requests with.
func Cells(n, m int) int { return 3 * (n + 1) * (m + 1) }

// inf is the out-of-lattice sentinel: an unreachable layer state. It
// flows through the min-plus recurrence exactly (Inf+c = Inf,
// min(Inf, v) = v).
var inf = math.Inf(1)

// cell holds one lattice cell's three layer values:
//
//   - m: x_i aligned to y_j, entered from any layer diagonally;
//   - x: x_i aligned to a gap — extend an x-gap (Ext) or open one
//     (Open+Ext) from the cell above;
//   - y: y_j aligned to a gap, the mirror image from the cell to the left.
type cell struct{ m, x, y float64 }

// Reference computes the affine-gap alignment cost with the three-layer
// rolling-row recurrence, each layer's min over its three predecessors
// as Gotoh writes it. It is the oracle Sequential is diffed against.
// Empty series are legal (all-gap alignments).
//
// Only the y layer (Iy) is carried along a row, from the cell to the
// left, which the loop keeps in locals. Its own term goes last in its
// min: min(a, b, c) folds as min(min(a, b), c), so min(a, b) does not
// wait for the previous cell and the chain is one add and one min per
// cell.
func Reference(x, y []float64, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	oe, ext := p.Open+p.Ext, p.Ext
	// Rolling rows indexed by j: prev is lattice row i-1, cur is row i.
	prev := make([]cell, len(y)+1)
	cur := make([]cell, len(y)+1)
	// Row 0: the empty-x boundary. Only Iy (gap run over y) is live.
	l := cell{0, inf, inf}
	cur[0] = l
	for j := range y {
		l = cell{inf, inf, min(l.m+oe, l.x+oe, l.y+ext)}
		cur[j+1] = l
	}
	for _, xi := range x {
		prev, cur = cur, prev
		// Column 0: the empty-y boundary. Only Ix (gap run over x) is live.
		u := prev[0]
		l := cell{inf, min(u.m+oe, u.y+oe, u.x+ext), inf}
		cur[0] = l
		for j, yj := range y {
			d, u := prev[j], prev[j+1]
			l = cell{
				m: math.Abs(xi-yj) + min(d.m, d.x, d.y),
				x: min(u.m+oe, u.y+oe, u.x+ext),
				y: min(l.m+oe, l.x+oe, l.y+ext),
			}
			cur[j+1] = l
		}
	}
	c := cur[len(y)]
	return min(c.m, c.x, c.y), nil
}

// hx is what a lattice row leaves for the row below, per column:
// H = min(M, Ix, Iy), the best of the cell's three layers, and Ix.
type hx struct{ h, x float64 }

// maxPooledRow bounds the rows the pool keeps, in columns: 2^13
// columns are 128 KiB. A wider lattice, up to a 4 × 2^20 request at
// the spec's work ceiling (16 MiB of row), still solves, but its row
// goes to the garbage collector instead of staying in the pool.
const maxPooledRow = 1 << 13

// rowPool holds rows of hx (as *[]hx, so a Put does not allocate).
var rowPool = sync.Pool{New: func() any { return new([]hx) }}

// Sequential computes the affine-gap alignment cost, bit for bit as
// Reference does, on a pooled row. It is the serving engine. Empty
// series are legal (all-gap alignments).
//
// Each column keeps only H and Ix of the row above. With oe = Open+Ext,
// Gotoh's gap terms fold because Open ≥ 0 makes c+oe ≥ c+ext, and
// rounding is monotone, so
//
//	min(a+oe, b+oe, c+ext) == min(min(a, b, c)+oe, c+ext)
//
// bit for bit. So Ix = min(H_up+oe, Ix_up+ext) and, folding M and Ix
// alone, Iy = min(A_left+oe, Iy_left+ext), where A = min(M, Ix) reads
// only the row above. Iy is the one value a row carries, one add and
// one min per cell.
//
// The sweep takes two lattice rows per column step, the paper's
// one-cell skew between consecutive rows of a linear array on one
// core: the lower row reads the upper row's cell of the same column
// from registers, and the two rows' Iy chains overlap. The lattice is
// symmetric, so the shorter series runs down the rows: a 36 × 1
// lattice is one row pair of 36 cells, not 18 row pairs of one cell.
func Sequential(x, y []float64, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if len(x) > len(y) {
		x, y = y, x
	}
	rp := rowPool.Get().(*[]hx)
	row := *rp
	if cap(row) < len(y)+1 {
		row = make([]hx, len(y)+1)
	}
	row = row[:len(y)+1]
	c := sweep(x, y, p.Open+p.Ext, p.Ext, row)
	// Clean completion only (arena discipline): a panicking solve drops
	// its row.
	if cap(row) <= maxPooledRow+1 {
		*rp = row
		rowPool.Put(rp)
	}
	return c, nil
}

// sweep runs Sequential's recurrence over row, len(y)+1 columns, and
// returns H at the far corner. Lattice rows 0..|x| go in pairs; row 0,
// the empty-x boundary, pairs with row 1 when |x| is odd and is swept
// alone when it is even, so no row of x is ever swept alone.
func sweep(x, y []float64, oe, ext float64, row []hx) float64 {
	// Row 0 is one gap run over y: M and Ix are +Inf, so H is Iy, and
	// past column 1 Iy's opening term is +Inf, so each column's H is the
	// last one's plus Ext. zero keeps H at (0, 0) a variable, so that
	// +0 + oe is rounded as Reference rounds it.
	zero := 0.0
	g := min(zero+oe, inf+ext) // row 0's H at column 1
	i := 0
	if len(x)%2 == 0 {
		row[0] = hx{zero, inf}
		for j := 1; j < len(row); j++ {
			row[j] = hx{g, inf}
			g += ext
		}
	} else {
		// Rows 0 and 1 together: row 1 reads row 0's cell of the same
		// column from registers. Row 1's column 0 is a gap run over x
		// (only Ix is live, so H and A are Ix), from H = 0 and Ix = +Inf.
		x0 := x[0]
		ix := min(zero+oe, inf+ext)
		row[0] = hx{ix, ix}
		d, a, g1 := zero, ix, inf // H of the diagonal, A and Iy of the left cell
		for j, yj := range y {
			g1 = min(a+oe, g1+ext)
			m := math.Abs(x0-yj) + d
			ix := g + oe // row 0's Ix is +Inf
			a = min(m, ix)
			row[j+1] = hx{min(a, g1), ix}
			d, g = g, g+ext
		}
		i = 1
	}
	for ; i < len(x); i += 2 {
		x0, x1 := x[i], x[i+1]
		// Column 0: the empty-y boundary, one gap run over x. Only Ix is
		// live, so H and A are Ix; Iy is +Inf.
		u := row[0]
		ix0 := min(u.h+oe, u.x+ext)
		ix1 := min(ix0+oe, ix0+ext)
		row[0] = hx{ix1, ix1}
		d0, d1 := u.h, ix0 // H of each row's diagonal cell
		a0, a1 := ix0, ix1 // A of each row's left cell
		g0, g1 := inf, inf // Iy of each row's left cell
		for j, yj := range y {
			u := row[j+1]
			// Upper row: the row above comes from the buffer.
			g0 = min(a0+oe, g0+ext)
			m0 := math.Abs(x0-yj) + d0
			ix0 := min(u.h+oe, u.x+ext)
			a0 = min(m0, ix0)
			h0 := min(a0, g0)
			// Lower row: the row above is the upper row's cell.
			g1 = min(a1+oe, g1+ext)
			m1 := math.Abs(x1-yj) + d1
			ix1 := min(h0+oe, ix0+ext)
			a1 = min(m1, ix1)
			row[j+1] = hx{min(a1, g1), ix1}
			d0, d1 = u.h, h0
		}
	}
	return row[len(row)-1].h
}
