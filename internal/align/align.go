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
// Sequential (rolling rows) is both the reference and the serving
// engine. Unlike dtw.Sequential it sweeps rows, not anti-diagonals:
// only one of its three layers waits on the cell to the left (see
// Sequential), and an anti-diagonal sweep measured slower at small
// shapes and allocated more.
package align

import (
	"fmt"
	"math"
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

// Sequential computes the affine-gap alignment cost with the reference
// rolling-row recurrence. Empty series are legal (all-gap alignments).
//
// Only the y layer (Iy) is carried along a row, from the cell to the
// left, which the loop keeps in locals. Its own term goes last in its
// min: min(a, b, c) folds as min(min(a, b), c), so min(a, b) does not
// wait for the previous cell and the chain is one add and one min per
// cell.
func Sequential(x, y []float64, p Params) (float64, error) {
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
