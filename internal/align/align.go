// Package align implements global sequence alignment with affine gap
// penalties (Needleman–Wunsch–Gotoh) over float64 series — the
// edit-distance / Smith–Waterman family of lattice DPs the paper's
// Section 1 cites as the canonical pattern-recognition workload. Like
// DTW it is a 2-D monadic-serial lattice swept by anti-diagonals, but
// each cell carries THREE coupled states (match, gap-in-y, gap-in-x),
// the affine-gap automaton of Gotoh's algorithm: a gap of length L
// costs Open + L·Ext, so extending a gap is cheaper than opening one.
//
// The lattice is (n+1)×(m+1) over x (length n) and y (length m); the
// empty row/column 0 is part of the recurrence (an empty series aligns
// against pure gap runs), so empty inputs are legal — align("", "") is 0
// and align("", y) is one gap run over y.
//
// Sequential (rolling rows) is both the reference and the serving
// engine: an anti-diagonal fast path on pooled workspaces measured no
// faster (0.93× at 256×256), so it was removed.
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

// Validate rejects non-finite or negative penalties.
func (p Params) Validate() error {
	for name, v := range map[string]float64{"open": p.Open, "ext": p.Ext} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("align: non-finite gap %s %v", name, v)
		}
		if v < 0 {
			return fmt.Errorf("align: negative gap %s %v", name, v)
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

// interior computes one interior cell's three layer values from its
// neighbours: d* = diagonal (i-1,j-1), u* = up (i-1,j), l* = left
// (i,j-1). oe is Open+Ext precomputed once per solve.
//
//   - M:  x_i aligned to y_j, entered from any layer diagonally;
//   - Ix: x_i aligned to a gap — extend an x-gap (Ext) or open one (oe);
//   - Iy: y_j aligned to a gap, the mirror image.
func interior(sub, dM, dIx, dIy, uM, uIx, uIy, lM, lIx, lIy, oe, ext float64) (m, ix, iy float64) {
	m = sub + min(dM, dIx, dIy)
	ix = min(uM+oe, uIx+ext, uIy+oe)
	iy = min(lM+oe, lIy+ext, lIx+oe)
	return
}

// sub is the substitution cost |a-b|.
func sub(a, b float64) float64 { return math.Abs(a - b) }

// Sequential computes the affine-gap alignment cost with the reference
// rolling-row recurrence. Empty series are legal (all-gap alignments).
func Sequential(x, y []float64, p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n, m := len(x), len(y)
	oe := p.Open + p.Ext
	// Rolling rows indexed by j: prev is lattice row i-1, cur is row i.
	pM := make([]float64, m+1)
	pX := make([]float64, m+1)
	pY := make([]float64, m+1)
	cM := make([]float64, m+1)
	cX := make([]float64, m+1)
	cY := make([]float64, m+1)
	// Row 0: the empty-x boundary. Only Iy (gap run over y) is live.
	cM[0], cX[0], cY[0] = 0, inf, inf
	for j := 1; j <= m; j++ {
		cM[j], cX[j] = inf, inf
		cY[j] = min(cM[j-1]+oe, cY[j-1]+p.Ext, cX[j-1]+oe)
	}
	for i := 1; i <= n; i++ {
		pM, cM = cM, pM
		pX, cX = cX, pX
		pY, cY = cY, pY
		// Column 0: the empty-y boundary. Only Ix (gap run over x) is live.
		cM[0], cY[0] = inf, inf
		cX[0] = min(pM[0]+oe, pX[0]+p.Ext, pY[0]+oe)
		for j := 1; j <= m; j++ {
			s := sub(x[i-1], y[j-1])
			cM[j], cX[j], cY[j] = interior(s,
				pM[j-1], pX[j-1], pY[j-1],
				pM[j], pX[j], pY[j],
				cM[j-1], cX[j-1], cY[j-1],
				oe, p.Ext)
		}
	}
	return min(cM[m], cX[m], cY[m]), nil
}
