package check

// Fast-path oracle: the zero-alloc monomorphized/tiled kernels must be
// BITWISE identical to the reference engines they replaced on the
// serving hot path — a tiling or pooling bug that perturbs even the
// last ulp is a mismatch, not noise. Each per-kind check below is
// invoked from the corresponding reference check in check.go, so every
// generated instance (including the degenerate shapes the generator
// emits) exercises the fast path, at several tile sizes for DTW.

import (
	"fmt"

	"systolicdp/internal/dtw"
	"systolicdp/internal/matchain"
	"systolicdp/internal/nonserial"
)

// fastTiles are the tile edges the differential checker sweeps: every
// cell its own tile, a ragged prime that misaligns all borders, the
// production default, and one tile swallowing the whole lattice.
var fastTiles = []int{1, 7, dtw.DefaultTile, 1 << 20}

// checkDTWFast diffs the tiled monomorphized solver against the
// sequential recurrence at every tile size.
func (c *checker) checkDTWFast(seq float64) {
	x, y := c.inst.File.X, c.inst.File.Y
	fast, err := dtw.SolveFast(x, y, dtw.AbsDist)
	if err != nil {
		c.addf("result", "dtw-fast", "%v", err)
		return
	}
	c.cmpScalar("result", "dtw-sequential vs dtw-fast", seq, fast)
	// nil Dist selects the inlinable AbsMetric op — the serving path's
	// actual instantiation.
	op, err := dtw.SolveFast(x, y, nil)
	if err != nil {
		c.addf("result", "dtw-fast-op", "%v", err)
		return
	}
	c.cmpScalar("result", "dtw-sequential vs dtw-fast-op", seq, op)
	for _, T := range fastTiles {
		got, err := dtw.SolveTiled(x, y, dtw.AbsDist, T)
		if err != nil {
			c.addf("result", fmt.Sprintf("dtw-tiled-T%d", T), "%v", err)
			continue
		}
		c.cmpScalar("result", fmt.Sprintf("dtw-sequential vs dtw-tiled-T%d", T), seq, got)
	}
}

// checkChainFast diffs the flat pooled chain-ordering DP — cost AND
// parenthesization — against the table DP.
func (c *checker) checkChainFast(tab *matchain.Table) {
	dims := c.inst.File.Dims
	cost, paren, err := matchain.SolveFast(dims)
	if err != nil {
		c.addf("result", "chain-fast", "%v", err)
		return
	}
	c.cmpScalar("result", "chain-dp vs chain-fast", tab.OptimalCost(), cost)
	c.combos++
	if want := tab.Parenthesization(); paren != want {
		c.addf("result", "chain-dp vs chain-fast", "parenthesization %q != %q", paren, want)
	}
}

// checkNonserialFast diffs pooled monomorphized elimination against the
// reference, with GName set so named cost functions take their
// inlinable op path.
func (c *checker) checkNonserialFast(ch *nonserial.Chain3, name string, elim float64, steps int) {
	named := &nonserial.Chain3{Domains: ch.Domains, G: ch.G, GName: name}
	cost, fsteps, err := nonserial.EliminateFast(named)
	if err != nil {
		c.addf("result", "ns-fast", "%v", err)
		return
	}
	c.cmpScalar("result", "ns-eliminate vs ns-fast", elim, cost)
	c.cmpInt("invariant", "ns-eliminate vs ns-fast steps", steps, fsteps)
	// The unnamed path (FuncOp dispatch) must agree too.
	anon, asteps, err := nonserial.EliminateFast(ch)
	if err != nil {
		c.addf("result", "ns-fast-func", "%v", err)
		return
	}
	c.cmpScalar("result", "ns-eliminate vs ns-fast-func", elim, anon)
	c.cmpInt("invariant", "ns-eliminate vs ns-fast-func steps", steps, asteps)
}
