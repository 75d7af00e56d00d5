package check

// Fast-path oracle: the zero-alloc pooled kernels must be BITWISE
// identical to the reference engines they replaced on the serving hot
// path — a pooling bug that perturbs even the last ulp is a mismatch,
// not noise. Each per-kind check below is invoked from the
// corresponding reference check in check.go, so every generated
// instance (including the degenerate shapes the generator emits)
// exercises the fast path.

import (
	"systolicdp/internal/matchain"
	"systolicdp/internal/nonserial"
)

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

// checkNonserialFast diffs pooled elimination against the reference,
// with GName set so named cost functions take their op path.
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
