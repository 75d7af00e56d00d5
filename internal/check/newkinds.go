package check

// Oracles for the alignment, Viterbi, and knapsack kinds. Each follows
// the established discipline: a sequential reference, every other
// engine diffed against it BITWISE (integer-valued generated weights
// make all sums exact), the kind's metamorphic invariant (alignment
// symmetry, Viterbi path-cost re-derivation, knapsack prefix
// monotonicity), and the full spec round-trip through core.Solve.

import (
	"fmt"

	"systolicdp/internal/align"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/knapsack"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
	"systolicdp/internal/viterbi"
)

// checkAlign cross-checks the affine-gap lattice: the rolling-row
// reference, the symmetry invariant Cost(x,y) == Cost(y,x), and the
// serving wire path.
func (c *checker) checkAlign() {
	x, y := c.inst.File.X, c.inst.File.Y
	p := align.Params{Open: c.inst.File.GapOpen, Ext: c.inst.File.GapExtend}
	seq, err := align.Sequential(x, y, p)
	if err != nil {
		c.addf("result", "align-sequential", "%v", err)
		return
	}
	// |a-b| substitution makes the lattice symmetric.
	sym, err := align.Sequential(y, x, p)
	if err == nil {
		c.cmpScalar("result", "align(x,y) vs align(y,x) symmetry", seq, sym)
	}
	if sol := c.solveSpec("align"); sol != nil {
		c.cmpScalar("result", "align-sequential vs spec-roundtrip", seq, sol.Cost)
	}
}

// checkViterbi cross-checks the trellis: the sequential sweep, the
// Design-3 staged elimination, the expanded-graph baseline, the
// feedback array under every runner, the path-cost re-derivation
// invariant, and the serving wire path. Non-uniform and single-stage
// trellises skip the array.
func (c *checker) checkViterbi(workers []int) {
	tr := &viterbi.Trellis{Node: c.inst.File.Values, Trans: c.inst.File.Costs}
	if err := tr.Validate(); err != nil {
		c.addf("invariant", "generator", "invalid trellis: %v", err)
		return
	}
	seq, path, err := tr.Sequential()
	if err != nil {
		c.addf("result", "vit-sequential", "%v", err)
		return
	}
	// Metamorphic re-derivation: replaying the winning path through the
	// same EdgeCost terms must reproduce the cost bitwise.
	if rc, err := tr.PathCost(path); err != nil {
		c.addf("path", "vit-sequential", "invalid path: %v", err)
	} else {
		c.cmpScalar("path", "vit-sequential cost vs PathCost(path)", seq, rc)
	}
	if tr.Stages() >= 2 {
		sp := tr.Staged()
		s := semiring.MinPlus{}
		c.cmpScalar("result", "vit-sequential vs vit-staged-elimination", seq, sp.Solve(s))
		sres := sp.SolvePath(s)
		c.cmpScalar("result", "vit-sequential vs vit-staged-path", seq, sres.Cost)
		c.cmpInts("path", "vit-sequential vs vit-staged-path", path, sres.Nodes)
		// The high-bandwidth expansion Design 3 exists to avoid must still
		// agree.
		expanded := multistage.SolveOptimal(s, sp.Expand())
		c.cmpScalar("result", "vit-sequential vs vit-expanded-graph", seq, expanded.Cost)
		if _, uniform := tr.Uniform(); uniform {
			c.checkViterbiArray(tr, seq, path, workers)
		}
	}
	if sol := c.solveSpec("vit"); sol != nil {
		c.cmpScalar("result", "vit-sequential vs spec-roundtrip", seq, sol.Cost)
		c.cmpInts("path", "vit-sequential vs spec-roundtrip", path, sol.Path)
	}
}

func (c *checker) checkViterbiArray(tr *viterbi.Trellis, seq float64, path []int, workers []int) {
	build := func() (*fbarray.Array, error) {
		return fbarray.NewStaged(semiring.MinPlus{}, tr.Staged())
	}
	a, err := build()
	if err != nil {
		c.addf("result", "vit-fb-build", "%v", err)
		return
	}
	res, err := a.Run(false)
	if err != nil {
		c.addf("result", "vit-fb-lockstep", "%v", err)
		return
	}
	c.cmpScalar("result", "vit-sequential vs vit-fb-lockstep", seq, res.Cost)
	c.cmpInts("path", "vit-sequential vs vit-fb-lockstep", path, res.Path)
	for _, w := range workers {
		if w == 1 {
			continue
		}
		ap, err := build()
		if err != nil {
			continue
		}
		ap.SetParallelism(w)
		ap.SetParallelThreshold(1)
		pres, err := ap.Run(false)
		if err != nil {
			c.addf("result", fmt.Sprintf("vit-fb-lockstep-w%d", w), "%v", err)
			continue
		}
		c.cmpScalar("result", fmt.Sprintf("vit-fb-lockstep vs vit-fb-lockstep-w%d", w), res.Cost, pres.Cost)
		c.cmpInts("path", fmt.Sprintf("vit-fb-lockstep vs vit-fb-lockstep-w%d", w), res.Path, pres.Path)
	}
	ag, err := build()
	if err == nil {
		gres, err := ag.Run(true)
		if err != nil {
			c.addf("result", "vit-fb-goroutines", "%v", err)
		} else {
			c.cmpScalar("result", "vit-fb-lockstep vs vit-fb-goroutines", res.Cost, gres.Cost)
			c.cmpInts("path", "vit-fb-lockstep vs vit-fb-goroutines", res.Path, gres.Path)
		}
	}
}

// checkKnapsack cross-checks the Lawler-Moore DP: the in-place
// reference against the double-buffered lockstep wave engine (bitwise,
// plus the n-wave cycle count), job-order invariance, prefix
// monotonicity of the on-time weight, and the serving wire path.
func (c *checker) checkKnapsack() {
	f := &c.inst.File
	jobs := make([]knapsack.Job, len(f.Proc))
	for i := range jobs {
		jobs[i] = knapsack.Job{P: f.Proc[i], D: f.Due[i], W: f.Weights[i]}
	}
	seq, err := knapsack.Sequential(jobs)
	if err != nil {
		c.addf("result", "ks-sequential", "%v", err)
		return
	}
	lock, cycles, err := knapsack.Lockstep(jobs)
	if err != nil {
		c.addf("result", "ks-lockstep", "%v", err)
		return
	}
	c.cmpScalar("result", "ks-sequential vs ks-lockstep", seq, lock)
	c.cmpInt("cycles", "ks-lockstep waves vs n jobs", cycles, len(jobs))
	// The objective is a set function of the jobs: any input order must
	// give the same answer (EDD reorders internally).
	rev := make([]knapsack.Job, len(jobs))
	for i := range rev {
		rev[i] = jobs[len(jobs)-1-i]
	}
	rseq, err := knapsack.Sequential(rev)
	if err != nil {
		c.addf("result", "ks-sequential-reversed", "%v", err)
		return
	}
	c.cmpScalar("result", "ks order invariance", seq, rseq)
	// Prefix monotonicity: appending a job can never decrease the maximum
	// on-time weight.
	prev := 0.0
	for k := 0; k <= len(jobs); k++ {
		v, err := knapsack.OnTimeWeight(jobs[:k])
		if err != nil {
			c.addf("result", "ks-prefix", "k=%d: %v", k, err)
			return
		}
		c.combos++
		if v < prev {
			c.addf("invariant", "ks prefix monotonicity", "on-time weight fell %v -> %v at k=%d", prev, v, k)
			return
		}
		prev = v
	}
	if sol := c.solveSpec("ks"); sol != nil {
		c.cmpScalar("result", "ks-sequential vs spec-roundtrip", seq, sol.Cost)
	}
}
