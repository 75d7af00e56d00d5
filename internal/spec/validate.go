package spec

import (
	"fmt"
	"math"

	"systolicdp/internal/matchain"
	"systolicdp/internal/nonserial"
)

// Wire-level sanity limits enforced at Decode time, before any weight
// reaches a (MIN,+)/(MAX,+) comparison or a solver sizes an array from
// attacker-controlled dimensions. They are far above anything the
// engines handle in practice but small enough that a hostile spec cannot
// request absurd allocations.
const (
	MaxSpecStages   = 4096    // stage matrices / value rows / domains
	MaxSpecNodes    = 4096    // nodes (columns) per stage
	MaxSpecSeries   = 1 << 20 // dtw series length
	MaxSpecChainLen = 4096    // entries of a chain-ordering dims vector
	MaxSpecDim      = 1 << 20 // a single matrix dimension in a chain
	MaxSpecElems    = 1 << 24 // total numeric payload across all fields
	MaxSpecJobs     = 4096    // knapsack jobs
	MaxSpecHorizon  = 1 << 20 // a knapsack due date (bounds the DP row)
)

// Validate rejects NaN/±Inf weights and absurd dimensions. Decode calls
// it on every wire payload, so a bad spec fails with a clear 400-class
// error instead of flowing into semiring comparisons (where NaN poisons
// every min/max) or into array sizing.
func (f *File) Validate() error {
	elems := 0
	count := func(n int) error {
		elems += n
		if elems > MaxSpecElems {
			return fmt.Errorf("spec: payload exceeds %d numeric entries", MaxSpecElems)
		}
		return nil
	}

	if len(f.Costs) > MaxSpecStages {
		return fmt.Errorf("spec: costs has %d stage matrices, max %d", len(f.Costs), MaxSpecStages)
	}
	for si, rows := range f.Costs {
		if len(rows) > MaxSpecNodes {
			return fmt.Errorf("spec: costs[%d] has %d rows, max %d", si, len(rows), MaxSpecNodes)
		}
		for ri, row := range rows {
			if len(row) > MaxSpecNodes {
				return fmt.Errorf("spec: costs[%d][%d] has %d entries, max %d", si, ri, len(row), MaxSpecNodes)
			}
			if err := count(len(row)); err != nil {
				return err
			}
			for ci, w := range row {
				if !finite(w) {
					return fmt.Errorf("spec: costs[%d][%d][%d]: non-finite weight %v", si, ri, ci, w)
				}
			}
		}
	}

	if len(f.Values) > MaxSpecStages {
		return fmt.Errorf("spec: values has %d stages, max %d", len(f.Values), MaxSpecStages)
	}
	for si, row := range f.Values {
		if len(row) > MaxSpecNodes {
			return fmt.Errorf("spec: values[%d] has %d entries, max %d", si, len(row), MaxSpecNodes)
		}
		if err := count(len(row)); err != nil {
			return err
		}
		for vi, w := range row {
			if !finite(w) {
				return fmt.Errorf("spec: values[%d][%d]: non-finite value %v", si, vi, w)
			}
		}
	}

	if len(f.Domains) > MaxSpecStages {
		return fmt.Errorf("spec: domains has %d variables, max %d", len(f.Domains), MaxSpecStages)
	}
	for di, dom := range f.Domains {
		if len(dom) > MaxSpecNodes {
			return fmt.Errorf("spec: domains[%d] has %d entries, max %d", di, len(dom), MaxSpecNodes)
		}
		if err := count(len(dom)); err != nil {
			return err
		}
		for vi, w := range dom {
			if !finite(w) {
				return fmt.Errorf("spec: domains[%d][%d]: non-finite value %v", di, vi, w)
			}
		}
	}

	if len(f.Dims) > MaxSpecChainLen {
		return fmt.Errorf("spec: dims has %d entries, max %d", len(f.Dims), MaxSpecChainLen)
	}
	for i, d := range f.Dims {
		if d < 1 {
			return fmt.Errorf("spec: dims[%d] = %d, must be >= 1", i, d)
		}
		if d > MaxSpecDim {
			return fmt.Errorf("spec: dims[%d] = %d, max %d", i, d, MaxSpecDim)
		}
	}
	// Bound chain and nonserial work by the closed forms admission prices
	// them with: a body under 50 KB can describe minutes of solving.
	if n := len(f.Dims) - 1; matchain.Updates(n) > MaxSpecElems {
		return fmt.Errorf("spec: chain of %d matrices exceeds %d updates", n, MaxSpecElems)
	}
	if steps := nonserial.TermSteps(f.Domains); steps > MaxSpecElems {
		return fmt.Errorf("spec: %d domains need %d elimination steps, max %d", len(f.Domains), steps, MaxSpecElems)
	}

	// Fields are checked in declaration order, not by ranging over a
	// map, so a spec with several bad fields always names the same one.
	for _, s := range [...]struct {
		name string
		xs   []float64
	}{{"x", f.X}, {"y", f.Y}} {
		if len(s.xs) > MaxSpecSeries {
			return fmt.Errorf("spec: %s has %d samples, max %d", s.name, len(s.xs), MaxSpecSeries)
		}
		if err := count(len(s.xs)); err != nil {
			return err
		}
		for i, w := range s.xs {
			if !finite(w) {
				return fmt.Errorf("spec: %s[%d]: non-finite sample %v", s.name, i, w)
			}
		}
	}

	// Bound the lattice a dtw or align solve sweeps, |x|·|y| cells, by the
	// cap the knapsack DP table below uses: each series alone may be long,
	// but two long ones describe hours of work in a small body.
	if len(f.X)*len(f.Y) > MaxSpecElems {
		return fmt.Errorf("spec: %d x %d lattice exceeds %d cells", len(f.X), len(f.Y), MaxSpecElems)
	}

	for _, g := range [...]struct {
		name string
		v    float64
	}{{"gapopen", f.GapOpen}, {"gapext", f.GapExtend}} {
		if !finite(g.v) {
			return fmt.Errorf("spec: %s: non-finite penalty %v", g.name, g.v)
		}
		if g.v < 0 {
			return fmt.Errorf("spec: %s: negative penalty %v", g.name, g.v)
		}
	}

	for _, j := range [...]struct {
		name string
		n    int
	}{{"proc", len(f.Proc)}, {"due", len(f.Due)}, {"weights", len(f.Weights)}} {
		if j.n > MaxSpecJobs {
			return fmt.Errorf("spec: %s has %d entries, max %d", j.name, j.n, MaxSpecJobs)
		}
	}
	sumProc, maxDue := 0, 0
	for i, p := range f.Proc {
		if p < 0 {
			return fmt.Errorf("spec: proc[%d] = %d, must be >= 0", i, p)
		}
		if p > MaxSpecHorizon {
			return fmt.Errorf("spec: proc[%d] = %d, max %d", i, p, MaxSpecHorizon)
		}
		sumProc += p
	}
	for i, d := range f.Due {
		if d < 0 {
			return fmt.Errorf("spec: due[%d] = %d, must be >= 0", i, d)
		}
		if d > MaxSpecHorizon {
			return fmt.Errorf("spec: due[%d] = %d, max %d", i, d, MaxSpecHorizon)
		}
		if d > maxDue {
			maxDue = d
		}
	}
	if err := count(len(f.Weights)); err != nil {
		return err
	}
	for i, w := range f.Weights {
		if !finite(w) {
			return fmt.Errorf("spec: weights[%d]: non-finite weight %v", i, w)
		}
		if w < 0 {
			return fmt.Errorf("spec: weights[%d]: negative weight %v", i, w)
		}
	}
	// Bound the DP table the Lawler-Moore row implies: n cells per wave
	// over a horizon of min(max due, total work) time units.
	if horizon := min(maxDue, sumProc); len(f.Proc) > 0 && len(f.Proc)*(horizon+1) > MaxSpecElems {
		return fmt.Errorf("spec: knapsack DP table %d x %d exceeds %d cells",
			len(f.Proc), horizon+1, MaxSpecElems)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
