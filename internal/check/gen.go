// Package check is the differential-testing and invariant-checking
// subsystem: a seeded generator produces randomized DP instances, an
// oracle runs each instance through every applicable engine/design
// combination — the sequential baselines, the lock-step engine and the
// goroutine-per-PE runner — and diffs results, optimal paths, cycle
// counts, and per-PE busy totals bit for bit. The paper's closed forms
// (the N·m and (N+1)·m iteration counts, the eq (9) processor
// utilization) are asserted as metamorphic invariants on every instance.
//
// The repo has two execution substrates that must agree exactly across
// Designs 1–3; this package is the systematic randomized cross-check
// behind that obligation, shipped as a library (property tests, fuzz
// targets) and as the dpcheck CLI.
//
// All generated weights are integer-valued float64s, so every sum an
// engine computes is exact regardless of association order and mismatch
// detection can use bitwise equality rather than tolerances.
package check

import (
	"fmt"
	"math/rand"
	"sort"

	"systolicdp/internal/matrix"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
	"systolicdp/internal/spec"
)

// kindOps is one spec kind's generator, oracle and shrinker (nil when
// the minimizer has nothing smaller to offer). The oracles rebuild their
// engines' inputs from the File, not through spec.Build, so a fault in
// Build shows as a spec-roundtrip mismatch.
type kindOps struct {
	gen    func(*rand.Rand, GenConfig) *Instance
	check  func(*checker)
	shrink func(*Instance) []*Instance
}

// ops holds an entry for every spec.Kinds() name.
var ops = map[string]kindOps{
	"graph":      {genGraph, (*checker).checkGraph, shrinkGraph},
	"nodevalued": {genNodeValued, (*checker).checkNodeValued, shrinkNodeValued},
	"dtw":        {genDTW, (*checker).checkDTW, shrinkDTW},
	"align":      {genAlign, (*checker).checkAlign, nil},
	"viterbi":    {genViterbi, (*checker).checkViterbi, nil},
	"knapsack":   {genKnapsack, (*checker).checkKnapsack, nil},
	"chain":      {genChain, (*checker).checkChain, shrinkChain},
	"nonserial":  {genNonserial, (*checker).checkNonserial, shrinkNonserial},
}

// Instance is one randomized DP instance. The problem data rides in a
// spec.File — the same wire shape dpsolve and dpserve consume — so every
// reproducer is directly replayable; Semiring selects the engine
// semiring for graph instances ("" means min-plus, the only choice the
// spec format itself expresses).
type Instance struct {
	File     spec.File `json:"spec"`
	Semiring string    `json:"semiring,omitempty"`
	Label    string    `json:"label,omitempty"` // generator note: shape class, weight class
}

// Kind returns the instance's problem kind.
func (in *Instance) Kind() string { return in.File.Problem }

// String renders a short human-readable identity for reports.
func (in *Instance) String() string {
	s := in.Semiring
	if s == "" {
		s = "min-plus"
	}
	return fmt.Sprintf("%s[%s] %s", in.Kind(), s, in.Label)
}

// GenConfig bounds the generator. The zero value selects defaults sized
// for fast per-instance checks (brute-force oracles stay feasible).
type GenConfig struct {
	MaxStages int // inner stages of graph / nodevalued instances; default 7
	MaxM      int // nodes (values) per stage; default 6
	MaxLen    int // dtw series length; default 12
	MaxChain  int // matrices in a chain-ordering instance; default 8
	MaxVars   int // variables of a nonserial chain; default 6
	MaxJobs   int // jobs of a knapsack instance; default 8
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxStages <= 1 {
		c.MaxStages = 7
	}
	if c.MaxM <= 0 {
		c.MaxM = 6
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 12
	}
	if c.MaxChain <= 1 {
		c.MaxChain = 8
	}
	if c.MaxVars <= 2 {
		c.MaxVars = 6
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 8
	}
	return c
}

// weight classes: every class yields integer-valued float64s so engine
// sums are exact in any association order (magnitudes stay far below
// 2^53 even after folding every edge of an instance).
const extremeWeight = 1e12

func genWeight(rng *rand.Rand, class int) float64 {
	switch class {
	case 0: // small signed
		return float64(rng.Intn(19) - 9)
	case 1: // zero-heavy (exercises ties and the semiring One)
		if rng.Intn(2) == 0 {
			return 0
		}
		return float64(rng.Intn(5))
	case 2: // extreme magnitudes (overflow-adjacent but exactly representable)
		sign := float64(1)
		if rng.Intn(2) == 0 {
			sign = -1
		}
		return sign * extremeWeight * float64(1+rng.Intn(4))
	default: // wide signed
		return float64(rng.Intn(2_000_001) - 1_000_000)
	}
}

func genSeries(rng *rand.Rand, n, class int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = genWeight(rng, class)
	}
	return xs
}

// Gen produces one random instance of a random kind.
func Gen(rng *rand.Rand, cfg GenConfig) *Instance {
	kinds := spec.Kinds()
	return GenKind(rng, kinds[rng.Intn(len(kinds))], cfg)
}

// GenKind produces one random instance of the given kind. It panics on
// an unknown kind (the caller controls the kind set).
func GenKind(rng *rand.Rand, kind string, cfg GenConfig) *Instance {
	k, ok := ops[kind]
	if !ok {
		panic(fmt.Sprintf("check: unknown instance kind %q", kind))
	}
	return k.gen(rng, cfg.withDefaults())
}

// genGraph produces a uniform multistage graph wrapped to single
// source/sink (the shape Designs 1–2 require), with occasional
// degenerate shapes: m=1 (single node per stage), the minimum stage
// count, and single-edge stages (all but one edge absent).
func genGraph(rng *rand.Rand, cfg GenConfig) *Instance {
	n := 2 + rng.Intn(cfg.MaxStages-1) // inner stages
	m := 1 + rng.Intn(cfg.MaxM)
	class := rng.Intn(4)
	label := fmt.Sprintf("n=%d m=%d w%d", n, m, class)
	switch rng.Intn(8) {
	case 0:
		m = 1
		label += " degenerate:m=1"
	case 1:
		n = 2
		label += " degenerate:n=2"
	}
	sr := semiring.Comparative(semiring.MinPlus{})
	srName := "min-plus"
	if rng.Intn(3) == 0 {
		sr, srName = semiring.MaxPlus{}, "max-plus"
	}
	inner := &multistage.Graph{}
	singleEdge := rng.Intn(8) == 0
	if singleEdge {
		label += " degenerate:single-edge"
	}
	for k := 0; k+1 < n; k++ {
		c := matrix.New(m, m, 0)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				c.Set(i, j, genWeight(rng, class))
			}
		}
		if singleEdge {
			// Keep exactly one finite edge per row so a path always exists.
			for i := 0; i < m; i++ {
				keep := rng.Intn(m)
				for j := 0; j < m; j++ {
					if j != keep {
						c.Set(i, j, sr.Zero())
					}
				}
			}
		}
		inner.Cost = append(inner.Cost, c)
	}
	inner.StageSizes = make([]int, n)
	for i := range inner.StageSizes {
		inner.StageSizes[i] = m
	}
	wrapped := multistage.SingleSourceSink(sr, inner)
	f, err := spec.FromGraph(wrapped, 1)
	if err != nil {
		panic(fmt.Sprintf("check: generated graph invalid: %v", err))
	}
	// Single-edge graphs carry semiring-Zero (±Inf) entries that the spec
	// wire format cannot express; those instances are engine-only.
	return &Instance{File: *f, Semiring: srName, Label: label}
}

// genNodeValued produces a node-valued instance. A quarter are ragged
// (stage sizes drawn independently): Design 3's array rejects them and
// core.Solve's sequential sweep serves them.
func genNodeValued(rng *rand.Rand, cfg GenConfig) *Instance {
	n := 2 + rng.Intn(cfg.MaxStages-1)
	m := 1 + rng.Intn(cfg.MaxM)
	if rng.Intn(8) == 0 {
		m = 1
	}
	ragged := rng.Intn(4) == 0
	names := sortedNames(multistage.PairCosts())
	name := names[rng.Intn(len(names))]
	// Keep values small: quadratic squares them and rise multiplies by 5;
	// small integers keep every engine sum exact.
	values := make([][]float64, n)
	for k := range values {
		mk := m
		if ragged {
			mk = 1 + rng.Intn(cfg.MaxM)
		}
		values[k] = make([]float64, mk)
		for i := range values[k] {
			values[k][i] = float64(rng.Intn(101) - 50)
		}
	}
	label := fmt.Sprintf("n=%d m=%d cost=%s", n, m, name)
	if ragged {
		label = fmt.Sprintf("n=%d ragged cost=%s", n, name)
	}
	return &Instance{
		File:  spec.File{Problem: "nodevalued", Values: values, Cost: name},
		Label: label,
	}
}

func genDTW(rng *rand.Rand, cfg GenConfig) *Instance {
	nx := 1 + rng.Intn(cfg.MaxLen)
	ny := 1 + rng.Intn(cfg.MaxLen)
	switch rng.Intn(8) {
	case 0:
		nx = 1
	case 1:
		ny = 1
	}
	class := rng.Intn(4)
	return &Instance{
		File: spec.File{
			Problem: "dtw",
			X:       genSeries(rng, nx, class),
			Y:       genSeries(rng, ny, class),
		},
		Label: fmt.Sprintf("|x|=%d |y|=%d w%d", nx, ny, class),
	}
}

// genAlign produces an affine-gap alignment instance. Unlike dtw, empty
// series are legal degenerates (all-gap alignments); gap penalties stay
// small integers so every engine sum is exact.
func genAlign(rng *rand.Rand, cfg GenConfig) *Instance {
	nx := 1 + rng.Intn(cfg.MaxLen)
	ny := 1 + rng.Intn(cfg.MaxLen)
	label := ""
	switch rng.Intn(8) {
	case 0:
		nx = 0
		label = " degenerate:empty-x"
	case 1:
		ny = 0
		label = " degenerate:empty-y"
	case 2:
		nx, ny = 0, 0
		label = " degenerate:empty-both"
	}
	class := rng.Intn(4)
	return &Instance{
		File: spec.File{
			Problem:   "align",
			X:         genSeries(rng, nx, class),
			Y:         genSeries(rng, ny, class),
			GapOpen:   float64(rng.Intn(6)),
			GapExtend: float64(rng.Intn(4)),
		},
		Label: fmt.Sprintf("|x|=%d |y|=%d w%d%s", nx, ny, class, label),
	}
}

// genViterbi produces a trellis instance on the node/transition wire
// form (Values = stage node costs, Costs = transition matrices).
// Roughly half are uniform (the shape the Design-3 feedback array
// accepts) and ~1/8 are single-stage degenerates (no transitions).
func genViterbi(rng *rand.Rand, cfg GenConfig) *Instance {
	n := 2 + rng.Intn(cfg.MaxStages-1)
	uniform := rng.Intn(2) == 0
	label := ""
	if rng.Intn(8) == 0 {
		n = 1
		label = " degenerate:single-stage"
	}
	class := rng.Intn(4)
	sizes := make([]int, n)
	m := 1 + rng.Intn(cfg.MaxM)
	for k := range sizes {
		if uniform {
			sizes[k] = m
		} else {
			sizes[k] = 1 + rng.Intn(cfg.MaxM)
		}
	}
	values := make([][]float64, n)
	for k := range values {
		values[k] = genSeries(rng, sizes[k], class)
	}
	var trans [][][]float64
	for k := 0; k+1 < n; k++ {
		blk := make([][]float64, sizes[k])
		for i := range blk {
			blk[i] = genSeries(rng, sizes[k+1], class)
		}
		trans = append(trans, blk)
	}
	return &Instance{
		File:  spec.File{Problem: "viterbi", Values: values, Costs: trans},
		Label: fmt.Sprintf("n=%d uniform=%v w%d%s", n, uniform, class, label),
	}
}

// genKnapsack produces a weighted-deadline scheduling instance with
// degenerate shapes: no jobs, all-zero weights, and zero-length jobs
// (P=0 occurs naturally in the processing-time range).
func genKnapsack(rng *rand.Rand, cfg GenConfig) *Instance {
	n := 1 + rng.Intn(cfg.MaxJobs)
	label := ""
	zeroWeight := false
	switch rng.Intn(8) {
	case 0:
		n = 0
		label = " degenerate:no-jobs"
	case 1:
		zeroWeight = true
		label = " degenerate:zero-weights"
	}
	proc := make([]int, n)
	due := make([]int, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		proc[i] = rng.Intn(6)
		due[i] = rng.Intn(16)
		if !zeroWeight {
			weights[i] = float64(rng.Intn(10))
		}
	}
	return &Instance{
		File:  spec.File{Problem: "knapsack", Proc: proc, Due: due, Weights: weights},
		Label: fmt.Sprintf("n=%d%s", n, label),
	}
}

func genChain(rng *rand.Rand, cfg GenConfig) *Instance {
	n := 1 + rng.Intn(cfg.MaxChain) // matrices
	if rng.Intn(8) == 0 {
		n = 1
	}
	dims := make([]int, n+1)
	for i := range dims {
		dims[i] = 1 + rng.Intn(30)
	}
	if rng.Intn(8) == 0 {
		for i := range dims {
			dims[i] = 1
		}
	}
	return &Instance{
		File:  spec.File{Problem: "chain", Dims: dims},
		Label: fmt.Sprintf("n=%d", n),
	}
}

func genNonserial(rng *rand.Rand, cfg GenConfig) *Instance {
	n := 3 + rng.Intn(cfg.MaxVars-2)
	names := sortedNames(spec.TernaryCosts())
	name := names[rng.Intn(len(names))]
	uniform := rng.Intn(2) == 0
	m := 1 + rng.Intn(4)
	domains := make([][]float64, n)
	for i := range domains {
		sz := m
		if !uniform {
			sz = 1 + rng.Intn(4)
		}
		domains[i] = make([]float64, sz)
		for j := range domains[i] {
			domains[i][j] = float64(rng.Intn(41) - 20)
		}
	}
	return &Instance{
		File:  spec.File{Problem: "nonserial", Domains: domains, Cost: name},
		Label: fmt.Sprintf("n=%d uniform=%v cost=%s", n, uniform, name),
	}
}

// sortedNames returns a cost table's names in order, so a seed draws the
// same cost every run.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
