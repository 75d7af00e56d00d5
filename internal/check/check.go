package check

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"systolicdp/internal/bcastarray"
	"systolicdp/internal/core"
	"systolicdp/internal/dtw"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/matchain"
	"systolicdp/internal/matrix"
	"systolicdp/internal/metrics"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
	"systolicdp/internal/spec"
	"systolicdp/internal/systolic"
)

// Mismatch is one observed disagreement: two engines (or an engine and a
// closed-form invariant) produced different answers for the same
// instance.
type Mismatch struct {
	Instance *Instance
	Field    string // "result", "path", "cycles", "busy", "invariant"
	Engines  string // the disagreeing pair, e.g. "pipe-lockstep vs pipe-goroutines"
	Detail   string
}

// Error renders the mismatch as a one-line report.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("%s: %s (%s): %s", m.Instance, m.Field, m.Engines, m.Detail)
}

// DefaultWorkers are the worker counts the oracle runs the concurrent
// chain-ordering wavefront (matchain.Wavefront) at by default; a value
// <= 0 is replaced by runtime.NumCPU() at check time (see
// Options.Workers in run.go).
var DefaultWorkers = []int{1, 2, -1}

// checker accumulates mismatches and comparison counts for one instance.
type checker struct {
	inst    *Instance
	workers []int // chain-ordering wavefront worker counts
	combos  int
	ms      []*Mismatch
}

func (c *checker) addf(field, engines, format string, args ...any) {
	c.ms = append(c.ms, &Mismatch{
		Instance: c.inst,
		Field:    field,
		Engines:  engines,
		Detail:   fmt.Sprintf(format, args...),
	})
}

// eqF is bitwise float equality with NaN never equal to anything —
// generated weights are integer-valued, so agreeing engines agree
// exactly.
func eqF(a, b float64) bool { return a == b }

func (c *checker) cmpScalar(field, engines string, a, b float64) {
	c.combos++
	if !eqF(a, b) {
		c.addf(field, engines, "%v != %v", a, b)
	}
}

func (c *checker) cmpVec(field, engines string, a, b []float64) {
	c.combos++
	if len(a) != len(b) {
		c.addf(field, engines, "length %d != %d", len(a), len(b))
		return
	}
	for i := range a {
		if !eqF(a[i], b[i]) {
			c.addf(field, engines, "[%d]: %v != %v", i, a[i], b[i])
			return
		}
	}
}

func (c *checker) cmpInts(field, engines string, a, b []int) {
	c.combos++
	if len(a) != len(b) {
		c.addf(field, engines, "length %d != %d", len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			c.addf(field, engines, "[%d]: %d != %d", i, a[i], b[i])
			return
		}
	}
}

func (c *checker) cmpInt(field, engines string, a, b int) {
	c.combos++
	if a != b {
		c.addf(field, engines, "%d != %d", a, b)
	}
}

// Check runs the instance through every applicable engine/design
// combination and returns the mismatches found, together with the number
// of comparisons performed.
func Check(inst *Instance, workers []int) (mismatches []*Mismatch, combos int) {
	if len(workers) == 0 {
		workers = DefaultWorkers
	}
	ws := make([]int, 0, len(workers))
	seen := map[int]bool{}
	for _, w := range workers {
		if w <= 0 {
			w = runtime.NumCPU()
		}
		if !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	c := &checker{inst: inst, workers: ws}
	if k, ok := ops[inst.Kind()]; ok {
		k.check(c)
	} else {
		c.addf("invariant", "generator", "unknown kind %q", inst.Kind())
	}
	return c.ms, c.combos
}

// graph reconstructs the multistage graph an instance's spec carries.
func (in *Instance) graph() (*multistage.Graph, error) {
	if in.Kind() != "graph" {
		return nil, fmt.Errorf("check: not a graph instance")
	}
	g := &multistage.Graph{}
	for si, rows := range in.File.Costs {
		if len(rows) == 0 || len(rows[0]) == 0 {
			return nil, fmt.Errorf("check: stage %d empty", si)
		}
		for ri, r := range rows {
			if len(r) != len(rows[0]) {
				return nil, fmt.Errorf("check: stage %d row %d ragged (%d entries, want %d)",
					si, ri, len(r), len(rows[0]))
			}
		}
		m := matrix.FromRows(rows)
		g.Cost = append(g.Cost, m)
		if si == 0 {
			g.StageSizes = append(g.StageSizes, m.Rows)
		}
		g.StageSizes = append(g.StageSizes, m.Cols)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (in *Instance) comparative() (semiring.Comparative, string) {
	if in.Semiring == "max-plus" {
		return semiring.MaxPlus{}, "max-plus"
	}
	return semiring.MinPlus{}, "min-plus"
}

// hasNonFinite reports whether any cost matrix entry is ±Inf or NaN
// (single-edge degenerate graphs carry semiring-Zero entries the spec
// wire format cannot express — those skip the spec round-trip check).
func hasNonFinite(g *multistage.Graph) bool {
	for _, m := range g.Cost {
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if v := m.At(i, j); math.IsInf(v, 0) || math.IsNaN(v) {
					return true
				}
			}
		}
	}
	return false
}

// checkGraph is the Designs-1/2 oracle: the sequential baselines, the
// pipelined array, the broadcast array, the streamed array, and the
// serving entry points must all report the same optimum; cycle counts
// and per-PE busy totals must match the paper's closed forms; and both
// runners (lock-step and goroutine-per-PE) must be bit-identical.
func (c *checker) checkGraph() {
	g, err := c.inst.graph()
	if err != nil {
		c.addf("invariant", "generator", "graph rebuild: %v", err)
		return
	}
	s, srName := c.inst.comparative()

	// Sequential baselines agree among themselves.
	base := multistage.SolveOptimal(s, g)
	if pathCost, err := g.CostOf(s, base.Nodes); err != nil {
		c.addf("path", "seq-baseline", "invalid optimal path: %v", err)
	} else {
		c.cmpScalar("path", "seq-baseline cost vs CostOf(path)", base.Cost, pathCost)
	}
	brute := multistage.BruteForce(s, g)
	c.cmpScalar("result", "seq-baseline vs brute-force", base.Cost, brute.Cost)
	c.cmpScalar("result", "seq-baseline vs forward-sweep",
		base.Cost, semiring.Fold(s, multistage.SolveForward(s, g)))
	c.cmpScalar("result", "seq-baseline vs backward-sweep",
		base.Cost, semiring.Fold(s, multistage.SolveBackward(s, g)))

	// The matrix-string form of the same search (equation (8)).
	mats := g.Matrices()
	k := len(mats)
	if k < 2 || mats[k-1].Cols != 1 {
		c.addf("invariant", "generator", "graph not single-sink wrapped")
		return
	}
	ms, v := mats[:k-1], mats[k-1].Col(0)
	ref := matrix.ChainVec(s, ms, v)
	c.cmpScalar("result", "seq-baseline vs chain-vec", base.Cost, semiring.Fold(s, ref))

	m := len(v)
	c.checkPipearray(s, ms, v, ref, g)
	c.checkBcastarray(s, ms, v, ref)
	if srName == "min-plus" {
		c.checkStream(ms, v, ref, g, base.Cost)
		if !hasNonFinite(g) {
			c.checkSpecRoundTrip(g, base.Cost)
		}
	}
	c.checkSemiringSweep(g)

	// Closed forms: an (N+1)-stage wrapped graph with m nodes per
	// intermediate stage takes N*m iterations on Designs 1-2 (N*m - 1
	// wall cycles for Design 1 including skew), and its processor
	// utilization obeys equation (9).
	n := g.Stages() - 1
	pu := metrics.PU(metrics.SerialItersGraph(n, m), n*m, m)
	pu9 := metrics.PUEq9(n, m)
	c.combos++
	if math.Abs(pu-pu9) > 1e-12*math.Max(1, math.Abs(pu9)) {
		c.addf("invariant", "PU vs eq(9)", "PU=%v, closed form %v (n=%d m=%d)", pu, pu9, n, m)
	}
}

func (c *checker) checkPipearray(s semiring.Comparative, ms []*matrix.Matrix, v, ref []float64, g *multistage.Graph) {
	build := func() (*pipearray.Array, error) { return pipearray.NewSemiring(s, ms, v) }
	a, err := build()
	if err != nil {
		c.addf("result", "pipe-build", "%v", err)
		return
	}
	n := g.Stages() - 1
	c.cmpInt("cycles", "pipe wall cycles vs paper N*m-1", a.WallCycles(), n*len(v)-1)
	c.cmpInt("cycles", "pipe iterations vs paper K*m", a.Iterations(), a.K*a.M)

	type run struct {
		name string
		out  []float64
		res  *systolicResult
	}
	var runs []run
	addRun := func(name string, out []float64, cycles int, busy []int, err error) {
		if err != nil {
			c.addf("result", name, "run failed: %v", err)
			return
		}
		runs = append(runs, run{name: name, out: out, res: &systolicResult{Cycles: cycles, Busy: busy}})
	}

	out, res, err := a.Run(false)
	addRun("pipe-lockstep", out, resCycles(res), resBusy(res), err)
	if err == nil {
		// Re-run determinism: RunObserved resets the network first, so a
		// second run of the same array must be bit-identical (the contract
		// the serving layer's array reuse depends on).
		out2, res2, err2 := a.Run(false)
		if err2 != nil {
			c.addf("result", "pipe-rerun", "second run failed: %v", err2)
		} else {
			c.cmpVec("result", "pipe-lockstep vs pipe-rerun", out, out2)
			c.cmpInt("cycles", "pipe-lockstep vs pipe-rerun", resCycles(res), resCycles(res2))
			c.cmpInts("busy", "pipe-lockstep vs pipe-rerun", resBusy(res), resBusy(res2))
		}
	}
	ag, err := build()
	if err == nil {
		out, res, err := ag.Run(true)
		addRun("pipe-goroutines", out, resCycles(res), resBusy(res), err)
	}

	if len(runs) == 0 {
		return
	}
	c.cmpVec("result", "pipe-lockstep vs chain-vec", runs[0].out, ref)
	for _, r := range runs[1:] {
		c.cmpVec("result", "pipe-lockstep vs "+r.name, runs[0].out, r.out)
		c.cmpInt("cycles", "pipe-lockstep vs "+r.name, runs[0].res.Cycles, r.res.Cycles)
		c.cmpInts("busy", "pipe-lockstep vs "+r.name, runs[0].res.Busy, r.res.Busy)
	}
	// Every PE performs exactly K*m useful iterations (the paper's count).
	for pe, b := range runs[0].res.Busy {
		c.combos++
		if b != a.Iterations() {
			c.addf("busy", "pipe-lockstep vs iteration closed form",
				"PE %d busy %d, want %d", pe, b, a.Iterations())
			break
		}
	}
}

func (c *checker) checkBcastarray(s semiring.Comparative, ms []*matrix.Matrix, v, ref []float64) {
	a, err := bcastarray.NewSemiring(s, ms, v)
	if err != nil {
		c.addf("result", "bcast-build", "%v", err)
		return
	}
	c.cmpInt("cycles", "bcast wall cycles vs paper K*m", a.WallCycles(), a.K*a.M)

	outSeq, busySeq := a.RunLockstep()
	c.cmpVec("result", "bcast-lockstep vs chain-vec", outSeq, ref)
	out2, busy2 := a.RunLockstep()
	c.cmpVec("result", "bcast-lockstep vs bcast-rerun", outSeq, out2)
	c.cmpInts("busy", "bcast-lockstep vs bcast-rerun", busySeq, busy2)
	outG, busyG := a.RunGoroutines()
	c.cmpVec("result", "bcast-lockstep vs bcast-goroutines", outSeq, outG)
	c.cmpInts("busy", "bcast-lockstep vs bcast-goroutines", busySeq, busyG)
	// Design 2 keeps every PE busy every iteration.
	for pe, b := range busySeq {
		c.combos++
		if b != a.Iterations() {
			c.addf("busy", "bcast-lockstep vs iteration closed form",
				"PE %d busy %d, want %d", pe, b, a.Iterations())
			break
		}
	}
}

// checkStream cross-checks the streamed (batched) Design-1 array against
// the one-shot array, for a single instance and for a duplicated batch,
// under both runners, and the batch kernel dpserve runs against the
// sequential baseline.
func (c *checker) checkStream(ms []*matrix.Matrix, v, ref []float64, g *multistage.Graph, baseCost float64) {
	one := pipearray.StreamProblem{Ms: ms, V: v}
	for _, b := range []int{1, 3} {
		problems := make([]pipearray.StreamProblem, b)
		for i := range problems {
			problems[i] = one
		}
		st, err := pipearray.NewStream(problems)
		if err != nil {
			c.addf("result", "stream-build", "%v", err)
			return
		}
		outs, _, err := st.RunObserved(false)
		if err != nil {
			c.addf("result", "stream-lockstep", "%v", err)
			return
		}
		for i, out := range outs {
			c.cmpVec("result", fmt.Sprintf("stream-lockstep[b=%d,i=%d] vs chain-vec", b, i), out, ref)
		}
		stg, err := pipearray.NewStream(problems)
		if err == nil {
			goOuts, _, err := stg.RunObserved(true)
			if err != nil {
				c.addf("result", "stream-goroutines", "%v", err)
			} else {
				for i := range goOuts {
					c.cmpVec("result", fmt.Sprintf("stream-lockstep vs stream-goroutines[b=%d,i=%d]", b, i),
						outs[i], goOuts[i])
				}
			}
		}
	}
	// The batch kernel dpserve runs.
	p := &core.MultistageProblem{Graph: g, Design: 1}
	sols, err := core.GraphStreamKernel{}.Solve([]core.Problem{p, p})
	if err != nil {
		c.addf("result", "core-batch", "%v", err)
		return
	}
	for i, sol := range sols {
		c.cmpScalar("result", fmt.Sprintf("seq-baseline vs core-batch[i=%d]", i), baseCost, sol.Cost)
	}
}

// checkSpecRoundTrip drives the full serving wire path: encode the graph
// as a spec, re-parse it, and solve through core.Solve for Designs 0-2.
func (c *checker) checkSpecRoundTrip(g *multistage.Graph, baseCost float64) {
	for design := 0; design <= 2; design++ {
		f, err := spec.FromGraph(g, design)
		if err != nil {
			c.addf("result", "spec-encode", "design %d: %v", design, err)
			continue
		}
		if sol := c.solveSpec(fmt.Sprintf("graph[design=%d]", design), f); sol != nil {
			c.cmpScalar("result", fmt.Sprintf("seq-baseline vs spec-roundtrip[design=%d]", design),
				baseCost, sol.Cost)
		}
	}
}

// checkSemiringSweep re-checks the forward/backward sweep agreement over
// all four semirings on a sanitized copy of the graph (weights mapped
// into each semiring's domain), the "multistage graphs over all four
// semirings" obligation.
func (c *checker) checkSemiringSweep(g *multistage.Graph) {
	for _, s := range semiring.All() {
		gg := &multistage.Graph{StageSizes: g.StageSizes}
		for _, mm := range g.Cost {
			nm := matrix.New(mm.Rows, mm.Cols, 0)
			for i := 0; i < mm.Rows; i++ {
				for j := 0; j < mm.Cols; j++ {
					nm.Set(i, j, sanitizeWeight(s, mm.At(i, j)))
				}
			}
			gg.Cost = append(gg.Cost, nm)
		}
		fwd := semiring.Fold(s, multistage.SolveForward(s, gg))
		bwd := semiring.Fold(s, multistage.SolveBackward(s, gg))
		c.cmpScalar("result", fmt.Sprintf("forward vs backward sweep (%s)", s.Name()), fwd, bwd)
	}
}

// sanitizeWeight maps an arbitrary generated weight into a small value
// meaningful for the given semiring: 0/1 for the Boolean semiring, small
// non-negative integers for (+,x) so products of path sums stay exact,
// and the weight itself for the tropical semirings.
func sanitizeWeight(s semiring.Semiring, w float64) float64 {
	switch s.(type) {
	case semiring.BoolOrAnd:
		if int64(math.Abs(math.Mod(w, 1e6)))%2 == 1 {
			return 1
		}
		return 0
	case semiring.PlusTimes:
		return float64(int64(math.Abs(math.Mod(w, 1e6)))%3) + 1
	default:
		if math.IsInf(w, 0) {
			return w // semiring Zero of the tropical instance stays absent
		}
		// Clamp extremes so even (MAX,+) path sums stay exactly
		// representable in the sweep.
		return math.Mod(w, 1e9)
	}
}

// checkNodeValued is the Design-3 oracle: the elimination baseline, the
// expanded-graph baseline, the feedback array under both runners (uniform
// instances only) and the served spec must agree on cost, and the array
// and the served answer must return the sweep's path.
func (c *checker) checkNodeValued() {
	name := cmp.Or(c.inst.File.Cost, "absdiff")
	cf, ok := spec.PairCosts()[name]
	if !ok {
		c.addf("invariant", "generator", "unknown pair cost %q", name)
		return
	}
	p := &multistage.NodeValued{Values: c.inst.File.Values, F: cf}
	if err := p.Validate(); err != nil {
		c.addf("invariant", "generator", "invalid nodevalued: %v", err)
		return
	}
	for _, s := range []semiring.Comparative{semiring.MinPlus{}, semiring.MaxPlus{}} {
		c.checkNodeValuedSemiring(p, s)
	}
	// The serving wire path: core.Solve must return the min-plus sweep's
	// cost bit for bit and its path index by index.
	if sol := c.solveSpec("nv", &c.inst.File); sol != nil {
		base := p.SolvePath(semiring.MinPlus{})
		c.cmpScalar("result", "nv-baseline vs spec-roundtrip", base.Cost, sol.Cost)
		c.cmpInts("path", "nv-baseline vs spec-roundtrip", base.Nodes, sol.Path)
	}
}

// solveSpec drives the serving wire path for a spec: marshal it, decode
// it as the serving tiers do, diff the decoded File and its cache key
// against encoding/json, and solve it through core.Solve. A failing step
// is recorded as a mismatch under prefix and yields nil.
func (c *checker) solveSpec(prefix string, f *spec.File) *core.Solution {
	data, err := f.Marshal()
	if err != nil {
		c.addf("result", prefix+"-spec-marshal", "%v", err)
		return nil
	}
	got, err := spec.Decode(data)
	if err != nil {
		c.addf("result", prefix+"-spec-decode", "%v", err)
		return nil
	}
	c.checkWire(prefix, data, got)
	p, err := got.Build()
	if err != nil {
		c.addf("result", prefix+"-spec-build", "%v", err)
		return nil
	}
	sol, err := core.Solve(p)
	if err != nil {
		c.addf("result", prefix+"-core-solve", "%v", err)
		return nil
	}
	return sol
}

// checkWire compares spec.Decode's File with json.Unmarshal's, every
// float bit for bit and nil apart from empty (both show in %#v), and
// File.Hash with the hex SHA-256 of json.Marshal(Canonical()), the cache
// key's definition. It also decodes that canonical form again: the key
// must survive the wire, since a cache keyed on raw bodies would rest on
// it.
func (c *checker) checkWire(prefix string, data []byte, got *spec.File) {
	var want spec.File
	if err := json.Unmarshal(data, &want); err != nil {
		c.addf("result", prefix+"-json-unmarshal", "%v", err)
		return
	}
	c.combos++
	if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", want); g != w {
		c.addf("result", prefix+"-spec-decode vs json.Unmarshal", "%s != %s", g, w)
	}
	canon, err := json.Marshal(got.Canonical())
	if err != nil {
		c.addf("result", prefix+"-json-marshal", "%v", err)
		return
	}
	sum := sha256.Sum256(canon)
	key, err := got.Hash()
	c.combos++
	if want := hex.EncodeToString(sum[:]); err != nil || key != want {
		c.addf("result", prefix+"-spec-hash vs json.Marshal", "%s (%v) != %s", key, err, want)
	}
	again, err := spec.Decode(canon)
	if err != nil {
		c.addf("result", prefix+"-canonical-decode", "%v", err)
		return
	}
	rekey, err := again.Hash()
	c.combos++
	if err != nil || rekey != key {
		c.addf("result", prefix+"-spec-hash vs canonical round trip", "%s (%v) != %s", rekey, err, key)
	}
}

// pathObjective recomputes the node-valued objective along a path of
// value indices.
func pathObjective(p *multistage.NodeValued, path []int) (float64, error) {
	if len(path) != p.Stages() {
		return 0, fmt.Errorf("path has %d stages, want %d", len(path), p.Stages())
	}
	total := 0.0
	for k := 0; k+1 < len(path); k++ {
		if path[k] < 0 || path[k] >= len(p.Values[k]) {
			return 0, fmt.Errorf("stage %d index %d out of range", k, path[k])
		}
		total += p.F(p.Values[k][path[k]], p.Values[k+1][path[k+1]])
	}
	last := len(path) - 1
	if path[last] < 0 || path[last] >= len(p.Values[last]) {
		return 0, fmt.Errorf("stage %d index %d out of range", last, path[last])
	}
	return total, nil
}

func (c *checker) checkNodeValuedSemiring(p *multistage.NodeValued, s semiring.Comparative) {
	srName := s.Name()
	base := p.SolvePath(s)
	if obj, err := pathObjective(p, base.Nodes); err != nil {
		c.addf("path", "nv-baseline ("+srName+")", "invalid path: %v", err)
	} else {
		c.cmpScalar("path", "nv-baseline cost vs objective(path) ("+srName+")", base.Cost, obj)
	}
	c.cmpScalar("result", "nv-baseline vs elimination ("+srName+")", base.Cost, p.Solve(s))
	expanded := multistage.SolveOptimal(s, p.Expand())
	c.cmpScalar("result", "nv-baseline vs expanded-graph ("+srName+")", base.Cost, expanded.Cost)
	// Design 3's array needs the same number of values in every stage.
	if _, uniform := p.Uniform(); !uniform {
		return
	}

	build := func() (*fbarray.Array, error) { return fbarray.NewSemiring(s, p) }
	a, err := build()
	if err != nil {
		c.addf("result", "fb-build ("+srName+")", "%v", err)
		return
	}
	// The paper's (N+1)*m iteration count is executed literally: the run
	// is given exactly Iterations() cycles and must observe the final
	// comparison token within them.
	c.cmpInt("cycles", "fb iterations vs paper (N+1)*m", a.Iterations(), (p.Stages()+1)*len(p.Values[0]))

	type fbrun struct {
		name string
		res  *fbarray.Result
	}
	var runs []fbrun
	addRun := func(name string, res *fbarray.Result, err error) {
		if err != nil {
			c.addf("result", name, "run failed: %v", err)
			return
		}
		runs = append(runs, fbrun{name, res})
	}
	res, err := a.Run(false)
	addRun("fb-lockstep ("+srName+")", res, err)
	if err == nil {
		res2, err2 := a.Run(false)
		if err2 != nil {
			c.addf("result", "fb-rerun ("+srName+")", "second run failed: %v", err2)
		} else {
			c.cmpScalar("result", "fb-lockstep vs fb-rerun ("+srName+")", res.Cost, res2.Cost)
			c.cmpInts("path", "fb-lockstep vs fb-rerun ("+srName+")", res.Path, res2.Path)
			c.cmpInts("busy", "fb-lockstep vs fb-rerun ("+srName+")", res.Busy, res2.Busy)
		}
	}
	ag, err := build()
	if err == nil {
		res, err := ag.Run(true)
		addRun("fb-goroutines ("+srName+")", res, err)
	}
	if len(runs) == 0 {
		return
	}
	for _, r := range runs {
		c.cmpScalar("result", "nv-baseline vs "+r.name, base.Cost, r.res.Cost)
		if obj, err := pathObjective(p, r.res.Path); err != nil {
			c.addf("path", r.name, "invalid path: %v", err)
		} else {
			c.cmpScalar("path", r.name+" cost vs objective(path)", r.res.Cost, obj)
		}
	}
	c.cmpInts("path", "nv-baseline vs "+runs[0].name, base.Nodes, runs[0].res.Path)
	for _, r := range runs[1:] {
		c.cmpInts("busy", runs[0].name+" vs "+r.name, runs[0].res.Busy, r.res.Busy)
		c.cmpInts("path", runs[0].name+" vs "+r.name, runs[0].res.Path, r.res.Path)
	}
}

// checkDTW cross-checks the sequential DTW sweep, with the nil
// distance core.Solve passes, against the anti-diagonal systolic array
// under both runners, asserts the n+m-1 wavefront cycle count, uses the
// symmetry of the lattice (DTW(x,y) == DTW(y,x) for a symmetric
// distance) as a metamorphic invariant against the array built on x,
// and diffs the serving wire path.
func (c *checker) checkDTW() {
	x, y := c.inst.File.X, c.inst.File.Y
	seq, err := dtw.Sequential(x, y, nil)
	if err != nil {
		c.addf("result", "dtw-sequential", "%v", err)
		return
	}
	a, err := dtw.New(y, dtw.AbsDist)
	if err != nil {
		c.addf("result", "dtw-build", "%v", err)
		return
	}
	lock, cyc, err := a.Match(x, false)
	if err != nil {
		c.addf("result", "dtw-lockstep", "%v", err)
		return
	}
	c.cmpScalar("result", "dtw-sequential vs dtw-lockstep", seq, lock)
	c.cmpInt("cycles", "dtw wall cycles vs paper n+m-1", cyc, len(x)+len(y)-1)
	gor, gcyc, err := a.Match(x, true)
	if err != nil {
		c.addf("result", "dtw-goroutines", "%v", err)
		return
	}
	c.cmpScalar("result", "dtw-lockstep vs dtw-goroutines", lock, gor)
	c.cmpInt("cycles", "dtw-lockstep vs dtw-goroutines", cyc, gcyc)
	// The symmetric arm runs the array with the series' roles swapped:
	// Sequential transposes to the shorter side itself, so
	// Sequential(y, x) would repeat seq's sweep on every non-square
	// lattice.
	if r, err := dtw.New(x, dtw.AbsDist); err == nil {
		if sym, _, err := r.Match(y, false); err == nil {
			c.cmpScalar("result", "dtw(x,y) vs dtw-lockstep(y,x) symmetry", seq, sym)
		}
	}
	if sol := c.solveSpec("dtw", &c.inst.File); sol != nil {
		c.cmpScalar("result", "dtw-sequential vs spec-roundtrip", seq, sol.Cost)
	}
}

// checkChain cross-checks the chain-ordering DP against the concurrent
// wavefront evaluation, the AND/OR-graph engine mapping, the two timed
// Section-6.2 simulators, and (for small instances) brute force.
func (c *checker) checkChain() {
	dims := c.inst.File.Dims
	tab, err := matchain.DP(dims)
	if err != nil {
		c.addf("result", "chain-dp", "%v", err)
		return
	}
	best := tab.OptimalCost()
	c.cmpScalar("result", "chain-dp cost vs MultiplyCost(parenthesization)", best, tab.MultiplyCost())
	for _, w := range c.workers {
		wt, err := matchain.Wavefront(dims, w)
		if err != nil {
			c.addf("result", fmt.Sprintf("chain-wavefront-w%d", w), "%v", err)
			continue
		}
		c.cmpScalar("result", fmt.Sprintf("chain-dp vs chain-wavefront-w%d", w), best, wt.OptimalCost())
	}
	if n := len(dims) - 1; n <= 8 {
		bf, err := matchain.BruteForce(dims)
		if err != nil {
			c.addf("result", "chain-bruteforce", "%v", err)
		} else {
			c.cmpScalar("result", "chain-dp vs chain-bruteforce", best, bf)
		}
	}
	if n := len(dims) - 1; n >= 2 {
		er, err := matchain.SolveOnEngine(dims)
		if err != nil {
			c.addf("result", "chain-engine", "%v", err)
		} else {
			c.cmpScalar("result", "chain-dp vs chain-engine", best, er.Cost)
		}
		for name, sim := range map[string]func([]int) (*matchain.TimingResult, error){
			"chain-bus":      matchain.SimulateBus,
			"chain-systolic": matchain.SimulateSystolic,
		} {
			tr, err := sim(dims)
			if err != nil {
				c.addf("result", name, "%v", err)
				continue
			}
			c.cmpScalar("result", "chain-dp vs "+name, best, tr.Cost)
		}
	}
	c.checkChainFast(tab)
	if sol := c.solveSpec("chain", &c.inst.File); sol != nil {
		c.cmpScalar("result", "chain-dp vs spec-roundtrip", best, sol.Cost)
	}
}

// checkNonserial cross-checks direct elimination of the ternary chain
// against brute force, the grouped serial transformations (equation
// (41)), and — for uniform domains — the Design-3 feedback array run on
// the grouped problem.
func (c *checker) checkNonserial() {
	name := cmp.Or(c.inst.File.Cost, "default")
	gf, ok := spec.TernaryCosts()[name]
	if !ok {
		c.addf("invariant", "generator", "unknown ternary cost %q", name)
		return
	}
	ch := &nonserial.Chain3{Domains: c.inst.File.Domains, G: gf}
	if err := ch.Validate(); err != nil {
		c.addf("invariant", "generator", "invalid chain3: %v", err)
		return
	}
	elim, steps, err := ch.Eliminate()
	if err != nil {
		c.addf("result", "ns-eliminate", "%v", err)
		return
	}
	c.cmpInt("invariant", "ns-eliminate steps vs eq(40)", steps, ch.StepsEq40())
	c.checkNonserialFast(ch, name, elim, steps)
	if sol := c.solveSpec("ns", &c.inst.File); sol != nil {
		c.cmpScalar("result", "ns-eliminate vs spec-roundtrip", elim, sol.Cost)
	}
	total := 1
	for _, d := range ch.Domains {
		total *= len(d)
		if total > 1<<14 {
			break
		}
	}
	if total <= 1<<14 {
		_, bf, err := ch.AsProblem().BruteForce()
		if err != nil {
			c.addf("result", "ns-bruteforce", "%v", err)
		} else {
			c.cmpScalar("result", "ns-eliminate vs ns-bruteforce", elim, bf)
		}
	}
	gg, err := ch.GroupToGraph()
	if err != nil {
		c.addf("result", "ns-group-graph", "%v", err)
	} else {
		c.cmpScalar("result", "ns-eliminate vs ns-grouped-graph",
			elim, multistage.SolveOptimal(semiring.MinPlus{}, gg).Cost)
	}
	if ch.UniformDomains() {
		nv, err := ch.GroupToSerial()
		if err != nil {
			c.addf("result", "ns-group-serial", "%v", err)
			return
		}
		c.cmpScalar("result", "ns-eliminate vs ns-grouped-elimination",
			elim, nv.Solve(semiring.MinPlus{}))
		a, err := fbarray.New(nv)
		if err != nil {
			c.addf("result", "ns-fb-build", "%v", err)
			return
		}
		if res, err := a.Run(false); err != nil {
			c.addf("result", "ns-fb-lockstep", "%v", err)
		} else {
			c.cmpScalar("result", "ns-eliminate vs ns-fb-lockstep", elim, res.Cost)
		}
		if res, err := a.Run(true); err != nil {
			c.addf("result", "ns-fb-goroutines", "%v", err)
		} else {
			c.cmpScalar("result", "ns-eliminate vs ns-fb-goroutines", elim, res.Cost)
		}
	}
}

// systolicResult is the runner-shape-agnostic slice of an engine result
// the oracle compares.
type systolicResult struct {
	Cycles int
	Busy   []int
}

func resCycles(r *systolic.Result) int {
	if r == nil {
		return -1
	}
	return r.Cycles
}

func resBusy(r *systolic.Result) []int {
	if r == nil {
		return nil
	}
	return r.Busy
}
