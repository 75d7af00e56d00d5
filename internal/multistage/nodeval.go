package multistage

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"systolicdp/internal/arena"
	"systolicdp/internal/matrix"
	"systolicdp/internal/semiring"
)

// CostFunc computes the cost of the edge between a value x in stage k and a
// value y in stage k+1. The paper's Design 3 (Figure 5) assumes f is
// independent of the stage index; stage-dependent costs are still accepted
// here for the baselines.
type CostFunc func(x, y float64) float64

// NodeValued is the serial optimisation problem of equation (4):
// min over assignments of sum_k f(X_k, X_{k+1}), where Values[k] holds the
// quantized values the variable of stage k may take (Figure 1(b)). Edge
// costs are functions of the node values, which is what gives Design 3 its
// order-of-magnitude input-bandwidth reduction (Section 3.2).
type NodeValued struct {
	Values [][]float64
	F      CostFunc
	// stage is F's stage loop with the cost written inline, which Named
	// takes from the same pairCosts entry as F; nil means SolveMinPlus
	// calls F through its func value.
	stage stageLoop
}

// Named returns the problem over values whose pair cost is the built-in
// cost called name (CostAbsDiff, CostQuadratic or CostRise), and false
// if no built-in cost has that name. Its SolveMinPlus runs the cost's
// stage loop, with the cost written inline, so its F must stay the one
// Named set.
func Named(values [][]float64, name string) (*NodeValued, bool) {
	c, ok := pairCosts[name]
	if !ok {
		return nil, false
	}
	return &NodeValued{Values: values, F: c.f, stage: c.stage}, true
}

// PairCosts returns the built-in pair costs by name.
func PairCosts() map[string]CostFunc {
	m := make(map[string]CostFunc, len(pairCosts))
	for name, c := range pairCosts {
		m[name] = c.f
	}
	return m
}

// Validate checks that the problem has at least two stages, every stage is
// nonempty, and a cost function is present.
func (p *NodeValued) Validate() error {
	if len(p.Values) < 2 {
		return fmt.Errorf("multistage: node-valued problem needs >= 2 stages, have %d", len(p.Values))
	}
	for k, vs := range p.Values {
		if len(vs) == 0 {
			return fmt.Errorf("multistage: stage %d has no values", k)
		}
	}
	if p.F == nil {
		return fmt.Errorf("multistage: nil cost function")
	}
	return nil
}

// Stages returns the number of stages (variables) N.
func (p *NodeValued) Stages() int { return len(p.Values) }

// Uniform reports whether every stage has the same number of quantized
// values, the regularity Design 3's pipeline requires.
func (p *NodeValued) Uniform() (m int, ok bool) {
	m = len(p.Values[0])
	for _, vs := range p.Values[1:] {
		if len(vs) != m {
			return 0, false
		}
	}
	return m, true
}

// Expand materialises the node-valued problem as an explicit edge-cost
// multistage graph, evaluating F on every value pair. This is the
// high-bandwidth representation Design 3 exists to avoid; it feeds the
// baselines and Designs 1-2.
func (p *NodeValued) Expand() *Graph {
	g := &Graph{StageSizes: make([]int, len(p.Values))}
	for k, vs := range p.Values {
		g.StageSizes[k] = len(vs)
	}
	for k := 0; k+1 < len(p.Values); k++ {
		c := matrix.New(len(p.Values[k]), len(p.Values[k+1]), 0)
		for i, x := range p.Values[k] {
			for j, y := range p.Values[k+1] {
				c.Set(i, j, p.F(x, y))
			}
		}
		g.Cost = append(g.Cost, c)
	}
	return g
}

// Solve runs the variable-elimination recurrence of equations (10)-(13):
// h(x_{k}) = min over previous-stage values of h(prev) + f(prev, x_k),
// eliminating X_1 first. It returns the optimal objective value.
func (p *NodeValued) Solve(s semiring.Semiring) float64 {
	h := make([]float64, len(p.Values[0]))
	for i := range h {
		h[i] = s.One()
	}
	for k := 1; k < len(p.Values); k++ {
		nh := make([]float64, len(p.Values[k]))
		for j, y := range p.Values[k] {
			acc := s.Zero()
			for i, x := range p.Values[k-1] {
				acc = s.Add(acc, s.Mul(h[i], p.F(x, y)))
			}
			nh[j] = acc
		}
		h = nh
	}
	return semiring.Fold(s, h)
}

// SolvePath is Solve with path reconstruction: it returns the chosen value
// index per stage and the optimal objective value.
func (p *NodeValued) SolvePath(s semiring.Comparative) Path {
	n := len(p.Values)
	h := make([]float64, len(p.Values[0]))
	for i := range h {
		h[i] = s.One()
	}
	pred := make([][]int, n) // pred[k][j]: best previous-stage index for value j of stage k
	for k := 1; k < n; k++ {
		nh := make([]float64, len(p.Values[k]))
		pk := make([]int, len(p.Values[k]))
		for j, y := range p.Values[k] {
			best, arg := s.Zero(), -1
			for i, x := range p.Values[k-1] {
				t := s.Mul(h[i], p.F(x, y))
				if arg == -1 || s.Better(t, best) {
					best, arg = t, i
				}
			}
			nh[j], pk[j] = best, arg
		}
		h, pred[k] = nh, pk
	}
	best, arg := s.Zero(), -1
	for j, v := range h {
		if arg == -1 || s.Better(v, best) {
			best, arg = v, j
		}
	}
	nodes := make([]int, n)
	nodes[n-1] = arg
	for k := n - 1; k >= 1; k-- {
		nodes[k-1] = pred[k][nodes[k]]
	}
	return Path{Nodes: nodes, Cost: best}
}

// RandomNodeValued generates an N-stage problem with m quantized values per
// stage drawn uniformly from [lo, hi), using |x-y| as the cost function —
// the paper's traffic-control flavour, where edge cost is the difference in
// timings.
func RandomNodeValued(rng *rand.Rand, n, m int, lo, hi float64) *NodeValued {
	values := make([][]float64, n)
	for k := range values {
		vs := make([]float64, m)
		for i := range vs {
			vs[i] = lo + rng.Float64()*(hi-lo)
		}
		values[k] = vs
	}
	p, _ := Named(values, CostAbsDiff)
	return p
}

// Names of the built-in pair costs, as Named and the spec take them.
const (
	CostAbsDiff   = "absdiff"
	CostQuadratic = "quadratic"
	CostRise      = "rise"
)

// pairCosts is the built-in pair costs by name, each with the stage loop
// that writes it inline.
var pairCosts = map[string]struct {
	f     CostFunc
	stage stageLoop
}{
	CostAbsDiff:   {AbsDiff, stageAbsDiff},
	CostQuadratic: {Quadratic, stageQuadratic},
	CostRise:      {Rise, stageRise},
}

// AbsDiff is the |x-y| cost function of the traffic-control example in
// Section 2.2.
func AbsDiff(x, y float64) float64 {
	if x > y {
		return x - y
	}
	return y - x
}

// Quadratic is (x-y)², a smoothness cost.
func Quadratic(x, y float64) float64 { return (x - y) * (x - y) }

// Rise charges a fall five times its size and a rise its size: the
// cost of moving from value x to y.
func Rise(x, y float64) float64 {
	if y < x {
		return 5 * (x - y)
	}
	return y - x
}

// nvWS is SolveMinPlus's pooled workspace: two h rows and the
// predecessor table, stage k's entries at the sum of the sizes of
// stages 1..k-1.
type nvWS struct {
	h, nh []float64
	pred  []int
}

// maxPooled bounds the workspaces the pool keeps, in entries per slice:
// 2^14 entries are 128 KiB. A larger workspace still solves, but goes
// to the garbage collector instead of staying in the pool; 4,096 stages
// alternating 4,096 values and 1, a problem at the spec's work ceiling,
// need 8.4M predecessors (64 MiB).
const maxPooled = 1 << 14

var nvPool = sync.Pool{New: func() any { return new(nvWS) }}

// SolveMinPlus is SolvePath(semiring.MinPlus{}) on a pooled workspace,
// the serving kernel: the same path and cost bit for bit, with only the
// returned path allocated. A problem from Named runs its cost's stage
// loop, with the cost written inline; any other F is called through its
// func value. p must be valid (see Validate).
//
// Each candidate is h + f as SolvePath's Mul forms it, and each argmin
// takes the first candidate, then a later one only if strictly smaller,
// as SolvePath's Better does. The inline costs equal the named
// functions except in the sign of a zero cost (AbsDiff(+0, -0) is -0,
// |+0 - -0| is +0; Rise likewise), and h is never -0 (it starts at +0,
// and a sum is -0 only when both terms are), so every h + f is the
// same.
func (p *NodeValued) SolveMinPlus() Path {
	vs := p.Values
	n := len(vs)
	width, preds := len(vs[0]), 0
	for _, v := range vs[1:] {
		width = max(width, len(v))
		preds += len(v)
	}
	ws := nvPool.Get().(*nvWS)
	h := arena.Floats(ws.h, width)
	nh := arena.Floats(ws.nh, width)
	pred := arena.Ints(ws.pred, preds)
	ws.h, ws.nh, ws.pred = h, nh, pred
	h = h[:len(vs[0])]
	for i := range h {
		h[i] = 0
	}
	off := 0
	for k := 1; k < n; k++ {
		xs, ys := vs[k-1], vs[k]
		nh = nh[:len(ys)]
		pk := pred[off : off+len(ys)]
		if p.stage != nil {
			p.stage(h, nh, pk, xs, ys)
		} else {
			stageFunc(h, nh, pk, xs, ys, p.F)
		}
		off += len(ys)
		h, nh = nh, h
	}
	best, arg := h[0], 0
	for j := 1; j < len(h); j++ {
		if h[j] < best {
			best, arg = h[j], j
		}
	}
	nodes := make([]int, n)
	nodes[n-1] = arg
	for k := n - 1; k >= 1; k-- {
		off -= len(vs[k])
		nodes[k-1] = pred[off+nodes[k]]
	}
	// Clean completion only (arena discipline): a panicking solve drops
	// its workspace.
	if max(cap(ws.h), cap(ws.nh), cap(ws.pred)) <= maxPooled {
		nvPool.Put(ws)
	}
	return Path{Nodes: nodes, Cost: best}
}

// stageLoop relaxes stage ys from stage xs into nh and pred, as the
// loops below do.
type stageLoop func(h, nh []float64, pred []int, xs, ys []float64)

// The stage loops relax stage ys from stage xs: nh[j] is the least
// h[i] + f(xs[i], ys[j]) over i, first index on ties, and pred[j] its
// i. Each product is wrapped in float64(): without it the compiler may
// fuse it with the add into one rounding (an FMA, on arm64).

func stageAbsDiff(h, nh []float64, pred []int, xs, ys []float64) {
	h = h[:len(xs)]
	for j, y := range ys {
		best, arg := h[0]+math.Abs(xs[0]-y), 0
		for i := 1; i < len(xs); i++ {
			if t := h[i] + math.Abs(xs[i]-y); t < best {
				best, arg = t, i
			}
		}
		nh[j], pred[j] = best, arg
	}
}

func stageQuadratic(h, nh []float64, pred []int, xs, ys []float64) {
	h = h[:len(xs)]
	for j, y := range ys {
		d := xs[0] - y
		best, arg := h[0]+float64(d*d), 0
		for i := 1; i < len(xs); i++ {
			d := xs[i] - y
			if t := h[i] + float64(d*d); t < best {
				best, arg = t, i
			}
		}
		nh[j], pred[j] = best, arg
	}
}

// stageRise writes Rise without a branch or a max (the compiler lowers
// a float max as a min between three negations). With d = x-y and
// a = |d|, d+a is exactly 2d when d > 0 and +0 when d < 0, and
// doubling is exact, so a + 2(d+a) is 5d rounded once (as 5*(x-y) is)
// when y < x, and exactly -d = y-x otherwise. That needs d > -Inf:
// stages with a value past ±MaxFloat64/2 go through Rise itself.
func stageRise(h, nh []float64, pred []int, xs, ys []float64) {
	if !halfRange(xs) || !halfRange(ys) {
		stageFunc(h, nh, pred, xs, ys, Rise)
		return
	}
	h = h[:len(xs)]
	for j, y := range ys {
		d := xs[0] - y
		a := math.Abs(d)
		best, arg := h[0]+(a+float64(2*(d+a))), 0
		for i := 1; i < len(xs); i++ {
			d := xs[i] - y
			a := math.Abs(d)
			if t := h[i] + (a + float64(2*(d+a))); t < best {
				best, arg = t, i
			}
		}
		nh[j], pred[j] = best, arg
	}
}

// halfRange reports whether every value is within ±MaxFloat64/2, so no
// difference of two of them overflows.
func halfRange(vs []float64) bool {
	for _, v := range vs {
		if math.Abs(v) > math.MaxFloat64/2 {
			return false
		}
	}
	return true
}

func stageFunc(h, nh []float64, pred []int, xs, ys []float64, f CostFunc) {
	h = h[:len(xs)]
	for j, y := range ys {
		best, arg := h[0]+f(xs[0], y), 0
		for i := 1; i < len(xs); i++ {
			if t := h[i] + f(xs[i], y); t < best {
				best, arg = t, i
			}
		}
		nh[j], pred[j] = best, arg
	}
}

// StagedCostFunc is a stage-dependent edge cost: the cost of moving from
// value x in stage k to value y in stage k+1. Figure 5's PEs carry
// subscripted F_i units in general; the paper drops the subscript "for
// simplicity", and StagedNodeValued restores it.
type StagedCostFunc func(k int, x, y float64) float64

// StagedNodeValued is the node-valued serial problem of equation (4) with
// per-stage cost functions — needed when edge costs depend on the stage
// index (e.g. tracking a time-varying reference).
type StagedNodeValued struct {
	Values [][]float64
	FK     StagedCostFunc
}

// Validate checks shape and the presence of a cost function.
func (p *StagedNodeValued) Validate() error {
	if len(p.Values) < 2 {
		return fmt.Errorf("multistage: staged problem needs >= 2 stages, have %d", len(p.Values))
	}
	for k, vs := range p.Values {
		if len(vs) == 0 {
			return fmt.Errorf("multistage: stage %d has no values", k)
		}
	}
	if p.FK == nil {
		return fmt.Errorf("multistage: nil staged cost function")
	}
	return nil
}

// Stages returns the number of stages.
func (p *StagedNodeValued) Stages() int { return len(p.Values) }

// Uniform reports whether every stage has the same number of values.
func (p *StagedNodeValued) Uniform() (m int, ok bool) {
	m = len(p.Values[0])
	for _, vs := range p.Values[1:] {
		if len(vs) != m {
			return 0, false
		}
	}
	return m, true
}

// Expand materialises the staged problem as an explicit multistage graph.
func (p *StagedNodeValued) Expand() *Graph {
	g := &Graph{StageSizes: make([]int, len(p.Values))}
	for k, vs := range p.Values {
		g.StageSizes[k] = len(vs)
	}
	for k := 0; k+1 < len(p.Values); k++ {
		c := matrix.New(len(p.Values[k]), len(p.Values[k+1]), 0)
		for i, x := range p.Values[k] {
			for j, y := range p.Values[k+1] {
				c.Set(i, j, p.FK(k, x, y))
			}
		}
		g.Cost = append(g.Cost, c)
	}
	return g
}

// Solve runs the elimination recurrence with stage-dependent costs.
func (p *StagedNodeValued) Solve(s semiring.Semiring) float64 {
	h := make([]float64, len(p.Values[0]))
	for i := range h {
		h[i] = s.One()
	}
	for k := 1; k < len(p.Values); k++ {
		nh := make([]float64, len(p.Values[k]))
		for j, y := range p.Values[k] {
			acc := s.Zero()
			for i, x := range p.Values[k-1] {
				acc = s.Add(acc, s.Mul(h[i], p.FK(k-1, x, y)))
			}
			nh[j] = acc
		}
		h = nh
	}
	return semiring.Fold(s, h)
}

// SolvePath is Solve with path reconstruction for staged problems.
func (p *StagedNodeValued) SolvePath(s semiring.Comparative) Path {
	n := len(p.Values)
	h := make([]float64, len(p.Values[0]))
	for i := range h {
		h[i] = s.One()
	}
	pred := make([][]int, n)
	for k := 1; k < n; k++ {
		nh := make([]float64, len(p.Values[k]))
		pk := make([]int, len(p.Values[k]))
		for j, y := range p.Values[k] {
			best, arg := s.Zero(), -1
			for i, x := range p.Values[k-1] {
				t := s.Mul(h[i], p.FK(k-1, x, y))
				if arg == -1 || s.Better(t, best) {
					best, arg = t, i
				}
			}
			nh[j], pk[j] = best, arg
		}
		h, pred[k] = nh, pk
	}
	best, arg := s.Zero(), -1
	for j, v := range h {
		if arg == -1 || s.Better(v, best) {
			best, arg = v, j
		}
	}
	nodes := make([]int, n)
	nodes[n-1] = arg
	for k := n - 1; k >= 1; k-- {
		nodes[k-1] = pred[k][nodes[k]]
	}
	return Path{Nodes: nodes, Cost: best}
}
