// Package nonserial implements Section 6.1 of the paper: monadic-nonserial
// optimisation problems, their interaction graphs, and the transformation
// into a monadic-serial (multistage) problem by grouping state variables,
// after which the Design-3 systolic array applies.
//
// The general nonserial objective is equation (5):
//
//	f(X) = phi_i g_i(X^i),  X^i subset of X,
//
// which is NP-hard without structure. The paper works the tri-variable
// chain of equation (36),
//
//	f(V) = min sum_{k} g_k(v_k, v_{k+1}, v_{k+2}),
//
// eliminating variables one by one (equations (37)-(39)); the step count
// is equation (40): sum_k m_k*m_{k+1}*m_{k+2} + m_{N-1}*m_N. Grouping
// V'_i = (V_i, V_{i+1}) turns the problem into the serial form of
// equation (41), whose expanded multistage graph any of the three systolic
// designs can search.
package nonserial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"systolicdp/internal/matrix"
	"systolicdp/internal/multistage"
)

// Term is one functional term g(X^i) of a nonserial objective: F is
// evaluated on the values of the variables listed in Vars, in order.
type Term struct {
	Vars []int
	F    func(vals []float64) float64
}

// Problem is a general nonserial optimisation problem over discrete
// variables: Domains[i] lists the quantized values variable i may take.
type Problem struct {
	Domains [][]float64
	Terms   []Term
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if len(p.Domains) == 0 {
		return fmt.Errorf("nonserial: no variables")
	}
	for i, d := range p.Domains {
		if len(d) == 0 {
			return fmt.Errorf("nonserial: variable %d has empty domain", i)
		}
	}
	if len(p.Terms) == 0 {
		return fmt.Errorf("nonserial: no terms")
	}
	for ti, term := range p.Terms {
		if term.F == nil {
			return fmt.Errorf("nonserial: term %d has nil F", ti)
		}
		if len(term.Vars) == 0 {
			return fmt.Errorf("nonserial: term %d mentions no variables", ti)
		}
		seen := map[int]bool{}
		for _, v := range term.Vars {
			if v < 0 || v >= len(p.Domains) {
				return fmt.Errorf("nonserial: term %d references variable %d out of range", ti, v)
			}
			if seen[v] {
				return fmt.Errorf("nonserial: term %d repeats variable %d", ti, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// InteractionEdges returns the edges of the interaction graph of Section
// 2.2: an (i, j) pair (i < j) for every pair of variables sharing a term,
// deduplicated and sorted.
func (p *Problem) InteractionEdges() [][2]int {
	set := map[[2]int]bool{}
	for _, term := range p.Terms {
		for a := 0; a < len(term.Vars); a++ {
			for b := a + 1; b < len(term.Vars); b++ {
				i, j := term.Vars[a], term.Vars[b]
				if i > j {
					i, j = j, i
				}
				set[[2]int{i, j}] = true
			}
		}
	}
	edges := make([][2]int, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	return edges
}

// IsSerial reports whether the problem is serial in the paper's sense:
// every term involves exactly two variables {i, i+1}, so the interaction
// graph is a simple chain (Section 2.2).
func (p *Problem) IsSerial() bool {
	for _, term := range p.Terms {
		if len(term.Vars) != 2 {
			return false
		}
		i, j := term.Vars[0], term.Vars[1]
		if i > j {
			i, j = j, i
		}
		if j != i+1 {
			return false
		}
	}
	return true
}

// BruteForce enumerates every assignment and returns the optimal value
// indices and cost. Exponential; for validation only.
func (p *Problem) BruteForce() ([]int, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(p.Domains)
	idx := make([]int, n)
	best := math.Inf(1)
	var bestIdx []int
	vals := make([]float64, n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			c := p.Eval(idx)
			if c < best {
				best = c
				bestIdx = append([]int(nil), idx...)
			}
			return
		}
		for i := range p.Domains[k] {
			idx[k] = i
			rec(k + 1)
		}
	}
	_ = vals
	rec(0)
	return bestIdx, best, nil
}

// Eval computes the objective at the assignment given by value indices.
func (p *Problem) Eval(idx []int) float64 {
	total := 0.0
	buf := make([]float64, 0, 4)
	for _, term := range p.Terms {
		buf = buf[:0]
		for _, v := range term.Vars {
			buf = append(buf, p.Domains[v][idx[v]])
		}
		total += term.F(buf)
	}
	return total
}

// Chain3 is the structured monadic-nonserial problem of equation (36): N
// variables, terms g_k(v_k, v_{k+1}, v_{k+2}) for k = 0..N-3, all sharing
// one ternary cost function G.
type Chain3 struct {
	Domains [][]float64
	G       func(a, b, c float64) float64
	// GName optionally names G so the pooled kernel (EliminateFast) can
	// dispatch to the named op: GNameDefault and GNameSpan promise
	// G is DefaultG / SpanG respectively; any other value (including "")
	// means "call G through its func value". Setters of G are responsible
	// for keeping the promise — the constructors here and the spec parser
	// do.
	GName string
}

// Validate checks the chain has at least three variables, nonempty
// domains, and a cost function.
func (c *Chain3) Validate() error {
	if len(c.Domains) < 3 {
		return fmt.Errorf("nonserial: Chain3 needs >= 3 variables, have %d", len(c.Domains))
	}
	for i, d := range c.Domains {
		if len(d) == 0 {
			return fmt.Errorf("nonserial: variable %d has empty domain", i)
		}
	}
	if c.G == nil {
		return fmt.Errorf("nonserial: nil cost function")
	}
	return nil
}

// AsProblem converts the chain into the general representation (for
// interaction-graph inspection and brute force).
func (c *Chain3) AsProblem() *Problem {
	p := &Problem{Domains: c.Domains}
	for k := 0; k+2 < len(c.Domains); k++ {
		g := c.G
		p.Terms = append(p.Terms, Term{
			Vars: []int{k, k + 1, k + 2},
			F:    func(v []float64) float64 { return g(v[0], v[1], v[2]) },
		})
	}
	return p
}

// StepsEq40 evaluates equation (40): the number of elimination steps,
// sum_{k} m_k*m_{k+1}*m_{k+2} + m_{N-1}*m_N (a step = one evaluation of
// f, one addition and one comparison).
func (c *Chain3) StepsEq40() int {
	n := len(c.Domains)
	return TermSteps(c.Domains) + len(c.Domains[n-2])*len(c.Domains[n-1])
}

// TermSteps is equation (40)'s sum over the terms, m_k*m_{k+1}*m_{k+2}
// steps to eliminate V_k (0 for fewer than three domains). Admission
// prices a chain by it and spec validation bounds it.
func TermSteps(domains [][]float64) int {
	total := 0
	for k := 0; k+2 < len(domains); k++ {
		total += len(domains[k]) * len(domains[k+1]) * len(domains[k+2])
	}
	return total
}

// Eliminate runs the multistage elimination of equations (37)-(39):
// h_k(v_{k+1}, v_{k+2}) = min_{v_k} { h_{k-1}(v_k, v_{k+1}) + g(v_k,
// v_{k+1}, v_{k+2}) }, eliminating V_1, ..., V_{N-2} in order, then
// comparing the m_{N-1}*m_N values of the final table. It returns the
// optimal cost and the measured step count, which must equal StepsEq40.
func (c *Chain3) Eliminate() (cost float64, steps int, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	n := len(c.Domains)
	// h[b][cdx] over (V_{k+1}, V_{k+2}); initially zero over (V_0, V_1).
	h := make([][]float64, len(c.Domains[0]))
	for a := range h {
		h[a] = make([]float64, len(c.Domains[1]))
	}
	for k := 0; k+2 < n; k++ {
		da, db, dc := c.Domains[k], c.Domains[k+1], c.Domains[k+2]
		nh := make([][]float64, len(db))
		for b := range nh {
			nh[b] = make([]float64, len(dc))
			for cc := range nh[b] {
				nh[b][cc] = math.Inf(1)
			}
		}
		for a := range da {
			for b := range db {
				for cc := range dc {
					cand := h[a][b] + c.G(da[a], db[b], dc[cc])
					if cand < nh[b][cc] {
						nh[b][cc] = cand
					}
					steps++
				}
			}
		}
		h = nh
	}
	cost = math.Inf(1)
	for b := range h {
		for cc := range h[b] {
			if h[b][cc] < cost {
				cost = h[b][cc]
			}
			steps++
		}
	}
	return cost, steps, nil
}

// GroupToSerial performs the variable-grouping transformation of equation
// (41): composite variables V'_i = (V_i, V_{i+1}) for i = 0..N-2 become
// the stages of a node-valued multistage problem. Composite states are
// encoded as float64 pair codes a*m_{i+1}+b; the serial cost function
// charges g(a, b, c) for consistent transitions (the shared middle
// variable must match) and +inf otherwise. The result can be expanded to
// an explicit multistage graph or — when domains are uniform — run
// directly on the Design-3 feedback array.
func (c *Chain3) GroupToSerial() (*multistage.NodeValued, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.UniformDomains() {
		return nil, fmt.Errorf("nonserial: GroupToSerial requires uniform domains (Design 3 needs a stage-independent cost function); use GroupToGraph instead")
	}
	n := len(c.Domains)
	// Encode the composite value (a, b) of stage i as a float64 code; the
	// decoder needs the stage's second-domain size, so codes embed both
	// indices with a fixed radix large enough for all domains.
	radix := 0
	for _, d := range c.Domains {
		if len(d) > radix {
			radix = len(d)
		}
	}
	p := &multistage.NodeValued{}
	for i := 0; i+1 < n; i++ {
		vals := make([]float64, 0, len(c.Domains[i])*len(c.Domains[i+1]))
		for a := range c.Domains[i] {
			for b := range c.Domains[i+1] {
				vals = append(vals, float64(a*radix+b))
			}
		}
		p.Values = append(p.Values, vals)
	}
	domains := c.Domains
	g := c.G
	p.F = func(x, y float64) float64 {
		xa, xb := int(x)/radix, int(x)%radix
		ya, yb := int(y)/radix, int(y)%radix
		if xb != ya {
			return math.Inf(1) // inconsistent overlap
		}
		// Transition from stage i to i+1 charges g(v_i, v_{i+1}, v_{i+2});
		// the variable values are recovered from the indices. The cost
		// function is stage-independent only if the domains are, so look
		// up via the code's own indices against the first applicable
		// stage; for uniform domains any stage works.
		return g(domains[0][xa], domains[1][xb], domains[2][yb])
	}
	return p, nil
}

// GroupToGraph performs the same grouping as GroupToSerial but emits an
// explicit multistage graph with stage-dependent edge costs, valid for
// arbitrary (non-uniform) domains. Stage i's nodes are the composite
// states (a, b) of (V_i, V_{i+1}) in row-major order; edges charge
// g(v_i, v_{i+1}, v_{i+2}) on consistent transitions and +inf otherwise.
func (c *Chain3) GroupToGraph() (*multistage.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Domains)
	g := &multistage.Graph{}
	for i := 0; i+1 < n; i++ {
		g.StageSizes = append(g.StageSizes, len(c.Domains[i])*len(c.Domains[i+1]))
	}
	for i := 0; i+2 < n; i++ {
		da, db, dc := c.Domains[i], c.Domains[i+1], c.Domains[i+2]
		cost := matrix.New(len(da)*len(db), len(db)*len(dc), math.Inf(1))
		for a := range da {
			for b := range db {
				for cc := range dc {
					cost.Set(a*len(db)+b, b*len(dc)+cc, c.G(da[a], db[b], dc[cc]))
				}
			}
		}
		g.Cost = append(g.Cost, cost)
	}
	return g, nil
}

// UniformDomains reports whether all variables share one domain — the
// condition under which GroupToSerial's stage-independent cost function is
// exact and Design 3 applies directly. An empty chain is vacuously
// uniform.
func (c *Chain3) UniformDomains() bool {
	if len(c.Domains) == 0 {
		return true
	}
	first := c.Domains[0]
	for _, d := range c.Domains[1:] {
		if len(d) != len(first) {
			return false
		}
		for i := range d {
			if d[i] != first[i] {
				return false
			}
		}
	}
	return true
}

// RandomChain3 generates an N-variable chain with m values per domain
// drawn from [lo, hi) and a smooth ternary cost |a-b| + |b-c| + |a-c|/2.
func RandomChain3(rng *rand.Rand, n, m int, lo, hi float64) *Chain3 {
	c := &Chain3{G: DefaultG, GName: GNameDefault}
	for k := 0; k < n; k++ {
		d := make([]float64, m)
		for i := range d {
			d[i] = lo + rng.Float64()*(hi-lo)
		}
		c.Domains = append(c.Domains, d)
	}
	return c
}

// RandomUniformChain3 generates a chain whose variables share one domain,
// so the grouped problem runs on Design 3.
func RandomUniformChain3(rng *rand.Rand, n, m int, lo, hi float64) *Chain3 {
	d := make([]float64, m)
	for i := range d {
		d[i] = lo + rng.Float64()*(hi-lo)
	}
	c := &Chain3{G: DefaultG, GName: GNameDefault}
	for k := 0; k < n; k++ {
		c.Domains = append(c.Domains, d)
	}
	return c
}

// Names of the built-in ternary costs, used as Chain3.GName values so
// EliminateFast can pick the matching op.
const (
	GNameDefault = "default"
	GNameSpan    = "span"
)

// DefaultG is a representative ternary interaction cost.
func DefaultG(a, b, c float64) float64 {
	return math.Abs(a-b) + math.Abs(b-c) + math.Abs(a-c)/2
}

// SpanG is the range of the three values, max - min: the "span" cost of
// the spec vocabulary.
func SpanG(a, b, c float64) float64 {
	hi := max(a, b, c)
	lo := min(a, b, c)
	return hi - lo
}
