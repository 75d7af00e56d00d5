// Package matchain implements the optimal matrix-chain-ordering problem —
// the paper's running example of a polyadic-nonserial DP formulation
// (equation (6), Figure 2) — and the two parallel evaluation schemes of
// Section 6.2:
//
//   - the broadcast-bus design, in which each of the n(n+1)/2 processors
//     evaluates one OR-node and its AND-children, communicating over
//     multiple broadcast busses; completion time obeys equation (42),
//     T_d(k) = T_d(ceil(k/2)) + floor(k/2), whose solution is T_d(N) = N
//     (Proposition 2);
//   - the serialised/systolic design obtained by inserting dummy nodes so
//     all arcs join adjacent levels (Figure 8); results ripple one level
//     per cycle, completion obeys equation (43),
//     T_p(k) = T_p(ceil(k/2)) + 2*floor(k/2) with T_p(1) = 2, whose
//     solution is T_p(N) = 2N (Proposition 3) — the structure of the
//     Guibas-Kung-Thompson array.
//
// Both simulators actually compute the m_{i,j} cost table while tracking
// time, so correctness is checked against the sequential DP of equation
// (6) and a brute-force enumeration of parenthesisations.
package matchain

import (
	"fmt"
	"math"
	"strings"

	"systolicdp/internal/andor"
	"systolicdp/internal/semiring"
)

// Table is the DP table of equation (6): Cost[i][j] is m_{i,j}, the
// minimum scalar-multiplication cost of computing M_i x ... x M_j
// (0-indexed, i <= j), and Split[i][j] the optimal split point k.
type Table struct {
	N     int
	Dims  []int
	Cost  [][]float64
	Split [][]int
}

func validDims(dims []int) (int, error) {
	n := len(dims) - 1
	if n < 1 {
		return 0, fmt.Errorf("matchain: need at least one matrix (2 dims), have %d dims", len(dims))
	}
	for i, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("matchain: dimension %d is %d, must be positive", i, d)
		}
	}
	return n, nil
}

// DP solves equation (6) sequentially in O(n^3): the single-processor
// baseline for the ordering problem.
func DP(dims []int) (*Table, error) {
	n, err := validDims(dims)
	if err != nil {
		return nil, err
	}
	t := &Table{N: n, Dims: append([]int(nil), dims...)}
	t.Cost = make([][]float64, n)
	t.Split = make([][]int, n)
	for i := range t.Cost {
		t.Cost[i] = make([]float64, n)
		t.Split[i] = make([]int, n)
		for j := range t.Split[i] {
			t.Split[i][j] = -1
		}
	}
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			best, arg := math.Inf(1), -1
			for k := i; k < j; k++ {
				c := t.Cost[i][k] + t.Cost[k+1][j] + float64(dims[i]*dims[k+1]*dims[j+1])
				if c < best {
					best, arg = c, k
				}
			}
			t.Cost[i][j] = best
			t.Split[i][j] = arg
		}
	}
	return t, nil
}

// Updates is DP's closed-form work for n matrices: about n³/6 min-plus
// updates (the split points over every pair i < j) plus the n² table
// entries. Admission prices a chain by it and spec validation bounds it.
func Updates(n int) float64 {
	nf := float64(n)
	return nf*nf*nf/6 + nf*nf
}

// OptimalCost returns m_{1,N}, the cost of the best ordering.
func (t *Table) OptimalCost() float64 { return t.Cost[0][t.N-1] }

// Parenthesization renders the optimal order, e.g. "((M1 M2)(M3 M4))".
func (t *Table) Parenthesization() string {
	var b strings.Builder
	var rec func(i, j int)
	rec = func(i, j int) {
		if i == j {
			fmt.Fprintf(&b, "M%d", i+1)
			return
		}
		k := t.Split[i][j]
		b.WriteByte('(')
		rec(i, k)
		b.WriteByte(' ')
		rec(k+1, j)
		b.WriteByte(')')
	}
	rec(0, t.N-1)
	return b.String()
}

// MultiplyCost recomputes the scalar-multiplication cost of the optimal
// ordering by walking the split tree; it must equal OptimalCost.
func (t *Table) MultiplyCost() float64 {
	var rec func(i, j int) (rows, cols int, cost float64)
	rec = func(i, j int) (int, int, float64) {
		if i == j {
			return t.Dims[i], t.Dims[i+1], 0
		}
		k := t.Split[i][j]
		r1, c1, f1 := rec(i, k)
		r2, c2, f2 := rec(k+1, j)
		if c1 != r2 {
			panic("matchain: split tree dimension mismatch")
		}
		return r1, c2, f1 + f2 + float64(r1*c1*c2)
	}
	_, _, c := rec(0, t.N-1)
	return c
}

// BruteForce enumerates every parenthesisation (Catalan growth — small n
// only) and returns the optimal cost, for validating DP.
func BruteForce(dims []int) (float64, error) {
	n, err := validDims(dims)
	if err != nil {
		return 0, err
	}
	memoLess := func() func(i, j int) float64 {
		var rec func(i, j int) float64
		rec = func(i, j int) float64 {
			if i == j {
				return 0
			}
			best := math.Inf(1)
			for k := i; k < j; k++ {
				c := rec(i, k) + rec(k+1, j) + float64(dims[i]*dims[k+1]*dims[j+1])
				if c < best {
					best = c
				}
			}
			return best
		}
		return rec
	}()
	return memoLess(0, n-1), nil
}

// BuildANDOR constructs the AND/OR-graph of Figure 2 for the chain: an
// OR-node per subproblem m_{i,j} whose AND-children (one per split k) sum
// m_{i,k}, m_{k+1,j} and the additive constant r_{i-1}*r_k*r_j. The roots
// slice holds the single root m_{1,N}. The graph is nonserial: AND-nodes
// at high levels connect directly to low-level OR-nodes, so IsSerial
// reports false for n >= 3 until Serialize inserts the dummy nodes of
// Figure 8.
func BuildANDOR(dims []int) (*andor.Graph, error) {
	n, err := validDims(dims)
	if err != nil {
		return nil, err
	}
	g := &andor.Graph{}
	// id[i][j] is the node computing m_{i,j}.
	id := make([][]int, n)
	for i := range id {
		id[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		id[i][i] = g.AddLeaf(0) // m_{i,i} = 0
	}
	for s := 2; s <= n; s++ {
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			ands := make([]int, 0, s-1)
			for k := i; k < j; k++ {
				extra := float64(dims[i] * dims[k+1] * dims[j+1])
				ands = append(ands, g.AddNode(andor.And, []int{id[i][k], id[k+1][j]}, extra))
			}
			id[i][j] = g.AddNode(andor.Or, ands, 0)
		}
	}
	g.Roots = []int{id[0][n-1]}
	return g, nil
}

// TdRecurrence evaluates equation (42): the broadcast-bus completion time
// for a chain of k matrices. Proposition 2 proves T_d(N) = N.
func TdRecurrence(k int) int {
	if k <= 1 {
		return 1
	}
	return TdRecurrence((k+1)/2) + k/2
}

// TpRecurrence evaluates equation (43) with T_p(1) = 2: the serialised
// systolic completion time. Proposition 3 proves T_p(N) = 2N.
func TpRecurrence(k int) int {
	if k <= 1 {
		return 2
	}
	return TpRecurrence((k+1)/2) + 2*(k/2)
}

// TimingResult reports a simulated parallel ordering run.
type TimingResult struct {
	Cost       float64   // optimal ordering cost (must equal DP)
	Completion float64   // completion time of the root processor
	BySize     []float64 // completion time of the slowest subproblem of each size (index = size)
	Processors int       // n(n+1)/2 processors, one per subproblem
}

// simulate runs the event-driven model shared by the two designs.
// transfer(a, s) is the time for a completed subproblem of size a to reach
// the processor of a size-s parent (0 for the broadcast bus, s-a level
// hops for the serialised systolic design). Each processor performs two
// additions and two comparisons per step, i.e. it consumes up to two ready
// split candidates per time unit, exactly the paper's step semantics.
func simulate(dims []int, base float64, transfer func(a, s int) float64) (*TimingResult, error) {
	n, err := validDims(dims)
	if err != nil {
		return nil, err
	}
	done := make([][]float64, n) // completion time of (i,j)
	cost := make([][]float64, n)
	for i := range done {
		done[i] = make([]float64, n)
		cost[i] = make([]float64, n)
		done[i][i] = base
	}
	res := &TimingResult{BySize: make([]float64, n+1), Processors: n * (n + 1) / 2}
	res.BySize[1] = base
	for s := 2; s <= n; s++ {
		worst := 0.0
		for i := 0; i+s-1 < n; i++ {
			j := i + s - 1
			// Candidate k ready when both parts have arrived.
			readies := make([]float64, 0, s-1)
			best := math.Inf(1)
			for k := i; k < j; k++ {
				a, b := k-i+1, j-k
				r := max(done[i][k]+transfer(a, s), done[k+1][j]+transfer(b, s))
				readies = append(readies, r)
				if c := cost[i][k] + cost[k+1][j] + float64(dims[i]*dims[k+1]*dims[j+1]); c < best {
					best = c
				}
			}
			cost[i][j] = best
			done[i][j] = finishTime(readies, 2)
			if done[i][j] > worst {
				worst = done[i][j]
			}
		}
		res.BySize[s] = worst
	}
	res.Cost = cost[0][n-1]
	res.Completion = done[0][n-1]
	return res, nil
}

// finishTime returns the earliest time by which a processor consuming up
// to `rate` ready candidates per unit step has consumed them all, given
// each candidate's ready time.
func finishTime(readies []float64, rate int) float64 {
	sorted := append([]float64(nil), readies...)
	for i := 1; i < len(sorted); i++ { // insertion sort: lists are short
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	t := 0.0
	doneCnt := 0
	for doneCnt < len(sorted) {
		if sorted[doneCnt] > t {
			t = sorted[doneCnt]
		}
		avail := 0
		for doneCnt+avail < len(sorted) && sorted[doneCnt+avail] <= t {
			avail++
		}
		take := avail
		if take > rate {
			take = rate
		}
		doneCnt += take
		t++
	}
	return t
}

// SimulateBus runs the broadcast-bus design of Proposition 2: results are
// visible to every processor the moment they complete (transfer = 0).
// Completion must equal T_d(N) = N.
func SimulateBus(dims []int) (*TimingResult, error) {
	return simulate(dims, 1, func(a, s int) float64 { return 0 })
}

// SimulateSystolic runs the serialised design of Proposition 3: a result
// produced at level a must ripple through s-a dummy levels to reach a
// size-s consumer (the dotted nodes of Figure 8). Completion must equal
// T_p(N) = 2N.
func SimulateSystolic(dims []int) (*TimingResult, error) {
	return simulate(dims, 2, func(a, s int) float64 { return float64(s - a) })
}

// EngineResult reports a run of the ordering problem on the systolic
// engine.
type EngineResult struct {
	Cost       float64
	Cycles     int // wavefront cycles (= serialised graph height)
	Processors int
	Dummies    int // pass-through nodes added by serialisation
}

// SolveOnEngine runs the full Section 6.2 pipeline in hardware terms:
// build the Figure-2 AND/OR-graph, serialise it with dummy nodes
// (Figure 8), map one PE per node onto the systolic engine, and run to
// completion — the Guibas-Kung-Thompson structure executed cycle by
// cycle. The cost equals DP; Cycles equals the serialised graph height
// (2(n-1) for n matrices), the Proposition-3 wavefront.
func SolveOnEngine(dims []int) (*EngineResult, error) {
	g, err := BuildANDOR(dims)
	if err != nil {
		return nil, err
	}
	sg, dummies := g.Serialize()
	res, err := sg.MapSystolic(semiring.MinPlus{}, false)
	if err != nil {
		return nil, err
	}
	return &EngineResult{
		Cost:       res.RootValues[0],
		Cycles:     res.Cycles,
		Processors: res.Processors,
		Dummies:    dummies,
	}, nil
}

// TreeNode is one node of the optimal parenthesisation tree: a leaf
// (Lo == Hi) is matrix M_{Lo+1}; an internal node multiplies its
// subtrees' products.
type TreeNode struct {
	Lo, Hi      int
	Left, Right *TreeNode
}

// Leaf reports whether the node is a single matrix.
func (n *TreeNode) Leaf() bool { return n.Lo == n.Hi }

// SplitTree materialises the optimal parenthesisation as an explicit
// binary tree — the dataflow graph Section 4's closing remark schedules
// asynchronously.
func (t *Table) SplitTree() *TreeNode {
	var rec func(i, j int) *TreeNode
	rec = func(i, j int) *TreeNode {
		n := &TreeNode{Lo: i, Hi: j}
		if i == j {
			return n
		}
		k := t.Split[i][j]
		n.Left = rec(i, k)
		n.Right = rec(k+1, j)
		return n
	}
	return rec(0, t.N-1)
}
