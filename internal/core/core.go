// Package core is the paper's Table 1 in executable form: it classifies a
// dynamic-programming problem into one of the four formulation classes —
// monadic-serial, polyadic-serial, monadic-nonserial, polyadic-nonserial —
// recommends the evaluation method and architecture the paper prescribes
// for that class, and dispatches to the corresponding solver.
package core

import (
	"fmt"

	"systolicdp/internal/bcastarray"
	"systolicdp/internal/dnc"
	"systolicdp/internal/matchain"
	"systolicdp/internal/matrix"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
)

// Arity distinguishes monadic from polyadic functional equations
// (Section 2.1): monadic cost functions involve one recursive term,
// polyadic ones more.
type Arity int

// Arity values.
const (
	Monadic Arity = iota
	Polyadic
)

// String names the arity.
func (a Arity) String() string {
	if a == Monadic {
		return "monadic"
	}
	return "polyadic"
}

// Structure distinguishes serial from nonserial objective functions
// (Section 2.2): serial problems chain each functional term to its
// neighbours through shared variables.
type Structure int

// Structure values.
const (
	Serial Structure = iota
	Nonserial
)

// String names the structure.
func (s Structure) String() string {
	if s == Serial {
		return "serial"
	}
	return "nonserial"
}

// Class is one cell of the paper's classification.
type Class struct {
	Arity     Arity
	Structure Structure
}

// String renders e.g. "monadic-serial".
func (c Class) String() string { return c.Arity.String() + "-" + c.Structure.String() }

// Recommendation is one row of Table 1.
type Recommendation struct {
	Class          Class
	Characteristic string
	Method         string
	Requirements   string
}

// TableOne returns the paper's summary table.
func TableOne() []Recommendation {
	return []Recommendation{
		{
			Class:          Class{Monadic, Serial},
			Characteristic: "many states or quantized values in each stage",
			Method:         "solve as string of matrix multiplications",
			Requirements:   "systolic processing",
		},
		{
			Class:          Class{Polyadic, Serial},
			Characteristic: "many stages",
			Method:         "solve by divide-and-conquer algorithms, or search AND/OR-trees",
			Requirements:   "loose coupling for fine grain; tight coupling for coarse grain",
		},
		{
			Class:          Class{Monadic, Nonserial},
			Characteristic: "variables can be eliminated one by one",
			Method:         "transform into monadic-serial representation (by grouping variables)",
			Requirements:   "systolic processing",
		},
		{
			Class:          Class{Polyadic, Nonserial},
			Characteristic: "unstructured problems",
			Method:         "search AND/OR-graphs; transform into serial AND/OR-graphs",
			Requirements:   "dataflow or systolic processing",
		},
	}
}

// Recommend returns the Table 1 row for a class.
func Recommend(c Class) Recommendation {
	for _, r := range TableOne() {
		if r.Class == c {
			return r
		}
	}
	return Recommendation{Class: c, Method: "unknown"}
}

// Problem is a DP problem the library can classify and solve.
type Problem interface {
	// Classify returns the formulation class of the problem as posed.
	Classify() Class
	// Describe names the problem for reports.
	Describe() string
}

// Solution is the result of Solve.
type Solution struct {
	Class    Class
	Method   string
	Cost     float64
	Path     []int  // optimal assignment/path where applicable, else nil
	Ordering string // optimal parenthesisation for chain ordering, else ""
}

// MultistageProblem is a monadic-serial problem: a shortest path in an
// explicit multistage graph (equations (1)-(2)).
type MultistageProblem struct {
	Graph *multistage.Graph
	// Design selects the systolic array: 1 (pipelined), 2 (broadcast) or 0
	// for the sequential baseline. Designs 1-2 require a uniform graph
	// wrapped to single source/sink.
	Design int
}

// Classify reports monadic-serial.
func (p *MultistageProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *MultistageProblem) Describe() string {
	return fmt.Sprintf("multistage graph (%d stages), Design %d", p.Graph.Stages(), p.Design)
}

// Validate checks the graph and that its design can run it. Designs 1-2
// take the arrays' shape (pipearray.New, bcastarray.New): at least 2
// cost matrices, a last stage of one node, m nodes in every other stage
// after the source, and a source stage of at most m nodes.
func (p *MultistageProblem) Validate() error {
	if err := p.Graph.Validate(); err != nil {
		return err
	}
	switch p.Design {
	case 0:
		return nil
	case 1, 2:
	default:
		return fmt.Errorf("core: unknown design %d (want 0, 1 or 2)", p.Design)
	}
	sizes := p.Graph.StageSizes
	k := len(sizes) - 1 // cost matrices
	if k < 2 {
		return fmt.Errorf("core: designs 1-2 need at least 2 cost matrices, have %d", k)
	}
	if sizes[k] != 1 {
		return fmt.Errorf("core: designs 1-2 need a single-sink graph (last stage of 1 node, not %d); wrap with SingleSourceSink", sizes[k])
	}
	m := sizes[k-1]
	for st := 1; st < k-1; st++ {
		if sizes[st] != m {
			return fmt.Errorf("core: designs 1-2 need m=%d nodes in stage %d, have %d", m, st, sizes[st])
		}
	}
	if sizes[0] > m {
		return fmt.Errorf("core: designs 1-2 need a source stage of at most m=%d nodes, have %d", m, sizes[0])
	}
	return nil
}

// NodeValuedProblem is a monadic-serial problem in the node-valued form of
// equation (4), Design 3's input. Solve serves it with NodeValued.SolvePath,
// which evaluates the array's h + f terms with its strict-< tie rule and
// so returns the array's cost and path bit for bit on finite sums.
type NodeValuedProblem struct {
	Problem *multistage.NodeValued
}

// Classify reports monadic-serial.
func (p *NodeValuedProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *NodeValuedProblem) Describe() string {
	return fmt.Sprintf("node-valued serial problem (%d stages), Design 3", p.Problem.Stages())
}

// MatrixStringProblem is a polyadic-serial problem: the same multistage
// search posed as a string of matrix multiplications evaluated by parallel
// divide-and-conquer (Section 4) on Workers processors.
type MatrixStringProblem struct {
	Matrices []*matrix.Matrix
	Workers  int
}

// Classify reports polyadic-serial.
func (p *MatrixStringProblem) Classify() Class { return Class{Polyadic, Serial} }

// Describe names the problem.
func (p *MatrixStringProblem) Describe() string {
	return fmt.Sprintf("matrix string (N=%d) by divide-and-conquer on %d workers", len(p.Matrices), p.Workers)
}

// ChainOrderingProblem is the polyadic-nonserial optimal-parenthesisation
// problem of equation (6).
type ChainOrderingProblem struct {
	Dims []int
}

// Classify reports polyadic-nonserial.
func (p *ChainOrderingProblem) Classify() Class { return Class{Polyadic, Nonserial} }

// Describe names the problem.
func (p *ChainOrderingProblem) Describe() string {
	return fmt.Sprintf("matrix-chain ordering (n=%d)", len(p.Dims)-1)
}

// NonserialChainProblem is the monadic-nonserial tri-variable chain of
// equation (36), solved by eliminating its variables one by one
// (equations (37)-(39)).
type NonserialChainProblem struct {
	Chain *nonserial.Chain3
}

// Classify reports monadic-nonserial.
func (p *NonserialChainProblem) Classify() Class { return Class{Monadic, Nonserial} }

// Describe names the problem.
func (p *NonserialChainProblem) Describe() string {
	return fmt.Sprintf("nonserial ternary chain (N=%d variables)", len(p.Chain.Domains))
}

// Solve classifies the problem, applies the method Table 1 prescribes for
// its class, and returns the solution.
func Solve(p Problem) (*Solution, error) {
	sol := &Solution{Class: p.Classify(), Method: Recommend(p.Classify()).Method}
	mp := semiring.MinPlus{}
	switch q := p.(type) {
	case *MultistageProblem:
		if err := q.Validate(); err != nil {
			return nil, err
		}
		switch q.Design {
		case 0:
			path := multistage.SolveOptimal(mp, q.Graph)
			sol.Cost, sol.Path = path.Cost, path.Nodes
		case 1, 2:
			mats := q.Graph.Matrices()
			k := len(mats)
			v := mats[k-1].Col(0)
			var out []float64
			var err error
			if q.Design == 1 {
				out, err = pipearray.Solve(mats[:k-1], v)
			} else {
				out, err = bcastarray.Solve(mats[:k-1], v)
			}
			if err != nil {
				return nil, err
			}
			sol.Cost = semiring.Fold(mp, out)
		}
	case *NodeValuedProblem:
		if err := q.Problem.Validate(); err != nil {
			return nil, err
		}
		path := q.Problem.SolvePath(mp)
		sol.Cost, sol.Path = path.Cost, path.Nodes
	case *MatrixStringProblem:
		workers := q.Workers
		if workers < 1 {
			workers = dnc.OptimalGranularity(len(q.Matrices))
		}
		res, err := dnc.ParallelChain(mp, q.Matrices, workers)
		if err != nil {
			return nil, err
		}
		// The product matrix's fold is the best any-to-any cost.
		sol.Cost = semiring.Fold(mp, res.Product.Data)
	case *ChainOrderingProblem:
		// Pooled flat-table kernel, bitwise identical to matchain.DP.
		cost, paren, err := matchain.SolveFast(q.Dims)
		if err != nil {
			return nil, err
		}
		sol.Cost = cost
		sol.Ordering = paren
	case *NonserialChainProblem:
		// Pooled monomorphized elimination (equations (37)-(39)), bitwise
		// identical to Eliminate and to the grouped Design-3 array the
		// differential checker pins it against.
		cost, _, err := nonserial.EliminateFast(q.Chain)
		if err != nil {
			return nil, err
		}
		sol.Cost = cost
	case *DTWProblem:
		res, err := solveDTW(q)
		if err != nil {
			return nil, err
		}
		sol.Cost = res.Cost
	case *AlignProblem:
		res, err := solveAlign(q)
		if err != nil {
			return nil, err
		}
		sol.Cost = res.Cost
	case *ViterbiProblem:
		// Uniform or ragged, the sweep evaluates the feedback array's
		// h + EdgeCost terms with its tie rule: the array's answer.
		cost, path, err := q.Trellis.Sequential()
		if err != nil {
			return nil, err
		}
		sol.Cost, sol.Path = cost, path
	case *KnapsackProblem:
		res, err := solveKnapsack(q)
		if err != nil {
			return nil, err
		}
		sol.Cost = res.Cost
	default:
		return nil, fmt.Errorf("core: unsupported problem type %T", p)
	}
	return sol, nil
}
