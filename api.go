package systolicdp

import (
	"context"
	"math/rand"

	"systolicdp/internal/andor"
	"systolicdp/internal/bcastarray"
	"systolicdp/internal/bnb"
	"systolicdp/internal/core"
	"systolicdp/internal/dnc"
	"systolicdp/internal/dtw"
	"systolicdp/internal/experiments"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/matchain"
	"systolicdp/internal/matrix"
	"systolicdp/internal/mesh"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/obst"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
	"systolicdp/internal/workload"
)

// Re-exported problem and solution types: the classification machinery of
// Section 2 and Table 1.
type (
	// Class is a DP formulation class (monadic/polyadic x serial/nonserial).
	Class = core.Class
	// Problem is any DP problem the library can classify and solve.
	Problem = core.Problem
	// Solution is the result of Solve.
	Solution = core.Solution
	// Recommendation is one row of the paper's Table 1.
	Recommendation = core.Recommendation

	// MultistageProblem is a monadic-serial shortest-path problem.
	MultistageProblem = core.MultistageProblem
	// NodeValuedProblem is the equation-(4) form for the Design-3 array.
	NodeValuedProblem = core.NodeValuedProblem
	// MatrixStringProblem is a polyadic-serial matrix string.
	MatrixStringProblem = core.MatrixStringProblem
	// ChainOrderingProblem is the optimal-parenthesisation problem.
	ChainOrderingProblem = core.ChainOrderingProblem
	// NonserialChainProblem is the ternary-chain nonserial problem.
	NonserialChainProblem = core.NonserialChainProblem

	// Graph is an explicit multistage graph.
	Graph = multistage.Graph
	// NodeValued is a node-valued serial problem (equation (4)).
	NodeValued = multistage.NodeValued
	// Path is an optimal path through a multistage graph.
	Path = multistage.Path
	// Matrix is a dense semiring matrix.
	Matrix = matrix.Matrix
	// Chain3 is the tri-variable nonserial chain of equation (36).
	Chain3 = nonserial.Chain3
)

// Class constants.
const (
	Monadic   = core.Monadic
	Polyadic  = core.Polyadic
	Serial    = core.Serial
	Nonserial = core.Nonserial
)

// Solve classifies the problem and applies the method the paper's Table 1
// prescribes for its class.
func Solve(p Problem) (*Solution, error) { return core.Solve(p) }

// SolveCtx is Solve bounded by a context deadline or cancellation. The
// underlying computation is not interruptible; on early return it
// finishes in the background and its result is discarded.
func SolveCtx(ctx context.Context, p Problem) (*Solution, error) { return core.SolveCtx(ctx, p) }

// SolveGraphBatch solves a batch of identically-shaped single-sink
// multistage graphs in one streamed Design-1 run — all instances share a
// single pipeline fill. This is the batch entry point the dpserve
// micro-batcher flushes through.
func SolveGraphBatch(gs []*Graph) ([]*Solution, error) {
	sols, _, err := core.SolveGraphBatch(gs)
	return sols, err
}

// DTW is the dynamic-time-warping problem in classifiable form: Solve
// routes it to the anti-diagonal systolic array (see DTWDistance).
type DTW = core.DTWProblem

// TableOne returns the paper's summary table (Table 1).
func TableOne() []Recommendation { return core.TableOne() }

// Recommend returns the Table 1 row for a class.
func Recommend(c Class) Recommendation { return core.Recommend(c) }

// SolvePipelined runs Design 1 (the pipelined array of Figure 3) on the
// matrix string ms and initial vector v, returning ms[0].(...(ms[K-1].v)).
func SolvePipelined(ms []*Matrix, v []float64) ([]float64, error) {
	return pipearray.Solve(ms, v)
}

// SolveBroadcast runs Design 2 (the broadcast array of Figure 4).
func SolveBroadcast(ms []*Matrix, v []float64) ([]float64, error) {
	return bcastarray.Solve(ms, v)
}

// FeedbackResult is the Design-3 result: optimal cost, assignment, and
// per-PE busy counts.
type FeedbackResult = fbarray.Result

// SolveFeedback runs Design 3 (the feedback array of Figure 5) on a
// node-valued serial problem, returning cost and reconstructed path.
func SolveFeedback(p *NodeValued) (*FeedbackResult, error) { return fbarray.Solve(p) }

// OptimalOrder solves the matrix-chain ordering problem (equation (6)) and
// returns the minimum cost and parenthesisation.
func OptimalOrder(dims []int) (cost float64, order string, err error) {
	tab, err := matchain.DP(dims)
	if err != nil {
		return 0, "", err
	}
	return tab.OptimalCost(), tab.Parenthesization(), nil
}

// ParallelChainProduct multiplies a string of matrices over (MIN,+) with
// the Section-4 divide-and-conquer schedule on k workers.
func ParallelChainProduct(ms []*Matrix, k int) (*Matrix, error) {
	res, err := dnc.ParallelChain(semiring.MinPlus{}, ms, k)
	if err != nil {
		return nil, err
	}
	return res.Product, nil
}

// OptimalGranularity is the paper's KT^2-optimal processor count
// N/log2(N) for multiplying a string of N matrices (Theorem 1).
func OptimalGranularity(n int) int { return dnc.OptimalGranularity(n) }

// RandomGraph generates an n-stage multistage graph with m nodes per stage
// and uniform edge costs in [lo, hi).
func RandomGraph(rng *rand.Rand, n, m int, lo, hi float64) *Graph {
	return multistage.RandomUniform(rng, n, m, lo, hi)
}

// SingleSourceSink wraps a graph with one-node first and last stages
// (Figure 1(a)).
func SingleSourceSink(g *Graph) *Graph {
	return multistage.SingleSourceSink(semiring.MinPlus{}, g)
}

// ShortestPath solves a multistage graph with the sequential baseline and
// returns an optimal path.
func ShortestPath(g *Graph) Path {
	return multistage.SolveOptimal(semiring.MinPlus{}, g)
}

// Workload returns a named node-valued workload ("traffic", "circuit",
// "fluid", "scheduling") from Section 2.2 of the paper.
func Workload(name string, rng *rand.Rand, stages, values int) (*NodeValued, error) {
	return workload.ByName(name, rng, stages, values)
}

// BranchAndBound solves a multistage graph by best-first branch-and-bound
// with the DP dominance test — Section 1's observation that DP is a
// special case of B&B — returning the optimal cost, a path, and the
// number of OR-tree nodes expanded.
func BranchAndBound(g *Graph, workers int) (cost float64, path []int, expanded int, err error) {
	res, err := bnb.Solve(g, bnb.Options{
		Dominance: true,
		Bound:     bnb.NewBoundStageMin(g),
		Workers:   workers,
	})
	if err != nil {
		return 0, nil, 0, err
	}
	return res.Cost, res.Path, res.Expanded, nil
}

// MeshMultiply computes the (MIN,+) product of two equal square matrices
// on the 2D systolic mesh — the matrix-multiplication array Section 4
// treats as its unit of work (completion in 3n-2 cycles).
func MeshMultiply(a, b *Matrix) (*Matrix, error) {
	return mesh.Mul(semiring.MinPlus{}, a, b)
}

// BST is the optimal binary-search-tree problem of Section 2.1 (the
// paper's second polyadic example): P are key access weights, Q the gap
// weights around them.
type BST = obst.Problem

// OptimalBST solves the optimal binary-search-tree problem with Knuth's
// O(n^2) algorithm and returns the expected search cost, the root key
// index, and the child arrays of the optimal tree.
func OptimalBST(p *BST) (cost float64, root int, left, right []int, err error) {
	tab, err := p.SolveKnuth()
	if err != nil {
		return 0, 0, nil, nil, err
	}
	root, left, right = tab.Tree()
	return tab.OptimalCost(), root, left, right, nil
}

// DataflowChainProduct multiplies a heterogeneous matrix string in its
// optimal parenthesisation order (the secondary optimization problem of
// Section 4) on `workers` asynchronous processors, returning the product,
// the total scalar-operation count, and the simulated makespan.
func DataflowChainProduct(ms []*Matrix, workers int) (*Matrix, float64, float64, error) {
	prod, st, err := dnc.DataflowChain(semiring.MinPlus{}, ms, workers)
	if err != nil {
		return nil, 0, 0, err
	}
	return prod, st.TotalOps, st.Makespan, nil
}

// RunExperiment regenerates one of the paper's tables/figures by ID
// (E1-E10; see DESIGN.md) and returns the rendered table.
func RunExperiment(id string) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	tab, err := e.Run()
	if err != nil {
		return "", err
	}
	return tab.Render(), nil
}

// ExperimentIDs lists the available experiment IDs in order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// SolveFeedbackStaged runs Design 3 with per-stage F_i units (the general
// Figure 5) on a staged node-valued problem.
func SolveFeedbackStaged(p *StagedNodeValued) (*FeedbackResult, error) {
	arr, err := fbarray.NewStaged(semiring.MinPlus{}, p)
	if err != nil {
		return nil, err
	}
	return arr.Run(false)
}

// StagedNodeValued is the node-valued serial problem with stage-dependent
// edge costs.
type StagedNodeValued = multistage.StagedNodeValued

// StreamProblem is one instance of a Design-1 batch (see StreamPipelined).
type StreamProblem = pipearray.StreamProblem

// StreamPipelined feeds a batch of identically-shaped matrix-string
// problems back-to-back through one Design-1 array — B results for a
// single pipeline fill — returning each problem's result vector.
func StreamPipelined(problems []StreamProblem) ([][]float64, error) {
	st, err := pipearray.NewStream(problems)
	if err != nil {
		return nil, err
	}
	return st.Run(false)
}

// OptimalEliminationOrder computes the cheapest order in which to
// eliminate the interior stages of an irregular multistage graph (the
// Section 5 closing analysis; the recurrence is the secondary
// optimization problem). It returns the total comparison count and the
// elimination sequence.
func OptimalEliminationOrder(stageSizes []int) (int, []int, error) {
	return andor.EliminationOrder(stageSizes)
}

// DTWDistance computes the dynamic-time-warping distance between two
// series — the pattern-recognition DP of the paper's Section 1 citations
// — on the anti-diagonal systolic array (n+m-1 cycles). It runs only the
// array; dpcheck diffs the array bitwise against dtw.Sequential, the
// sweep the server runs.
func DTWDistance(x, y []float64) (float64, error) {
	arr, err := dtw.New(y, dtw.AbsDist)
	if err != nil {
		return 0, err
	}
	got, _, err := arr.Match(x, false)
	return got, err
}
