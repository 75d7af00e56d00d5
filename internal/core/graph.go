package core

import (
	"fmt"

	"systolicdp/internal/matrix"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
)

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

// Work prices every design at one multiply-accumulate per edge: each
// is answered by a sweep over the graph's cost matrices.
func (p *MultistageProblem) Work() (string, float64) {
	total := 0.0
	for _, c := range p.Graph.Matrices() {
		total += float64(c.Rows * c.Cols)
	}
	return "graph", total
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

func (p *MultistageProblem) solve() (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mp := semiring.MinPlus{}
	if p.Design == 0 {
		path := multistage.SolveOptimal(mp, p.Graph)
		return &Solution{Cost: path.Cost, Path: path.Nodes}, nil
	}
	// Designs 1-2 answer the arrays' own product, the vector the
	// pipelined and broadcast arrays emit (pipearray.ReferenceSolve),
	// swept directly: stepping a simulated array cycle by cycle on one
	// core gives the same bits at 18-29 times the cost
	// (BenchmarkSolveGraph). The answer stays cost-only, as the arrays'
	// is.
	mats := p.Graph.Matrices()
	k := len(mats)
	return &Solution{Cost: semiring.Fold(mp, matrix.ChainVec(mp, mats[:k-1], mats[k-1].Col(0)))}, nil
}
