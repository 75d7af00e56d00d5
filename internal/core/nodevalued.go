package core

import (
	"fmt"

	"systolicdp/internal/multistage"
)

// NodeValuedProblem is a monadic-serial problem in the node-valued form of
// equation (4), Design 3's input. Solve serves it with
// NodeValued.SolveMinPlus, the pooled form of SolvePath, which evaluates
// the array's h + f terms with its strict-< tie rule and so returns the
// array's cost and path bit for bit on finite sums.
type NodeValuedProblem struct {
	Problem *multistage.NodeValued
}

// Classify reports monadic-serial.
func (p *NodeValuedProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *NodeValuedProblem) Describe() string {
	return fmt.Sprintf("node-valued serial problem (%d stages), Design 3", p.Problem.Stages())
}

// Work counts the pairwise comparisons: the elimination sweep relaxes
// |N_k|·|N_k+1| transitions per stage pair.
func (p *NodeValuedProblem) Work() (string, float64) {
	vs := p.Problem.Values
	total := 0.0
	for k := 0; k+1 < len(vs); k++ {
		total += float64(len(vs[k]) * len(vs[k+1]))
	}
	return "nodevalued", total + 1
}

func (p *NodeValuedProblem) solve() (*Solution, error) {
	if err := p.Problem.Validate(); err != nil {
		return nil, err
	}
	path := p.Problem.SolveMinPlus()
	return &Solution{Cost: path.Cost, Path: path.Nodes}, nil
}
