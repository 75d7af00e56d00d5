package core

import (
	"fmt"

	"systolicdp/internal/align"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/knapsack"
	"systolicdp/internal/semiring"
	"systolicdp/internal/viterbi"
)

// AlignProblem is affine-gap sequence alignment (Needleman–Wunsch–
// Gotoh): a 2-D monadic-serial lattice like DTW, but with the
// three-layer affine-gap state swept along anti-diagonals. Empty series
// are legal (all-gap alignments).
type AlignProblem struct {
	X, Y   []float64
	Params align.Params
}

// Classify reports monadic-serial: each lattice cell is a monadic
// recurrence over its three neighbours, swept serially by anti-diagonals.
func (p *AlignProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *AlignProblem) Describe() string {
	return fmt.Sprintf("affine-gap alignment (|x|=%d, |y|=%d, open=%g, ext=%g), anti-diagonal array",
		len(p.X), len(p.Y), p.Params.Open, p.Params.Ext)
}

func solveAlign(p *AlignProblem) (*Solution, error) {
	c, err := align.Sequential(p.X, p.Y, p.Params)
	if err != nil {
		return nil, err
	}
	return &Solution{Class: p.Classify(), Method: Recommend(p.Classify()).Method, Cost: c}, nil
}

// ViterbiProblem is the trellis path DP with node and transition costs,
// the monadic-serial problem Design 3's node-valued feedback array
// solves: states play the role of quantized values and the staged cost
// function folds node costs into the edges.
type ViterbiProblem struct {
	Trellis *viterbi.Trellis
}

// Classify reports monadic-serial.
func (p *ViterbiProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *ViterbiProblem) Describe() string {
	return fmt.Sprintf("viterbi trellis (%d stages), Design 3 feedback array", p.Trellis.Stages())
}

func solveViterbi(p *ViterbiProblem) (*Solution, error) {
	if err := p.Trellis.Validate(); err != nil {
		return nil, err
	}
	sol := &Solution{Class: p.Classify(), Method: Recommend(p.Classify()).Method}
	// The feedback array needs Design 3's regularity: a uniform trellis
	// with at least one transition. Non-uniform or single-stage trellises
	// take the sequential sweep — bitwise identical either way (the
	// differential checker pins all engines to Sequential).
	if _, uniform := p.Trellis.Uniform(); uniform && p.Trellis.Stages() >= 2 {
		arr, err := fbarray.NewStaged(semiring.MinPlus{}, p.Trellis.Staged())
		if err != nil {
			return nil, err
		}
		res, err := arr.Run(false)
		if err != nil {
			return nil, err
		}
		sol.Cost, sol.Path = res.Cost, res.Path
		return sol, nil
	}
	cost, path, err := p.Trellis.Sequential()
	if err != nil {
		return nil, err
	}
	sol.Cost, sol.Path = cost, path
	return sol, nil
}

// KnapsackProblem is the weighted-deadline scheduling DP 1||Σ w_j U_j:
// minimize the total weight of late jobs on one machine via the
// Lawler–Moore knapsack-style row relaxation.
type KnapsackProblem struct {
	Jobs []knapsack.Job
}

// Classify reports monadic-serial: each wave relaxes the row from the
// previous wave's values only.
func (p *KnapsackProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *KnapsackProblem) Describe() string {
	return fmt.Sprintf("weighted-deadline scheduling (n=%d jobs, horizon %d), lockstep row",
		len(p.Jobs), knapsack.Horizon(p.Jobs))
}

func solveKnapsack(p *KnapsackProblem) (*Solution, error) {
	// Pooled lockstep wave engine, bitwise identical to knapsack.Sequential.
	c, _, err := knapsack.Lockstep(p.Jobs)
	if err != nil {
		return nil, err
	}
	return &Solution{Class: p.Classify(), Method: Recommend(p.Classify()).Method, Cost: c}, nil
}
