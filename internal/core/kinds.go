package core

import (
	"fmt"

	"systolicdp/internal/align"
	"systolicdp/internal/knapsack"
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
// function folds node costs into the edges. Solve serves it with the
// sequential sweep, not the cycle-stepped array.
type ViterbiProblem struct {
	Trellis *viterbi.Trellis
}

// Classify reports monadic-serial.
func (p *ViterbiProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *ViterbiProblem) Describe() string {
	return fmt.Sprintf("viterbi trellis (%d stages), Design 3 feedback array", p.Trellis.Stages())
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
