package core

import (
	"fmt"

	"systolicdp/internal/knapsack"
)

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

// Work counts Lawler-Moore's n lockstep waves over a row of Horizon+1
// cells.
func (p *KnapsackProblem) Work() (string, float64) {
	return "knapsack", float64(len(p.Jobs)*(knapsack.Horizon(p.Jobs)+1)) + 1
}

func (p *KnapsackProblem) solve() (*Solution, error) {
	// Pooled lockstep wave engine, bitwise identical to knapsack.Sequential.
	c, _, err := knapsack.Lockstep(p.Jobs)
	return &Solution{Cost: c}, err
}
