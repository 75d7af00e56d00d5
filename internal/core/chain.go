package core

import (
	"fmt"

	"systolicdp/internal/matchain"
)

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

// Work prices equation (6)'s O(n³) table fill: n³/6 min-plus updates.
func (p *ChainOrderingProblem) Work() (string, float64) {
	return "chain", matchain.Updates(len(p.Dims)-1) + 1
}

func (p *ChainOrderingProblem) solve() (*Solution, error) {
	// Pooled flat-table kernel, bitwise identical to matchain.DP.
	cost, paren, err := matchain.SolveFast(p.Dims)
	return &Solution{Cost: cost, Ordering: paren}, err
}
