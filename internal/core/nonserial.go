package core

import (
	"fmt"

	"systolicdp/internal/nonserial"
)

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

// Work prices equation (40)'s shape: eliminating variable i scans the
// product of the three adjacent domains.
func (p *NonserialChainProblem) Work() (string, float64) {
	return "nonserial", float64(nonserial.TermSteps(p.Chain.Domains)) + 1
}

func (p *NonserialChainProblem) solve() (*Solution, error) {
	// Pooled monomorphized elimination (equations (37)-(39)), bitwise
	// identical to Eliminate and to the grouped Design-3 array the
	// differential checker pins it against.
	cost, _, err := nonserial.EliminateFast(p.Chain)
	return &Solution{Cost: cost}, err
}
