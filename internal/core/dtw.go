package core

import (
	"fmt"

	"systolicdp/internal/dtw"
)

// DTWProblem is the pattern-recognition DP of the paper's Section 1
// citations: dynamic time warping of a query series X against a template
// Y. The anti-diagonal linear systolic array (dtw.New) computes it in
// n+m-1 cycles; Solve serves it with dtw.Sequential, which sweeps the
// same anti-diagonals one after another on one core.
type DTWProblem struct {
	X, Y []float64
}

// Classify reports monadic-serial: the DTW lattice is a monadic
// recurrence swept serially along anti-diagonals.
func (p *DTWProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem.
func (p *DTWProblem) Describe() string {
	return fmt.Sprintf("dynamic time warping (|x|=%d, |y|=%d), anti-diagonal array", len(p.X), len(p.Y))
}

// Work counts the warping lattice's |x|·|y| cells.
func (p *DTWProblem) Work() (string, float64) {
	return "dtw", float64(len(p.X)*len(p.Y)) + 1
}

func (p *DTWProblem) solve() (*Solution, error) {
	// dtw.Sequential under |a-b|, the reference the differential checker
	// diffs bitwise against the cycle-stepped array; one solve holds one
	// core and two diagonals of min(|x|,|y|) floats.
	d, err := dtw.Sequential(p.X, p.Y, nil)
	return &Solution{Cost: d}, err
}
