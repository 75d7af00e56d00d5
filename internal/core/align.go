package core

import (
	"fmt"

	"systolicdp/internal/align"
)

// AlignProblem is affine-gap sequence alignment (Needleman–Wunsch–
// Gotoh): a 2-D monadic-serial lattice like DTW, but with a
// three-layer affine-gap state, swept two rows at a time by
// align.Sequential. Empty series are legal (all-gap alignments).
type AlignProblem struct {
	X, Y   []float64
	Params align.Params
}

// Classify reports monadic-serial: each lattice cell is a monadic
// recurrence over its three neighbours, swept serially by rows.
func (p *AlignProblem) Classify() Class { return Class{Monadic, Serial} }

// Describe names the problem. Every align response carries this text,
// so it keeps naming the anti-diagonal array the lattice maps onto.
func (p *AlignProblem) Describe() string {
	return fmt.Sprintf("affine-gap alignment (|x|=%d, |y|=%d, open=%g, ext=%g), anti-diagonal array",
		len(p.X), len(p.Y), p.Params.Open, p.Params.Ext)
}

// Work counts three affine-gap layers over the boundary-inclusive
// lattice.
func (p *AlignProblem) Work() (string, float64) {
	return "align", float64(align.Cells(len(p.X), len(p.Y))) + 1
}

func (p *AlignProblem) solve() (*Solution, error) {
	c, err := align.Sequential(p.X, p.Y, p.Params)
	return &Solution{Cost: c}, err
}
