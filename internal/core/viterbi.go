package core

import (
	"fmt"

	"systolicdp/internal/viterbi"
)

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

// Work counts one relaxation per trellis edge plus the final fold over
// the last stage's states.
func (p *ViterbiProblem) Work() (string, float64) {
	return "viterbi", float64(p.Trellis.Work()) + 1
}

func (p *ViterbiProblem) solve() (*Solution, error) {
	// Uniform or ragged, the sweep evaluates the feedback array's
	// h + EdgeCost terms with its tie rule: the array's answer.
	cost, path, err := p.Trellis.Sequential()
	return &Solution{Cost: cost, Path: path}, err
}
