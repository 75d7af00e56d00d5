package core

import (
	"fmt"

	"systolicdp/internal/dnc"
	"systolicdp/internal/matrix"
	"systolicdp/internal/semiring"
)

// MatrixStringProblem is a polyadic-serial problem: the same multistage
// search posed as a string of matrix multiplications evaluated by parallel
// divide-and-conquer (Section 4) on Workers processors.
type MatrixStringProblem struct {
	Matrices []*matrix.Matrix
	Workers  int
}

// Classify reports polyadic-serial.
func (p *MatrixStringProblem) Classify() Class { return Class{Polyadic, Serial} }

// Describe names the problem.
func (p *MatrixStringProblem) Describe() string {
	return fmt.Sprintf("matrix string (N=%d) by divide-and-conquer on %d workers", len(p.Matrices), p.Workers)
}

// Work counts the divide-and-conquer products: N − 1 for a string of N
// matrices, plus one so that a single matrix is still priced.
func (p *MatrixStringProblem) Work() (string, float64) {
	return "matrixstring", float64(len(p.Matrices))
}

func (p *MatrixStringProblem) solve() (*Solution, error) {
	workers := p.Workers
	if workers < 1 {
		workers = dnc.OptimalGranularity(len(p.Matrices))
	}
	mp := semiring.MinPlus{}
	res, err := dnc.ParallelChain(mp, p.Matrices, workers)
	if err != nil {
		return nil, err
	}
	// The product matrix's fold is the best any-to-any cost.
	return &Solution{Cost: semiring.Fold(mp, res.Product.Data)}, nil
}
