package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"systolicdp/internal/bcastarray"
	"systolicdp/internal/core"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/multistage"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
	"systolicdp/internal/viterbi"
)

// Solve serves node-valued problems, Viterbi trellises and Design-1/2
// graphs with their sequential sweeps. These tests pin the served cost
// (bit for bit), and path where there is one, to the arrays' on seeded
// instances up to the sizes the compute-large and mix-small benchmark
// workloads serve (100 stages × 50 values, 21 stages × 18 states), well
// past the check generator's bounds.

func intMatrix(rng *rand.Rand, rows, cols, lo, hi int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = float64(lo + rng.Intn(hi-lo+1))
		}
	}
	return m
}

func TestSolveNodeValuedMatchesArrayAtServedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	costs := multistage.PairCosts()
	names := make([]string, 0, len(costs))
	for name := range costs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i := 0; i < 12; i++ {
			n, m := 2+rng.Intn(99), 1+rng.Intn(50)
			if i == 0 {
				n, m = 100, 50
			}
			p, _ := multistage.Named(intMatrix(rng, n, m, -50, 50), name)
			got, err := core.Solve(&core.NodeValuedProblem{Problem: p})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fbarray.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !slices.Equal(got.Path, want.Path) {
				t.Errorf("%s %d×%d: served (%v, %v), array (%v, %v)", name, n, m, got.Cost, got.Path, want.Cost, want.Path)
			}
		}
	}
}

func TestSolveViterbiMatchesArrayAtServedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		n, m := 2+rng.Intn(20), 1+rng.Intn(18)
		if i == 0 {
			n, m = 21, 18
		}
		tr := &viterbi.Trellis{Node: intMatrix(rng, n, m, -99, 99)}
		for k := 0; k+1 < n; k++ {
			tr.Trans = append(tr.Trans, intMatrix(rng, m, m, -99, 99))
		}
		got, err := core.Solve(&core.ViterbiProblem{Trellis: tr})
		if err != nil {
			t.Fatal(err)
		}
		arr, err := fbarray.NewStaged(semiring.MinPlus{}, tr.Staged())
		if err != nil {
			t.Fatal(err)
		}
		want, err := arr.Run(false)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !slices.Equal(got.Path, want.Path) {
			t.Errorf("%d×%d: served (%v, %v), array (%v, %v)", n, m, got.Cost, got.Path, want.Cost, want.Path)
		}
	}
}

// Designs 1 and 2 are answered by the matrix-vector sweep the arrays
// evaluate, not by running them. With fractional weights the order of a
// path's additions shows in its bits, so the served cost (design 1, design
// 2 and the batch kernel) must equal the pipelined array's, the broadcast
// array's and the stream's under math.Float64bits; a sweep that adds the
// stages in another order (from the source, as multistage.SolveBackward
// does) differs here. Source stages narrower than m are included, since
// the arrays take those without padding.
func TestSolveGraphDesignsMatchArraysBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mp := semiring.MinPlus{}
	for i := 0; i < 300; i++ {
		m := 1 + rng.Intn(7)
		sizes := []int{1 + rng.Intn(m)}
		if i == 0 {
			m, sizes = 6, []int{2}
		}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			sizes = append(sizes, m)
		}
		g := multistage.Random(rng, append(sizes, 1), 0, 100)
		mats := g.Matrices()
		ms, v := mats[:len(mats)-1], mats[len(mats)-1].Col(0)

		pipe, err := pipearray.Solve(ms, v)
		if err != nil {
			t.Fatal(err)
		}
		want := semiring.Fold(mp, pipe)
		bcast, err := bcastarray.Solve(ms, v)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := core.SolveGraphBatch([]*multistage.Graph{g, g})
		if err != nil {
			t.Fatal(err)
		}
		d1 := &core.MultistageProblem{Graph: g, Design: 1}
		kernel, err := core.GraphStreamKernel{}.Solve([]core.Problem{d1, d1})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{
			"broadcast array": semiring.Fold(mp, bcast),
			"stream[0]":       stream[0].Cost,
			"stream[1]":       stream[1].Cost,
			"kernel[0]":       kernel[0].Cost,
			"kernel[1]":       kernel[1].Cost,
		}
		for design := 1; design <= 2; design++ {
			sol, err := core.Solve(&core.MultistageProblem{Graph: g, Design: design})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Path != nil {
				t.Errorf("stages %v design %d: served path %v, want cost only", g.StageSizes, design, sol.Path)
			}
			got[fmt.Sprintf("design %d", design)] = sol.Cost
		}
		for name, c := range got {
			if math.Float64bits(c) != math.Float64bits(want) {
				t.Errorf("stages %v: %s cost %v, pipelined array %v", g.StageSizes, name, c, want)
			}
		}
	}
}
