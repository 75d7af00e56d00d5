package core_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"systolicdp/internal/core"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
	"systolicdp/internal/spec"
	"systolicdp/internal/viterbi"
)

// Solve serves node-valued problems and Viterbi trellises with their
// sequential sweeps. These tests pin the served cost (bit for bit) and
// path to the Design-3 feedback array's on seeded uniform instances up to
// the sizes the compute-large and mix-small benchmark workloads serve
// (100 stages × 50 values, 21 stages × 18 states), well past the check
// generator's bounds.

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
	costs := spec.PairCosts()
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
			p := &multistage.NodeValued{Values: intMatrix(rng, n, m, -50, 50), F: costs[name]}
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
