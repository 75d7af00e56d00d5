package nonserial

import (
	"math/rand"
	"testing"
)

// TestEliminateFastBitwiseVsEliminate pins the monomorphized kernel —
// all three op paths (named default, named span, unnamed func) — against
// Eliminate in both cost (bitwise) and step count, over uniform and
// ragged domain profiles.
func TestEliminateFastBitwiseVsEliminate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	chains := []*Chain3{
		RandomChain3(rng, 3, 2, -5, 5),
		RandomChain3(rng, 6, 9, -10, 10),
		RandomUniformChain3(rng, 8, 5, 0, 1),
	}
	// A ragged profile: per-variable domain sizes differ.
	ragged := &Chain3{G: DefaultG, GName: GNameDefault}
	for k, m := range []int{2, 5, 3, 7, 4} {
		d := make([]float64, m)
		for i := range d {
			d[i] = rng.Float64()*20 - 10 + float64(k)
		}
		ragged.Domains = append(ragged.Domains, d)
	}
	chains = append(chains, ragged)
	for ci, base := range chains {
		variants := []*Chain3{
			base,
			{Domains: base.Domains, G: SpanG, GName: GNameSpan},
			{Domains: base.Domains, G: base.G}, // unnamed: FuncOp path
		}
		for vi, c := range variants {
			wantCost, wantSteps, err := c.Eliminate()
			if err != nil {
				t.Fatal(err)
			}
			gotCost, gotSteps, err := EliminateFast(c)
			if err != nil {
				t.Fatal(err)
			}
			if gotCost != wantCost {
				t.Fatalf("chain %d variant %d: cost %v != %v", ci, vi, gotCost, wantCost)
			}
			if gotSteps != wantSteps {
				t.Fatalf("chain %d variant %d: steps %d != %d", ci, vi, gotSteps, wantSteps)
			}
			if wantSteps != c.StepsEq40() {
				t.Fatalf("chain %d variant %d: steps %d != eq40 %d", ci, vi, wantSteps, c.StepsEq40())
			}
		}
	}
}

func TestEliminateFastRejectsInvalid(t *testing.T) {
	if _, _, err := EliminateFast(&Chain3{G: DefaultG}); err == nil {
		t.Fatal("chain with no variables accepted")
	}
	if _, _, err := EliminateFast(&Chain3{Domains: [][]float64{{1}, {1}, {1}}}); err == nil {
		t.Fatal("nil cost function accepted")
	}
}

// TestEliminateFastZeroAllocSteadyState is the tentpole's allocation
// gate for the nonserial kernel.
func TestEliminateFastZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	rng := rand.New(rand.NewSource(33))
	c := RandomChain3(rng, 8, 6, -5, 5)
	if _, _, err := EliminateFast(c); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := EliminateFast(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EliminateFast allocates %v objects/op steady-state, want 0", allocs)
	}
}

func BenchmarkEliminate12x8(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	c := RandomChain3(rng, 12, 8, -5, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Eliminate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEliminateFast12x8(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	c := RandomChain3(rng, 12, 8, -5, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EliminateFast(c); err != nil {
			b.Fatal(err)
		}
	}
}
