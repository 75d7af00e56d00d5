package matchain

import (
	"fmt"
	"math/rand"
	"testing"
)

func randDims(rng *rand.Rand, n int) []int {
	dims := make([]int, n+1)
	for i := range dims {
		dims[i] = 1 + rng.Intn(12)
	}
	return dims
}

// TestFlatBitwiseVsDP pins the flat kernel cell-by-cell against DP:
// every Cost value bitwise, every Split index equal, plus the rendered
// parenthesization. The n list shrinks after its largest case, so
// SolveFast also runs on a pooled table grown for a longer chain that
// still holds stale cells from the old layout.
func TestFlatBitwiseVsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 7, 16, 40, 7, 1} {
		dims := randDims(rng, n)
		want, err := DP(dims)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DPFlat(dims)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if got.Cost[i*n+j] != want.Cost[i][j] {
					t.Fatalf("n=%d cell (%d,%d): cost %v != %v", n, i, j, got.Cost[i*n+j], want.Cost[i][j])
				}
				if got.CostT[j*n+i] != want.Cost[i][j] {
					t.Fatalf("n=%d cell (%d,%d): transpose out of sync", n, i, j)
				}
				if got.Split[i*n+j] != want.Split[i][j] {
					t.Fatalf("n=%d cell (%d,%d): split %d != %d", n, i, j, got.Split[i*n+j], want.Split[i][j])
				}
			}
		}
		if got.Parenthesization() != want.Parenthesization() {
			t.Fatalf("n=%d: parenthesization %q != %q", n, got.Parenthesization(), want.Parenthesization())
		}
		cost, paren, err := SolveFast(dims)
		if err != nil {
			t.Fatal(err)
		}
		if cost != want.OptimalCost() || paren != want.Parenthesization() {
			t.Fatalf("n=%d: SolveFast (%v, %q) != DP (%v, %q)", n, cost, paren, want.OptimalCost(), want.Parenthesization())
		}
	}
}

func TestFlatRejectsBadDims(t *testing.T) {
	if _, err := DPFlat([]int{3}); err == nil {
		t.Fatal("single-dim chain accepted")
	}
	if _, err := DPFlat([]int{3, 0, 2}); err == nil {
		t.Fatal("nonpositive dimension accepted")
	}
	if _, _, err := SolveFast([]int{3}); err == nil {
		t.Fatal("SolveFast accepted a single-dim chain")
	}
}

// TestFlatSolveZeroAllocSteadyState is the tentpole's allocation gate
// for the chain kernel: refilling a warm flat table allocates nothing.
func TestFlatSolveZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	rng := rand.New(rand.NewSource(23))
	dims := randDims(rng, 24)
	var f Flat
	if err := f.Solve(dims); err != nil { // warm the backing arrays
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Solve(dims); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Flat.Solve allocates %v objects/op steady-state, want 0", allocs)
	}
}

func BenchmarkChainDP24(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	dims := randDims(rng, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DP(dims); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainFlat24(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	dims := randDims(rng, 24)
	var f Flat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Solve(dims); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFlatParenthesizationMatchesTable diffs the flat table's rendering
// against the table DP's on random chains of up to 200 matrices, past
// the one-, two- and three-digit index boundaries, and checks that the
// buffer was sized to the string exactly.
func TestFlatParenthesizationMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		dims := randDims(rng, 1+rng.Intn(200))
		want, err := DP(dims)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DPFlat(dims)
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.Parenthesization(), want.Parenthesization()
		if g != w {
			t.Fatalf("n=%d: %q != %q", len(dims)-1, g, w)
		}
		if len(g) != parenLen(len(dims)-1) {
			t.Fatalf("n=%d: %d bytes, sized for %d", len(dims)-1, len(g), parenLen(len(dims)-1))
		}
	}
}

// TestSolveFastAllocatesString pins a warm SolveFast at one allocation,
// the returned string, whose buffer Parenthesization sizes up front.
func TestSolveFastAllocatesString(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 8, 9, 10, 99, 100, 120} {
		dims := randDims(rng, n)
		if _, _, err := SolveFast(dims); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := SolveFast(dims); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("n=%d: %v allocs per warm SolveFast, want 1 (the string)", n, allocs)
		}
	}
}

var parenSink string

// BenchmarkSolveFast times the served chain kernel, table and string,
// at mix-small's chain lengths (8, 24) and a compute-large one (120).
func BenchmarkSolveFast(b *testing.B) {
	for _, n := range []int{8, 24, 120} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dims := randDims(rand.New(rand.NewSource(25)), n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, paren, err := SolveFast(dims)
				if err != nil {
					b.Fatal(err)
				}
				parenSink = paren
			}
		})
	}
}
