package dtw

import (
	"math"
	"math/rand"
	"testing"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Floor(rng.Float64()*20) - 10 // integer-valued: sums stay exact
	}
	return s
}

// TestSolveTiledBitwiseVsSequential sweeps tile sizes (including the
// degenerate 1×1 tiling and a single full-lattice tile) over a grid of
// lattice shapes (including 1×1, 1×m, n×1, tile-aligned and ragged) and
// requires bitwise agreement with Sequential for both named metrics and
// a func-valued metric.
func TestSolveTiledBitwiseVsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 5}, {64, 64}, {65, 63}, {1, 200}, {130, 3}, {129, 257}}
	tiles := []int{1, 7, 64, 0, 1 << 20} // 0 = default, 1<<20 = one full tile
	dists := map[string]Dist{"abs": AbsDist, "sq": SqDist}
	for _, sh := range shapes {
		x, y := randSeries(rng, sh[0]), randSeries(rng, sh[1])
		for name, d := range dists {
			want, err := Sequential(x, y, d)
			if err != nil {
				t.Fatal(err)
			}
			for _, T := range tiles {
				got, err := SolveTiled(x, y, d, T)
				if err != nil {
					t.Fatalf("%v %s T=%d: %v", sh, name, T, err)
				}
				if got != want {
					t.Fatalf("%v %s T=%d: tiled %v != sequential %v", sh, name, T, got, want)
				}
			}
		}
		// The monomorphized Abs op (nil Dist) must equal the func path.
		want, _ := Sequential(x, y, nil)
		got, err := SolveFast(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: SolveFast(nil) %v != Sequential %v", sh, got, want)
		}
	}
}

func TestSolveFastEmptySeries(t *testing.T) {
	if _, err := SolveFast(nil, []float64{1}, nil); err == nil {
		t.Fatal("empty x accepted")
	}
	if _, err := SolveFast([]float64{1}, nil, nil); err == nil {
		t.Fatal("empty y accepted")
	}
}

func TestSolveFastZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	rng := rand.New(rand.NewSource(11))
	x, y := randSeries(rng, 200), randSeries(rng, 150)
	if _, err := SolveFast(x, y, nil); err != nil { // warm the shape bucket
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SolveFast(x, y, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveFast allocates %v objects/op steady-state, want 0", allocs)
	}
}

func BenchmarkDTWSequential256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := randSeries(rng, 256), randSeries(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sequential(x, y, AbsDist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWSolveFast256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := randSeries(rng, 256), randSeries(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveFast(x, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWArray256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := randSeries(rng, 256), randSeries(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arr, err := New(y, AbsDist)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := arr.Match(x, false); err != nil {
			b.Fatal(err)
		}
	}
}
