package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func randomSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 10
	}
	return out
}

func TestSequentialKnownValues(t *testing.T) {
	// Identical series: distance 0.
	x := []float64{1, 2, 3, 4}
	got, err := Sequential(x, x, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("self-distance %v, want 0", got)
	}
	// A shifted copy warps at cost of the boundary mismatches only.
	a := []float64{0, 0, 1, 2, 3}
	b := []float64{0, 1, 2, 3, 3}
	got, err = Sequential(a, b, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("warp distance %v, want 0 (time-shifted series align)", got)
	}
	// Hand-computed 2x2: x=[0,1], y=[2,3].
	// D(0,0)=2; D(0,1)=2+3=5; D(1,0)=2+1=3; D(1,1)=|1-3|+min(5,3,2)=4.
	got, err = Sequential([]float64{0, 1}, []float64{2, 3}, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("2x2 distance %v, want 4", got)
	}
}

func TestSequentialErrors(t *testing.T) {
	if _, err := Sequential(nil, []float64{1}, nil); err == nil {
		t.Error("empty x accepted")
	}
	if _, err := Sequential([]float64{1}, nil, nil); err == nil {
		t.Error("empty y accepted")
	}
}

// fullTable is the textbook DTW over the whole |x| × |y| table, row by
// row with a nil d taken as AbsDist: an oracle that shares neither the
// sweep's diagonal order nor its transpose.
func fullTable(x, y []float64, d Dist) float64 {
	if d == nil {
		d = AbsDist
	}
	D := make([][]float64, len(x))
	for i := range x {
		D[i] = make([]float64, len(y))
		for j := range y {
			c := d(x[i], y[j])
			switch {
			case i == 0 && j == 0:
				D[i][j] = c
			case i == 0:
				D[i][j] = c + D[i][j-1]
			case j == 0:
				D[i][j] = c + D[i-1][j]
			default:
				D[i][j] = c + min(D[i-1][j], D[i][j-1], D[i-1][j-1])
			}
		}
	}
	return D[len(x)-1][len(y)-1]
}

func TestSequentialMatchesFullTable(t *testing.T) {
	dists := []struct {
		name string
		d    Dist
	}{
		{"nil", nil},
		{"abs", AbsDist},
		{"sq", SqDist},
		// Asymmetric, so a transpose that forgets to swap d's operands
		// changes the answer.
		{"asym", func(a, b float64) float64 { return math.Abs(2*a - b) }},
	}
	shapes := [][2]int{{1, 1}, {1, 40}, {40, 1}, {3, 500}, {500, 3}, {37, 41}, {41, 37}}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		x, y := randomSeries(rng, sh[0]), randomSeries(rng, sh[1])
		for _, dc := range dists {
			got, err := Sequential(x, y, dc.d)
			if err != nil {
				t.Fatal(err)
			}
			if want := fullTable(x, y, dc.d); got != want {
				t.Errorf("%dx%d %s: Sequential %v, full table %v", sh[0], sh[1], dc.name, got, want)
			}
		}
	}
}

// TestSequentialAllocatesTwoDiagonals pins the sweep's storage at two
// slices of min(|x|,|y|) floats, in either orientation, on a lattice at
// Validate's 2^24-cell cap. A row sweep along y would hold 2·2^20
// floats (16 MiB) for the first shape. Each solve runs on an empty
// pool, so it allocates its workspace and both diagonals: two
// collections empty the pool, and one Get whose workspace is dropped
// rebuilds the pool's per-P array, which is not the solve's storage.
func TestSequentialAllocatesTwoDiagonals(t *testing.T) {
	short, long := make([]float64, 16), make([]float64, 1<<20)
	const wantAllocs = 3
	wantBytes := uint64(unsafe.Sizeof(diagonals{})) + 2*16*8
	for _, tc := range []struct {
		name string
		x, y []float64
		d    Dist
	}{
		{"16x2^20", short, long, nil},
		{"2^20x16", long, short, AbsDist},
	} {
		// Other goroutines (the race runtime's among them) can only add
		// to the process-wide counters, so the fewest of up to three
		// solves bounds what one solve allocates.
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for try := 0; try < 3 && (allocs != wantAllocs || bytes != wantBytes); try++ {
			runtime.GC()
			runtime.GC()
			diagPool.Get()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Sequential(tc.x, tc.y, tc.d); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		if allocs != wantAllocs || bytes != wantBytes {
			t.Errorf("%s: %d allocs and %d bytes per solve on an empty pool, want %d and %d (the workspace and two slices of 16 floats)",
				tc.name, allocs, bytes, wantAllocs, wantBytes)
		}
	}
}

// TestSequentialWarmSolveAllocatesNothing pins the pooled diagonals:
// once a solve has returned them, the next one takes them back.
func TestSequentialWarmSolveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	x, y := randomSeries(rng, 37), randomSeries(rng, 41)
	if _, err := Sequential(x, y, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Sequential(x, y, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm solve, want 0", allocs)
	}
}

// TestSequentialConcurrentSolves runs solves on distinct small lattices,
// 1 × k and k × 1, from several goroutines at once and checks every
// answer against the full table. A solve that read its answer after
// returning its diagonals to the pool could return a cell another solve
// wrote there; under the race detector that read is reported.
func TestSequentialConcurrentSolves(t *testing.T) {
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				x, y := randomSeries(rng, 1), randomSeries(rng, 1+rng.Intn(8))
				if r%2 == 1 {
					x, y = y, x
				}
				got, err := Sequential(x, y, nil)
				if want := fullTable(x, y, AbsDist); err != nil || got != want {
					t.Errorf("%d×%d: Sequential (%v, %v), full table %v", len(x), len(y), got, err, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestArrayMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n, m := 1+rng.Intn(12), 1+rng.Intn(12)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		want, err := Sequential(x, y, AbsDist)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := New(y, AbsDist)
		if err != nil {
			t.Fatal(err)
		}
		got, cycles, err := arr.Match(x, false)
		if err != nil {
			t.Fatalf("trial %d (n=%d m=%d): %v", trial, n, m, err)
		}
		// The array and the sweep add the same operands per cell.
		if got != want {
			t.Fatalf("trial %d (n=%d m=%d): array %v, sequential %v", trial, n, m, got, want)
		}
		if cycles != n+m-1 {
			t.Fatalf("trial %d: %d cycles, want n+m-1 = %d", trial, cycles, n+m-1)
		}
	}
}

func TestArrayGoroutinesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomSeries(rng, 9)
	y := randomSeries(rng, 7)
	arr, err := New(y, SqDist)
	if err != nil {
		t.Fatal(err)
	}
	lock, _, err := arr.Match(x, false)
	if err != nil {
		t.Fatal(err)
	}
	goro, _, err := arr.Match(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lock-goro) > 1e-12 {
		t.Errorf("lockstep %v != goroutines %v", lock, goro)
	}
}

func TestArrayReuseAcrossQueries(t *testing.T) {
	// One reference array matched against many queries (the speech-
	// recognition deployment: templates in hardware, utterances stream).
	rng := rand.New(rand.NewSource(3))
	y := randomSeries(rng, 8)
	arr, err := New(y, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5; q++ {
		x := randomSeries(rng, 4+q)
		want, err := Sequential(x, y, AbsDist)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := arr.Match(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: %v vs %v", q, got, want)
		}
	}
}

func TestArrayErrors(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty reference accepted")
	}
	arr, err := New([]float64{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := arr.Match(nil, false); err == nil {
		t.Error("empty query accepted")
	}
}

func TestDistanceSymmetryOnEqualLengths(t *testing.T) {
	// DTW with a symmetric pointwise distance is symmetric.
	rng := rand.New(rand.NewSource(4))
	x := randomSeries(rng, 10)
	y := randomSeries(rng, 10)
	ab, err := Sequential(x, y, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Sequential(y, x, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab-ba) > 1e-9 {
		t.Errorf("asymmetric: %v vs %v", ab, ba)
	}
}

func TestPropertyArrayEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomSeries(rng, 1+rng.Intn(10))
		y := randomSeries(rng, 1+rng.Intn(10))
		want, err := Sequential(x, y, SqDist)
		if err != nil {
			return false
		}
		arr, err := New(y, SqDist)
		if err != nil {
			return false
		}
		got, _, err := arr.Match(x, false)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLowerBound(t *testing.T) {
	// DTW distance is at least |sum endpoint mismatch| 0 and at most the
	// pointwise cost of the diagonal-ish path; sanity: non-negative.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomSeries(rng, 1+rng.Intn(8))
		y := randomSeries(rng, 1+rng.Intn(8))
		d, err := Sequential(x, y, AbsDist)
		return err == nil && d >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatchBankFindsNearestTemplate(t *testing.T) {
	templates := [][]float64{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 2, 2, 2, 2},
	}
	// A noisy rising ramp must match template 0.
	query := []float64{0.1, 0.9, 2.1, 2.9, 4.2}
	best, dist, err := MatchBank(templates, query, AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 {
		t.Errorf("best = %d (dist %v), want 0", best, dist)
	}
	// The reported distance equals the direct computation.
	want, err := Sequential(query, templates[0], AbsDist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist-want) > 1e-9 {
		t.Errorf("dist %v, want %v", dist, want)
	}
}

func TestMatchBankErrors(t *testing.T) {
	if _, _, err := MatchBank(nil, []float64{1}, nil); err == nil {
		t.Error("empty bank accepted")
	}
	if _, _, err := MatchBank([][]float64{{}}, []float64{1}, nil); err == nil {
		t.Error("empty template accepted")
	}
}

// benchShapes are the kernel benchmark lattices, |x| × |y|: a series
// against one sample, mix-small's largest square, a mid-size square, a
// compute-large-size lattice, and a thin lattice that leaves the
// wavefront three cells wide.
var benchShapes = [][2]int{{36, 1}, {36, 36}, {256, 256}, {1000, 963}, {3, 900}}

// intSeries draws integer samples in [-999, 999], the range of
// compute-large's dtw series in perfbench.
func intSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(rng.Intn(1999) - 999)
	}
	return s
}

var benchSink float64

// BenchmarkDTWSequential times the served path (nil Dist) per lattice
// cell.
func BenchmarkDTWSequential(b *testing.B) {
	for _, sh := range benchShapes {
		n, m := sh[0], sh[1]
		b.Run(fmt.Sprintf("%dx%d", n, m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			x, y := intSeries(rng, n), intSeries(rng, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := Sequential(x, y, nil)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*m), "ns/cell")
		})
	}
}

func BenchmarkDTWArray256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := randomSeries(rng, 256), randomSeries(rng, 256)
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
