package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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
		if math.Abs(got-want) > 1e-9 {
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
		if math.Abs(got-want) > 1e-9 {
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
		return err == nil && math.Abs(got-want) < 1e-9
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

func BenchmarkDTWSequential256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x, y := randomSeries(rng, 256), randomSeries(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sequential(x, y, AbsDist); err != nil {
			b.Fatal(err)
		}
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
