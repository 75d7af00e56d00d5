package align

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// bruteForce enumerates every alignment (sequence of match / gap-in-y /
// gap-in-x moves) recursively, charging affine gaps by tracking the
// previous move — the independent oracle for small instances.
func bruteForce(x, y []float64, p Params) float64 {
	const (
		moveNone = iota
		moveMatch
		moveGapX // consume x[i] against a gap
		moveGapY // consume y[j] against a gap
	)
	var rec func(i, j, last int) float64
	rec = func(i, j, last int) float64 {
		if i == len(x) && j == len(y) {
			return 0
		}
		best := math.Inf(1)
		if i < len(x) && j < len(y) {
			if v := math.Abs(x[i]-y[j]) + rec(i+1, j+1, moveMatch); v < best {
				best = v
			}
		}
		if i < len(x) {
			c := p.Ext
			if last != moveGapX {
				c += p.Open
			}
			if v := c + rec(i+1, j, moveGapX); v < best {
				best = v
			}
		}
		if j < len(y) {
			c := p.Ext
			if last != moveGapY {
				c += p.Open
			}
			if v := c + rec(i, j+1, moveGapY); v < best {
				best = v
			}
		}
		return best
	}
	return rec(0, 0, moveNone)
}

// engines are the two solvers every oracle test runs.
var engines = []struct {
	name  string
	solve func(x, y []float64, p Params) (float64, error)
}{{"Sequential", Sequential}, {"Reference", Reference}}

func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(rng.Intn(19) - 9)
	}
	return s
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x := randSeries(rng, rng.Intn(6))
		y := randSeries(rng, rng.Intn(6))
		p := Params{Open: float64(rng.Intn(5)), Ext: float64(1 + rng.Intn(3))}
		want := bruteForce(x, y, p)
		for _, e := range engines {
			got, err := e.solve(x, y, p)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if got != want {
				t.Fatalf("trial %d: |x|=%d |y|=%d %+v: %s %v, brute force %v",
					trial, len(x), len(y), p, e.name, got, want)
			}
		}
	}
}

// fullGotoh is Gotoh's recurrence over the whole (|x|+1) × (|y|+1)
// table, one slice per layer and each min in the textbook operand
// order: an oracle that shares neither the sweep's interleaved rows nor
// its carried left cell.
func fullGotoh(x, y []float64, p Params) float64 {
	inf := math.Inf(1)
	oe := p.Open + p.Ext
	M, X, Y := make([][]float64, len(x)+1), make([][]float64, len(x)+1), make([][]float64, len(x)+1)
	for i := range M {
		M[i], X[i], Y[i] = make([]float64, len(y)+1), make([]float64, len(y)+1), make([]float64, len(y)+1)
		for j := range M[i] {
			switch {
			case i == 0 && j == 0:
				M[i][j], X[i][j], Y[i][j] = 0, inf, inf
			case i == 0:
				M[i][j], X[i][j] = inf, inf
				Y[i][j] = min(M[i][j-1]+oe, Y[i][j-1]+p.Ext, X[i][j-1]+oe)
			case j == 0:
				M[i][j], Y[i][j] = inf, inf
				X[i][j] = min(M[i-1][j]+oe, X[i-1][j]+p.Ext, Y[i-1][j]+oe)
			default:
				M[i][j] = math.Abs(x[i-1]-y[j-1]) + min(M[i-1][j-1], X[i-1][j-1], Y[i-1][j-1])
				X[i][j] = min(M[i-1][j]+oe, X[i-1][j]+p.Ext, Y[i-1][j]+oe)
				Y[i][j] = min(M[i][j-1]+oe, Y[i][j-1]+p.Ext, X[i][j-1]+oe)
			}
		}
	}
	n, m := len(x), len(y)
	return min(M[n][m], X[n][m], Y[n][m])
}

func TestSequentialMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{{0, 40}, {40, 0}, {1, 40}, {40, 1}, {3, 300}, {300, 3}, {37, 41}, {42, 41}}
	for _, sh := range shapes {
		// Non-integer samples and penalties, so any change in the order
		// of a sum would show in the last bit.
		x, y := make([]float64, sh[0]), make([]float64, sh[1])
		for _, s := range [][]float64{x, y} {
			for i := range s {
				s[i] = rng.Float64()*20 - 10
			}
		}
		p := Params{Open: rng.Float64() * 5, Ext: rng.Float64() * 2}
		want := fullGotoh(x, y, p)
		for _, e := range engines {
			got, err := e.solve(x, y, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%dx%d %+v: %s %v, full table %v", sh[0], sh[1], p, e.name, got, want)
			}
		}
	}
}

// TestSequentialMatchesReference diffs the two-row pooled sweep against
// the three-layer recurrence bit for bit, on fractional samples and
// penalties, with Open = 0 or Ext = 0 (where the folded gap terms tie)
// or both -0, every pair of lengths up to 3 (so odd and even row
// counts, in either orientation) and random lengths up to 29.
func TestSequentialMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	frac := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()*20 - 10
		}
		return s
	}
	params := func(trial int) Params {
		p := Params{Open: rng.Float64() * 5, Ext: rng.Float64() * 2}
		switch trial % 4 {
		case 1:
			p.Open = 0
		case 2:
			p.Ext = 0
		case 3:
			p = Params{}
			if trial%8 == 7 {
				p = Params{Open: math.Copysign(0, -1), Ext: math.Copysign(0, -1)}
			}
		}
		return p
	}
	check := func(x, y []float64, p Params) {
		t.Helper()
		got, err := Sequential(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("|x|=%d |y|=%d %+v: Sequential %v, Reference %v\nx=%v\ny=%v",
				len(x), len(y), p, got, want, x, y)
		}
	}
	for trial := 0; trial < 400; trial++ {
		p := params(trial)
		for n := 0; n <= 3; n++ {
			for m := 0; m <= 3; m++ {
				check(frac(n), frac(m), p)
			}
		}
		x, y := frac(rng.Intn(30)), frac(rng.Intn(30))
		check(x, y, p)
		// Integer samples tie substitutions and gap runs exactly.
		check(randSeries(rng, rng.Intn(30)), randSeries(rng, rng.Intn(30)),
			Params{Open: float64(trial % 3), Ext: float64(trial % 2)})
	}
}

// TestSequentialWarmSolveAllocatesNothing pins the pooled row: once a
// solve has returned its row, the next one of the same width takes it
// back and allocates nothing.
func TestSequentialWarmSolveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	x, y := randSeries(rand.New(rand.NewSource(3)), 37), randSeries(rand.New(rand.NewSource(4)), 41)
	p := Params{Open: 3, Ext: 1}
	if _, err := Sequential(x, y, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Sequential(x, y, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm solve, want 0", allocs)
	}
}

// TestSequentialKeepsWideRowsOutOfPool solves the widest lattice the
// spec's work ceiling admits, 4 × 2^20, whose row is 16 MiB, and checks
// that the pool did not keep it.
func TestSequentialKeepsWideRowsOutOfPool(t *testing.T) {
	x, y := make([]float64, 4), make([]float64, 1<<20)
	if _, err := Sequential(x, y, Params{Open: 1, Ext: 1}); err != nil {
		t.Fatal(err)
	}
	rp := rowPool.Get().(*[]hx)
	if c := cap(*rp); c > maxPooledRow+1 {
		t.Errorf("pool holds a row of %d columns, want at most %d", c, maxPooledRow+1)
	}
	rowPool.Put(rp)
}

func TestEmptySeries(t *testing.T) {
	p := Params{Open: 3, Ext: 2}
	if got, _ := Sequential(nil, nil, p); got != 0 {
		t.Fatalf("align(empty, empty) = %v, want 0", got)
	}
	y := []float64{1, 2, 3}
	// One gap run over y: Open + 3*Ext.
	if got, _ := Sequential(nil, y, p); got != 3+3*2 {
		t.Fatalf("align(empty, y) = %v, want %v", got, 3+3*2)
	}
	if got, _ := Sequential(y, nil, p); got != 3+3*2 {
		t.Fatalf("align(y, empty) = %v, want %v", got, 3+3*2)
	}
}

// TestSymmetry checks Cost(x,y) == Cost(y,x). Sequential runs both
// orientations down the shorter series, so the transposed lattice goes
// through Reference.
func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		x := randSeries(rng, rng.Intn(10))
		y := randSeries(rng, rng.Intn(10))
		p := Params{Open: float64(rng.Intn(5)), Ext: float64(rng.Intn(3))}
		a, _ := Sequential(x, y, p)
		b, _ := Reference(y, x, p)
		if a != b {
			t.Fatalf("align(x,y)=%v != align(y,x)=%v", a, b)
		}
	}
}

func TestBadParams(t *testing.T) {
	if _, err := Sequential(nil, nil, Params{Open: -1}); err == nil {
		t.Fatal("negative open accepted")
	}
	if _, err := Sequential(nil, nil, Params{Ext: math.NaN()}); err == nil {
		t.Fatal("NaN ext accepted")
	}
	// Regression: Validate ranged over a map, so with both penalties bad
	// the error named either one.
	seen := map[string]int{}
	for i := 0; i < 100; i++ {
		_, err := Sequential(nil, nil, Params{Open: -1, Ext: -2})
		if err == nil {
			t.Fatal("negative penalties accepted")
		}
		seen[err.Error()]++
	}
	if len(seen) != 1 {
		t.Fatalf("100 calls gave %d different errors: %v", len(seen), seen)
	}
	for msg := range seen {
		if !strings.Contains(msg, "open") {
			t.Fatalf("error %q, want it to name open", msg)
		}
	}
}

// benchShapes are the kernel benchmark lattices, |x| × |y|, the same as
// dtw's: a series against one sample, mix-small's largest square, a
// mid-size square, a compute-large-size lattice, and a thin lattice.
var benchShapes = [][2]int{{36, 1}, {36, 36}, {256, 256}, {1000, 963}, {3, 900}}

var benchSink float64

// BenchmarkAlignSequential times the served path per boundary-inclusive
// lattice cell, (|x|+1)(|y|+1) of them.
func BenchmarkAlignSequential(b *testing.B) {
	p := Params{Open: 3, Ext: 1}
	for _, sh := range benchShapes {
		n, m := sh[0], sh[1]
		b.Run(fmt.Sprintf("%dx%d", n, m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			x, y := make([]float64, n), make([]float64, m)
			for _, s := range [][]float64{x, y} {
				for i := range s {
					s[i] = float64(rng.Intn(1999) - 999) // [-999, 999]
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := Sequential(x, y, p)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64((n+1)*(m+1)), "ns/cell")
		})
	}
}
