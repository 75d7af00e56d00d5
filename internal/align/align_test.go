package align

import (
	"math"
	"math/rand"
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
			if v := sub(x[i], y[j]) + rec(i+1, j+1, moveMatch); v < best {
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
		got, err := Sequential(x, y, p)
		if err != nil {
			t.Fatalf("Sequential: %v", err)
		}
		want := bruteForce(x, y, p)
		if got != want {
			t.Fatalf("trial %d: |x|=%d |y|=%d %+v: Sequential %v, brute force %v",
				trial, len(x), len(y), p, got, want)
		}
	}
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

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		x := randSeries(rng, rng.Intn(10))
		y := randSeries(rng, rng.Intn(10))
		p := Params{Open: float64(rng.Intn(5)), Ext: float64(rng.Intn(3))}
		a, _ := Sequential(x, y, p)
		b, _ := Sequential(y, x, p)
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
}
