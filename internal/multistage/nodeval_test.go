package multistage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// namedCosts are the built-in pair costs under their names.
var namedCosts = []struct {
	name string
	f    CostFunc
}{{CostAbsDiff, AbsDiff}, {CostQuadratic, Quadratic}, {CostRise, Rise}}

// TestSolveMinPlusMatchesSolvePath diffs the pooled served sweep against
// SolvePath(MinPlus), cost bit for bit and path index for index, on
// ragged stages under every named cost and through an unnamed F, and
// checks that Named sets the named function as F. Half
// the problems draw fractional values; the rest draw from a few small
// integers, both signed zeros and two huge values, so candidates tie
// and the first-index rule decides, zero differences meet every sign,
// and costs overflow.
func TestSolveMinPlusMatchesSolvePath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// ±1e308 overflow Rise's 5(x-y) and Quadratic's square to +Inf.
	ties := []float64{math.Copysign(0, -1), 0, 1, -1, 2, 0.5, 1e308, -1e308}
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(9)
		values := make([][]float64, n)
		for k := range values {
			values[k] = make([]float64, 1+rng.Intn(8))
			for i := range values[k] {
				if trial%2 == 0 {
					values[k][i] = rng.Float64()*40 - 20
				} else {
					values[k][i] = ties[rng.Intn(len(ties))]
				}
			}
		}
		for _, c := range namedCosts {
			unnamed := &NodeValued{Values: values, F: c.f}
			named, ok := Named(values, c.name)
			if !ok {
				t.Fatalf("Named(%q) failed", c.name)
			}
			want := unnamed.SolvePath(mp)
			for _, r := range []struct {
				engine string
				got    Path
			}{
				{"named SolveMinPlus", named.SolveMinPlus()},
				{"unnamed SolveMinPlus", unnamed.SolveMinPlus()},
				{"named SolvePath", named.SolvePath(mp)},
			} {
				if math.Float64bits(r.got.Cost) != math.Float64bits(want.Cost) || !slices.Equal(r.got.Nodes, want.Nodes) {
					t.Fatalf("trial %d %s: %s (%v, %v), SolvePath (%v, %v)\nvalues %v",
						trial, c.name, r.engine, r.got.Cost, r.got.Nodes, want.Cost, want.Nodes, values)
				}
			}
		}
	}
}

// TestSolveMinPlusAllocatesPath pins the pooled workspace: a warm solve
// allocates only the path it returns.
func TestSolveMinPlusAllocatesPath(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under the race detector")
	}
	p := RandomNodeValued(rand.New(rand.NewSource(5)), 20, 9, -10, 10)
	p.SolveMinPlus()
	if allocs := testing.AllocsPerRun(20, func() { p.SolveMinPlus() }); allocs != 1 {
		t.Errorf("%v allocs per warm solve, want 1 (the path)", allocs)
	}
}

// TestSolveMinPlusKeepsLargeWorkspacesOutOfPool solves a problem at the
// spec's work ceiling, 4,096 stages alternating 4,096 values and 1,
// whose predecessor table holds 8.4M entries (64 MiB), and checks that
// the pool did not keep its workspace.
func TestSolveMinPlusKeepsLargeWorkspacesOutOfPool(t *testing.T) {
	wide, narrow := make([]float64, 4096), []float64{0}
	values := make([][]float64, 4096)
	for k := range values {
		values[k] = wide
		if k%2 == 1 {
			values[k] = narrow
		}
	}
	p, _ := Named(values, CostAbsDiff)
	if got := p.SolveMinPlus(); got.Cost != 0 {
		t.Fatalf("cost %v, want 0", got.Cost)
	}
	ws := nvPool.Get().(*nvWS)
	if c := max(cap(ws.h), cap(ws.nh), cap(ws.pred)); c > maxPooled {
		t.Errorf("pool holds a workspace slice of %d entries, want at most %d", c, maxPooled)
	}
	nvPool.Put(ws)
}

var pathSink Path

// BenchmarkNodeValuedSolveMinPlus times the served sweep at
// compute-large's middle shape, 75 stages of 37 integer values in
// [-50, 50], per edge: (stages-1)·values² of them.
func BenchmarkNodeValuedSolveMinPlus(b *testing.B) {
	const n, m = 75, 37
	for _, c := range namedCosts {
		b.Run(fmt.Sprintf("%s/%dx%d", c.name, n, m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(29))
			values := make([][]float64, n)
			for k := range values {
				values[k] = make([]float64, m)
				for i := range values[k] {
					values[k][i] = float64(rng.Intn(101) - 50)
				}
			}
			p, _ := Named(values, c.name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pathSink = p.SolveMinPlus()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64((n-1)*m*m), "ns/edge")
		})
	}
}
