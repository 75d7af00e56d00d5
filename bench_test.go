// Benchmarks: one per paper artifact (E1-E10, matching DESIGN.md's
// per-experiment index) plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
package systolicdp

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"systolicdp/internal/andor"
	"systolicdp/internal/bcastarray"
	"systolicdp/internal/bnb"
	"systolicdp/internal/core"
	"systolicdp/internal/dnc"
	"systolicdp/internal/dtw"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/matchain"
	"systolicdp/internal/matrix"
	"systolicdp/internal/mesh"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/obst"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
	"systolicdp/internal/workload"
)

var mp = semiring.MinPlus{}

func graphCase(seed int64, n, m int) ([]*matrix.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	inner := multistage.RandomUniform(rng, n-1, m, 1, 10)
	g := multistage.SingleSourceSink(mp, inner)
	mats := g.Matrices()
	k := len(mats)
	return mats[:k-1], mats[k-1].Col(0)
}

// BenchmarkE1PipelinedArray regenerates the Design-1 rows of E1: a
// 32-stage, m=8 graph searched by the pipelined array (Figure 3).
func BenchmarkE1PipelinedArray(b *testing.B) {
	ms, v := graphCase(1, 32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pipearray.Solve(ms, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2BroadcastArray regenerates the Design-2 rows of E2 on the
// same workload (Figure 4).
func BenchmarkE2BroadcastArray(b *testing.B) {
	ms, v := graphCase(2, 32, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bcastarray.Solve(ms, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3FeedbackArray regenerates E3: Design 3 (Figure 5) on a
// 32-stage node-valued problem with path reconstruction.
func BenchmarkE3FeedbackArray(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := multistage.RandomNodeValued(rng, 32, 8, 0, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fbarray.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Granularity regenerates Figure 6: the full KT^2 sweep over K
// for N = 4096 under equation (29).
func BenchmarkE4Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ks, _ := dnc.ArgminKT2(4096, 1, 4096)
		if len(ks) == 0 {
			b.Fatal("no argmin")
		}
	}
}

// BenchmarkE4ScheduleSim cross-checks Figure 6 by simulating the actual
// schedule at the paper's reported optimum K = 431.
func BenchmarkE4ScheduleSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dnc.Schedule(4096, 431); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5AsymptoticPU regenerates one row of the Proposition-1 table:
// PU at k = N/log2(N) for N = 2^16.
func BenchmarkE5AsymptoticPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dnc.PUAsymptotic(1<<16, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6AT2 regenerates the Theorem-1 policy table for N = 2^16.
func BenchmarkE6AT2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := dnc.TheoremOneTable(1 << 16)
		if len(rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkE7BinaryPartition regenerates the Theorem-2 comparison:
// building and searching the p=2 reduction graph for N=16, m=3.
func BenchmarkE7BinaryPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := multistage.RandomUniform(rng, 17, 3, 1, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := andor.SolveRegular(mp, g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7QuaternaryPartition is the p=4 counterpoint Theorem 2 rules
// out: same problem, bigger graph.
func BenchmarkE7QuaternaryPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := multistage.RandomUniform(rng, 17, 3, 1, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := andor.SolveRegular(mp, g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8NonserialElimination regenerates E8: the equation-(40)
// elimination on a 12-variable ternary chain.
func BenchmarkE8NonserialElimination(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c := nonserial.RandomUniformChain3(rng, 12, 6, 0, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Eliminate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8GroupedOnDesign3 runs the grouped serial problem on the
// Design-3 array — the systolic half of E8.
func BenchmarkE8GroupedOnDesign3(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c := nonserial.RandomUniformChain3(rng, 8, 4, 0, 10)
	nv, err := c.GroupToSerial()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fbarray.Solve(nv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9MatrixChainOrdering regenerates E9: sequential DP, the
// broadcast-bus model (Prop 2) and the serialised systolic model (Prop 3)
// on a 64-matrix chain.
func BenchmarkE9MatrixChainOrdering(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	dims, err := workload.MatrixChainDims(rng, 64, 2, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequentialDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matchain.DP(dims); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("busModel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matchain.SimulateBus(dims); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("systolicModel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := matchain.SimulateSystolic(dims); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Classification regenerates E10: dispatching one problem per
// class through the Table-1 solver.
func BenchmarkE10Classification(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	inner := multistage.RandomUniform(rng, 5, 4, 1, 10)
	g := multistage.SingleSourceSink(mp, inner)
	chain := nonserial.RandomUniformChain3(rng, 4, 3, 0, 10)
	probs := []core.Problem{
		&core.MultistageProblem{Graph: g, Design: 2},
		&core.ChainOrderingProblem{Dims: []int{30, 35, 15, 5, 10, 20, 25}},
		&core.NonserialChainProblem{Chain: chain},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			if _, err := core.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md Section 4) ---

// BenchmarkRunnerAblation contrasts the lock-step engine with the
// goroutine-per-PE runner on the same Design-1 workload.
func BenchmarkRunnerAblation(b *testing.B) {
	ms, v := graphCase(11, 16, 8)
	b.Run("lockstep", func(b *testing.B) {
		arr, err := pipearray.New(ms, v)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := arr.Run(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("goroutines", func(b *testing.B) {
		arr, err := pipearray.New(ms, v)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := arr.Run(true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPathRegisters measures Design-3 path tracking against the
// baseline DP with and without reconstruction.
func BenchmarkPathRegisters(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	p := multistage.RandomNodeValued(rng, 32, 8, 0, 50)
	b.Run("baselineNoPath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Solve(mp)
		}
	})
	b.Run("baselineWithPath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SolvePath(mp)
		}
	})
}

// BenchmarkKernelAblation contrasts the semiring-generic matrix kernel
// with a hand-specialised (MIN,+) loop, the generic-vs-specialised
// tradeoff DESIGN.md notes.
func BenchmarkKernelAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	a := matrix.Random(rng, 64, 64, 0, 10)
	c := matrix.Random(rng, 64, 64, 0, 10)
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matrix.MulMatGeneric(mp, a, c)
		}
	})
	b.Run("specialised", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matrix.MulMat(mp, a, c) // dispatches to the tropical fast path
		}
	})
}

// BenchmarkWavefrontScaling measures the goroutine wavefront ordering
// solver across worker counts.
func BenchmarkWavefrontScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	dims, err := workload.MatrixChainDims(rng, 256, 2, 30)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matchain.Wavefront(dims, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelChainWorkers measures the Section-4 divide-and-conquer
// product across worker counts — the practical side of Figure 6.
func BenchmarkParallelChainWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	ms := make([]*matrix.Matrix, 64)
	for i := range ms {
		ms[i] = matrix.Random(rng, 16, 16, 0, 10)
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dnc.ParallelChain(mp, ms, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{digits[v%10]}, buf...)
		v /= 10
	}
	return prefix + "=" + string(buf)
}

// BenchmarkMeshMultiply measures the 2D systolic mesh (Section 4's unit
// of work) against the sequential kernel on the same product.
func BenchmarkMeshMultiply(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	x := matrix.Random(rng, 16, 16, 0, 10)
	y := matrix.Random(rng, 16, 16, 0, 10)
	b.Run("mesh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mesh.Mul(mp, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matrix.MulMat(mp, x, y)
		}
	})
}

// BenchmarkOBSTKnuthAblation contrasts the O(n^3) polyadic DP with
// Knuth's O(n^2) root-monotonicity speedup on the optimal-BST problem.
func BenchmarkOBSTKnuthAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	p := &obst.Problem{P: make([]float64, 128), Q: make([]float64, 129)}
	for i := range p.P {
		p.P[i] = rng.Float64()
	}
	for i := range p.Q {
		p.Q[i] = rng.Float64() * 0.5
	}
	b.Run("cubicDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("knuth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SolveKnuth(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDataflowChain measures the optimal-order asynchronous
// evaluation of a heterogeneous chain (Section 4's dataflow treatment).
func BenchmarkDataflowChain(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	dims := make([]int, 33)
	for i := range dims {
		dims[i] = 2 + rng.Intn(14)
	}
	ms := make([]*matrix.Matrix, len(dims)-1)
	for i := range ms {
		ms[i] = matrix.Random(rng, dims[i], dims[i+1], 0, 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dnc.DataflowChain(mp, ms, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBnBDominanceAblation shows the Section-1 equivalence in cost
// terms: B&B with the dominance test collapses to DP-sized search, while
// without it the OR-tree search pays exponentially.
func BenchmarkBnBDominanceAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	g := multistage.RandomUniform(rng, 10, 4, 0, 10)
	bound := bnb.NewBoundStageMin(g)
	b.Run("withDominance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bnb.Solve(g, bnb.Options{Dominance: true, Bound: bound}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("withoutDominance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bnb.Solve(g, bnb.Options{Bound: bound}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bnb.Solve(g, bnb.Options{Dominance: true, Bound: bound, Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMapSystolic measures running a serialised AND/OR-graph on the
// engine (Section 6.2's mapping) vs plain bottom-up evaluation.
func BenchmarkMapSystolic(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g := multistage.RandomUniform(rng, 9, 3, 0, 10)
	ao, err := andor.BuildRegular(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ao.MapSystolic(mp, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bottomUp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ao.Evaluate(mp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamVsSeparate measures batch pipelining through Design 1:
// B problems back-to-back with one pipeline fill versus B separate runs.
// The hardware win is in simulated cycles (B*K'*m + m - 1 versus
// B*(K'*m + m - 1), asserted in pipearray's tests); this benchmark
// reports the simulator's host-time cost of the two drive modes.
func BenchmarkStreamVsSeparate(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const batch, k, m = 8, 4, 8
	probs := make([]pipearray.StreamProblem, batch)
	for i := range probs {
		ms := make([]*matrix.Matrix, k)
		for j := range ms {
			ms[j] = matrix.Random(rng, m, m, 0, 10)
		}
		v := make([]float64, m)
		for j := range v {
			v[j] = rng.Float64() * 10
		}
		probs[i] = pipearray.StreamProblem{Ms: ms, V: v}
	}
	b.Run("streamed", func(b *testing.B) {
		st, err := pipearray.NewStream(probs)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := st.Run(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pr := range probs {
				if _, err := pipearray.Solve(pr.Ms, pr.V); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkStagedDesign3 measures the staged (per-stage F_i) feedback
// array against the unstaged one on equivalent problems.
func BenchmarkStagedDesign3(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	p := multistage.RandomNodeValued(rng, 24, 8, 0, 50)
	st := &multistage.StagedNodeValued{
		Values: p.Values,
		FK:     func(_ int, x, y float64) float64 { return p.F(x, y) },
	}
	b.Run("unstaged", func(b *testing.B) {
		arr, err := fbarray.New(p)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := arr.Run(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("staged", func(b *testing.B) {
		arr, err := fbarray.NewStaged(mp, st)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := arr.Run(false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPathBetween measures solution-tree extraction and decoding on
// the indexed reduction graph.
func BenchmarkPathBetween(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := multistage.RandomUniform(rng, 17, 3, 0, 10) // N = 16
	ao, idx, err := andor.BuildRegularIndexed(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := andor.PathBetween(mp, ao, idx, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTW measures the pattern-recognition lattice (Section 1's
// cited application) on the systolic array vs the sequential DP.
func BenchmarkDTW(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	x := make([]float64, 64)
	y := make([]float64, 64)
	for i := range x {
		x[i] = rng.Float64() * 10
		y[i] = rng.Float64() * 10
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dtw.Sequential(x, y, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("systolic", func(b *testing.B) {
		arr, err := dtw.New(y, dtw.AbsDist)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := arr.Match(x, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Serving benchmarks (cmd/dpserve path) ----

// serveGraphBody renders a distinct Design-1 graph spec; distinct seeds
// defeat the result cache while keeping one stream-compatible shape.
func serveGraphBody(b *testing.B, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	inner := multistage.RandomUniform(rng, 4, 6, 1, 10)
	g := multistage.SingleSourceSink(mp, inner)
	f, err := spec.FromGraph(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	data, err := f.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// benchServe drives the HTTP solving service with concurrent clients.
func benchServe(b *testing.B, cfg serve.Config, body func(int64) []byte) {
	s := serve.New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var salt atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/solve", "application/json",
				bytes.NewReader(body(salt.Add(1))))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}

// BenchmarkServeBatched measures concurrent distinct Design-1 requests
// with micro-batching on: instances collected within the window share one
// pipeline fill through the streamed array.
func BenchmarkServeBatched(b *testing.B) {
	benchServe(b, serve.Config{
		QueueSize:   4096,
		BatchWindow: 500 * time.Microsecond,
		BatchMax:    32,
		CacheSize:   -1,
	}, func(salt int64) []byte { return serveGraphBody(b, salt) })
}

// BenchmarkServeUnbatched is the ablation: identical traffic with
// batching disabled (BatchMax 1), one array run per request.
func BenchmarkServeUnbatched(b *testing.B) {
	benchServe(b, serve.Config{
		QueueSize: 4096,
		BatchMax:  1,
		CacheSize: -1,
	}, func(salt int64) []byte { return serveGraphBody(b, salt) })
}

// BenchmarkServeCacheHit measures the LRU fast path: every request after
// the first is answered from the cache without touching a solver.
func BenchmarkServeCacheHit(b *testing.B) {
	body := serveGraphBody(b, 1)
	benchServe(b, serve.Config{QueueSize: 4096, CacheSize: 16},
		func(int64) []byte { return body })
}
