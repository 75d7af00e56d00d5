// Command dpbench measures the zero-alloc hot path against the
// reference engines it replaced, kind by kind, and gates the result:
// any monomorphized kernel that allocates in steady state fails the run
// (exit 1), so CI catches an accidental escape-to-heap the same way it
// catches a wrong answer.
//
//	dpbench -out BENCH_9.json          # full run (~1s per benchmark)
//	dpbench -quick                     # CI smoke (~50ms per benchmark)
//
// The report records baseline and fast ns/op, the speedup, and the fast
// path's allocs/op for each kind with a fast path (chain, nonserial).
// Baselines are the single-processor reference engines (matchain.DP,
// nonserial.Eliminate) — the same references the differential checker
// diffs bitwise, so the speedups are for identical answers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"systolicdp/internal/matchain"
	"systolicdp/internal/nonserial"
)

type kindReport struct {
	Kind       string  `json:"kind"`
	Shape      string  `json:"shape"`
	BaselineNs float64 `json:"baseline_ns_op"`
	FastNs     float64 `json:"fast_ns_op"`
	Speedup    float64 `json:"speedup"`
	FastAllocs float64 `json:"fast_allocs_op"`
}

type report struct {
	Bench string       `json:"bench"`
	Quick bool         `json:"quick"`
	Kinds []kindReport `json:"kinds"`
	Pass  bool         `json:"pass"` // every fast path at 0 allocs/op
}

func nsPerOp(f func(b *testing.B)) float64 {
	r := testing.Benchmark(f)
	return float64(r.NsPerOp())
}

func main() {
	out := flag.String("out", "BENCH_9.json", "report path")
	quick := flag.Bool("quick", false, "short benchtime for CI smoke runs")
	flag.Parse()
	testing.Init()
	if *quick {
		if err := flag.Set("test.benchtime", "50ms"); err != nil {
			fmt.Fprintln(os.Stderr, "dpbench:", err)
			os.Exit(1)
		}
	}

	rng := rand.New(rand.NewSource(9))
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()*20 - 10
		}
		return s
	}

	rep := report{Bench: "BENCH_9 zero-alloc hot path", Quick: *quick, Pass: true}
	add := func(kind, shape string, baseline, fast func(b *testing.B), steady func()) {
		kr := kindReport{Kind: kind, Shape: shape}
		kr.BaselineNs = nsPerOp(baseline)
		kr.FastNs = nsPerOp(fast)
		if kr.FastNs > 0 {
			kr.Speedup = kr.BaselineNs / kr.FastNs
		}
		steady() // warm the shape pools before the allocation gate
		kr.FastAllocs = testing.AllocsPerRun(50, steady)
		if kr.FastAllocs != 0 {
			rep.Pass = false
		}
		rep.Kinds = append(rep.Kinds, kr)
		fmt.Printf("%-12s %-14s baseline %10.0f ns/op   fast %10.0f ns/op   %.2fx   %g allocs/op\n",
			kind, shape, kr.BaselineNs, kr.FastNs, kr.Speedup, kr.FastAllocs)
	}

	// Chain ordering: 24-matrix product.
	dims := make([]int, 25)
	for i := range dims {
		dims[i] = rng.Intn(40) + 1
	}
	flat := &matchain.Flat{}
	add("chain", "n=24",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matchain.DP(dims); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := flat.Solve(dims); err != nil {
					b.Fatal(err)
				}
			}
		},
		func() { _ = flat.Solve(dims) })

	// Nonserial elimination: 12 stages, 8-value domains, named default op.
	doms := make([][]float64, 12)
	for i := range doms {
		doms[i] = series(8)
	}
	ch := &nonserial.Chain3{Domains: doms, G: nonserial.DefaultG, GName: nonserial.GNameDefault}
	add("nonserial", "12x8",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ch.Eliminate(); err != nil {
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := nonserial.EliminateFast(ch); err != nil {
					b.Fatal(err)
				}
			}
		},
		func() { _, _, _ = nonserial.EliminateFast(ch) })

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "dpbench: FAIL: a fast kernel allocates in steady state")
		os.Exit(1)
	}
}
