// Command dpcheck runs the randomized differential correctness harness:
// it generates seeded DP instances of every kind and cross-checks every
// applicable engine/design combination (the lock-step and
// goroutine-per-PE runners of each array, and the sequential baselines),
// also asserting the paper's closed-form cycle and utilization counts.
// On the first mismatch it prints a minimized reproducer spec and exits
// nonzero.
//
// Usage:
//
//	dpcheck -n 500 -seed 1
//	dpcheck -quick                 # CI smoke: fewer, smaller instances
//	dpcheck -kinds graph,dtw -v
//	dpcheck -replay repro.json     # re-run a printed reproducer
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"systolicdp/internal/check"
	"systolicdp/internal/spec"
)

func main() {
	var (
		n      = flag.Int("n", 200, "number of random instances to check")
		seed   = flag.Int64("seed", 1, "generator seed (same seed, same instances)")
		kinds  = flag.String("kinds", "", "comma-separated instance kinds (default: all of "+strings.Join(spec.Kinds(), ",")+")")
		quick  = flag.Bool("quick", false, "CI smoke mode: 60 small instances, chain wavefront workers {1,2}")
		replay = flag.String("replay", "", "re-check a reproducer JSON file instead of generating")
		verb   = flag.Bool("v", false, "print per-instance progress")
	)
	flag.Parse()

	workers := []int{1, 2, runtime.NumCPU()}
	if *quick {
		workers = []int{1, 2}
	}

	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fatalf("dpcheck: %v", err)
		}
		ms, err := check.Replay(data, workers)
		if err != nil {
			fatalf("dpcheck: %v", err)
		}
		for _, m := range ms {
			fmt.Fprintln(os.Stderr, "MISMATCH:", m.Error())
		}
		if len(ms) > 0 {
			os.Exit(1)
		}
		fmt.Println("dpcheck: reproducer passes (bug fixed or environment-dependent)")
		return
	}

	opts := check.Options{
		N:           *n,
		Seed:        *seed,
		Workers:     workers,
		StopOnFirst: true,
	}
	if *quick {
		opts.N = 60
		opts.Gen = check.GenConfig{MaxStages: 5, MaxM: 4, MaxLen: 8, MaxChain: 6, MaxVars: 5}
	}
	if *kinds != "" {
		opts.Kinds = strings.Split(*kinds, ",")
	}
	if *verb {
		opts.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "dpcheck: %d/%d instances\n", done, total)
			}
		}
	}

	rep, err := check.Run(opts)
	if err != nil {
		fatalf("dpcheck: %v", err)
	}
	if !rep.OK() {
		first := rep.Mismatches[0]
		fmt.Fprintln(os.Stderr, "MISMATCH:", first.Error())
		fmt.Fprintln(os.Stderr, "minimizing...")
		min := check.Minimize(first.Instance, workers)
		ms, _ := check.Check(min, workers)
		for _, m := range ms {
			fmt.Fprintln(os.Stderr, "minimized mismatch:", m.Error())
		}
		fmt.Println(check.Reproducer(min))
		fmt.Fprintf(os.Stderr, "dpcheck: FAIL: %d mismatch(es) after %d instances, %d comparisons\n",
			len(rep.Mismatches), rep.Instances, rep.Combos)
		os.Exit(1)
	}
	fmt.Printf("dpcheck: OK: %d instances, %d comparisons, 0 mismatches (seed=%d, workers=%v)\n",
		rep.Instances, rep.Combos, *seed, workers)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
