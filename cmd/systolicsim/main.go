// Command systolicsim runs one of the three systolic-array designs on a
// random instance and dumps a cycle-by-cycle trace, for inspecting the
// data movement of Figures 3-5.
//
// Usage:
//
//	systolicsim -design 1 -stages 5 -values 3 -trace
//	systolicsim -design 3 -stages 4 -values 3 -goroutines
//	systolicsim -design 3 -goroutines -trace-json out.json   # open in ui.perfetto.dev
//
// -trace prints the ASCII waveform (designs 1 and 3, lock-step runner
// only: design 2's broadcast bus is combinational, and the goroutine
// runner has no global latch instant to snapshot). -trace-json exports a
// Chrome trace-event / Perfetto JSON cycle trace and works for all three
// designs under both runners; summarize it with cmd/dptrace.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"systolicdp/internal/bcastarray"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/metrics"
	"systolicdp/internal/multistage"
	"systolicdp/internal/obs"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
	"systolicdp/internal/systolic"
	"systolicdp/internal/trace"
)

func main() {
	design := flag.Int("design", 1, "systolic design: 1 (pipelined), 2 (broadcast), 3 (feedback)")
	stages := flag.Int("stages", 5, "graph stages (designs 1-2 wrap to single source/sink)")
	values := flag.Int("values", 3, "nodes/values per stage")
	seed := flag.Int64("seed", 42, "instance seed")
	traceFlag := flag.Bool("trace", false, "dump the ASCII per-cycle wire waveform (designs 1 and 3, lock-step only)")
	traceJSON := flag.String("trace-json", "", "write a Perfetto/Chrome trace-event JSON cycle trace to this file (all designs, both runners)")
	goroutines := flag.Bool("goroutines", false, "use the goroutine-per-PE runner")
	flag.Parse()

	if err := run(*design, *stages, *values, *seed, *traceFlag, *goroutines, *traceJSON); err != nil {
		fmt.Fprintln(os.Stderr, "systolicsim:", err)
		os.Exit(1)
	}
}

// wireCallback composes the optional ASCII waveform recorder with the
// cycle recorder's valid-token counter on the lock-step wire hook. ascii
// is nil unless -trace was given; the result is nil for goroutine runs
// (no global latch instant to snapshot).
func wireCallback(rec *obs.CycleRecorder, ascii *trace.Recorder, goroutines bool) func(cycle int, wires []systolic.Token) {
	if goroutines {
		return nil
	}
	count := rec.WireTrace()
	if ascii == nil {
		return count
	}
	wave := ascii.Callback()
	return func(cycle int, wires []systolic.Token) {
		wave(cycle, wires)
		count(cycle, wires)
	}
}

func run(design, stages, values int, seed int64, asciiTrace, goroutines bool, traceJSON string) error {
	if asciiTrace {
		if goroutines {
			return fmt.Errorf("-trace needs the lock-step runner's global latch snapshots; drop -goroutines or use -trace-json, which works for both runners")
		}
		if design == 2 {
			return fmt.Errorf("-trace is unavailable for design 2: its broadcast bus is combinational, so there are no registered wires to snapshot; use -trace-json instead")
		}
	}
	mp := semiring.MinPlus{}
	rng := rand.New(rand.NewSource(seed))
	runner := "lockstep"
	if goroutines {
		runner = "goroutines"
	}
	switch design {
	case 1, 2:
		inner := multistage.RandomUniform(rng, stages-2, values, 1, 10)
		g := multistage.SingleSourceSink(mp, inner)
		mats := g.Matrices()
		k := len(mats)
		v := mats[k-1].Col(0)
		want := multistage.SolveOptimal(mp, g)
		// The paper's eq (9) closed form for an (N+1)-stage graph with m
		// values per intermediate stage.
		puExpected := metrics.PUEq9(stages-1, values)
		if design == 1 {
			arr, err := pipearray.New(mats[:k-1], v)
			if err != nil {
				return err
			}
			fmt.Printf("Design 1: %d PEs, %d matrix phases, %d iterations, %d wall cycles\n",
				arr.M, arr.K, arr.Iterations(), arr.WallCycles())
			rec := obs.NewCycleRecorder(arr.M, arr.ObservedCycles())
			var ascii *trace.Recorder
			if asciiTrace {
				ascii = trace.NewRecorder(arr.WireNames())
			}
			out, res, err := arr.RunObserved(goroutines, wireCallback(rec, ascii, goroutines), rec.PETrace())
			if err != nil {
				return err
			}
			printASCII(ascii, res.Busy, res.Cycles)
			report(out[0], want.Cost, res.Busy)
			return exportTrace(traceJSON, rec, obs.ArrayMeta{
				Design: 1, Runner: runner, M: arr.M, K: arr.K, PUExpected: puExpected,
			})
		}
		arr, err := bcastarray.New(mats[:k-1], v)
		if err != nil {
			return err
		}
		fmt.Printf("Design 2: %d PEs, %d matrix phases, %d iterations (no skew)\n", arr.M, arr.K, arr.Iterations())
		rec := obs.NewCycleRecorder(arr.M, arr.ObservedCycles())
		var out []float64
		var busy []int
		if goroutines {
			out, busy = arr.RunGoroutinesObserved(rec.PETrace())
		} else {
			out, busy = arr.RunLockstepObserved(rec.PETrace())
		}
		report(out[0], want.Cost, busy)
		return exportTrace(traceJSON, rec, obs.ArrayMeta{
			Design: 2, Runner: runner, M: arr.M, K: arr.K, PUExpected: puExpected,
		})
	case 3:
		p := multistage.RandomNodeValued(rng, stages, values, 0, 10)
		arr, err := fbarray.New(p)
		if err != nil {
			return err
		}
		fmt.Printf("Design 3: %d PEs, %d stages, %d iterations ((N+1)m)\n", arr.M, arr.N, arr.Iterations())
		rec := obs.NewCycleRecorder(arr.M, arr.ObservedCycles())
		var ascii *trace.Recorder
		if asciiTrace {
			ascii = trace.NewRecorder(arr.WireNames())
		}
		res, err := arr.RunObserved(goroutines, wireCallback(rec, ascii, goroutines), rec.PETrace())
		if err != nil {
			return err
		}
		printASCII(ascii, res.Busy, arr.Iterations())
		want := p.SolvePath(mp)
		report(res.Cost, want.Cost, res.Busy)
		fmt.Printf("path:     %v (baseline %v)\n", res.Path, want.Nodes)
		return exportTrace(traceJSON, rec, obs.ArrayMeta{
			Design: 3, Runner: runner, M: arr.M, N: arr.N,
			PUExpected: metrics.PU(arr.SerialIterations(), arr.Iterations(), arr.M),
		})
	default:
		return fmt.Errorf("unknown design %d", design)
	}
}

// printASCII dumps the waveform and utilization profile when -trace
// recorded one.
func printASCII(ascii *trace.Recorder, busy []int, cycles int) {
	if ascii == nil {
		return
	}
	fmt.Println("cycle-by-cycle wire trace (dots are pipeline bubbles):")
	fmt.Print(ascii.Render(nil, 0, 0))
	fmt.Println("\nper-PE utilization:")
	fmt.Print(trace.BusyProfile(busy, cycles))
}

// exportTrace writes the Perfetto JSON when -trace-json was given.
func exportTrace(path string, rec *obs.CycleRecorder, meta obs.ArrayMeta) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.ExportPerfetto(f, rec, meta); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace:    %s (open in ui.perfetto.dev, or summarize with dptrace)\n", path)
	return nil
}

func report(got, want float64, busy []int) {
	status := "OK"
	if math.Abs(got-want) > 1e-9 {
		status = "MISMATCH"
	}
	fmt.Printf("result:   %g (baseline %g) %s\n", got, want, status)
	fmt.Printf("busy:     %v\n", busy)
}
