// Package systolic is the simulation substrate for the paper's systolic
// arrays. An Array is a set of processing elements (PEs) joined by wires;
// every internal wire is a one-cycle pipeline register, exactly the
// inter-PE latching discipline of the paper's designs (Figures 3-5).
//
// Two runners execute an array:
//
//   - RunLockstep: a deterministic two-phase global clock (compute, then
//     latch) used for exact cycle accounting against the paper's closed
//     forms, and
//   - RunGoroutines: one goroutine per PE with each wire a 1-deep buffered
//     channel; the single circulating token per wire makes the network a
//     marked graph, so channel dataflow enforces systolic lock-step with no
//     global clock. This is the "goroutines model PEs" substitution for the
//     paper's VLSI hardware.
//
// Both runners share PE step functions and are tested to produce identical
// results, busy counts and sink streams.
package systolic

import (
	"fmt"
	"math"
	"sync"
)

// External marks an endpoint outside the array (a source or sink).
const External = -1

// Token is the value latched on a wire for one cycle. V is the primary
// datum; W a secondary datum (Design 3 carries a node value and its partial
// cost h side by side); Tag an integer tag (node indices for path
// registers); Ctl a control word (FIRST/ODD/MOVE-style signals ride along
// with data, as in the paper's designs). Valid distinguishes real data from
// pipeline bubbles.
type Token struct {
	V, W  float64
	Tag   int
	Ctl   int
	Valid bool
}

// Bubble is an invalid token: what an idle wire carries.
func Bubble() Token { return Token{V: math.Inf(1), Valid: false} }

// PE is one processing element. Step consumes exactly one token per input
// port and produces exactly one token per output port each cycle, and
// reports whether the cycle performed useful work (for processor-
// utilization accounting, the paper's PU metric). Reset returns the PE to
// its initial state so an array can be rerun.
type PE interface {
	NumIn() int
	NumOut() int
	Step(in []Token) (out []Token, busy bool)
	Reset()
}

// Endpoint names one port of one PE; PE == External denotes the host.
type Endpoint struct {
	PE, Port int
}

// Wire connects an output endpoint to an input endpoint.
//
// A wire whose From.PE is External is a source: its Source function is
// sampled combinationally each cycle (the host feeds the array with no
// extra latency, standing in for the input pads of the VLSI chip).
//
// A wire whose To.PE is External is a sink: tokens produced on it are
// recorded in the run result.
//
// An internal wire (PE to PE) is a pipeline register with one cycle of
// latency, initialised to Init.
type Wire struct {
	From   Endpoint
	To     Endpoint
	Source func(cycle int) Token
	Init   Token
}

// Array is a systolic array: PEs plus wires.
type Array struct {
	PEs   []PE
	Wires []Wire
}

// SinkRecord is one token observed on a sink wire, stamped with the cycle
// in which the producing PE emitted it.
type SinkRecord struct {
	Cycle int
	Token Token
}

// Result reports a run: total cycles executed, per-PE busy-cycle counts,
// and the streams observed on each sink wire (keyed by wire index).
type Result struct {
	Cycles int
	Busy   []int
	Sunk   map[int][]SinkRecord
}

// Utilization returns the fraction of PE-cycles that were busy; with the
// paper's definition of an iteration as one shift-multiply-accumulate this
// is the measured counterpart of the PU formulas.
func (r *Result) Utilization() float64 {
	if r.Cycles == 0 || len(r.Busy) == 0 {
		return 0
	}
	total := 0
	for _, b := range r.Busy {
		total += b
	}
	return float64(total) / float64(r.Cycles*len(r.Busy))
}

// Validate checks the wiring: every PE input port is driven by exactly one
// wire, port indices are in range, sources have Source functions, and
// internal wires reference existing PEs.
func (a *Array) Validate() error {
	seen := make(map[Endpoint]bool)
	for wi, w := range a.Wires {
		if w.From.PE == External {
			if w.Source == nil {
				return fmt.Errorf("systolic: wire %d is a source but has nil Source", wi)
			}
		} else {
			if w.From.PE < 0 || w.From.PE >= len(a.PEs) {
				return fmt.Errorf("systolic: wire %d From.PE %d out of range", wi, w.From.PE)
			}
			if w.From.Port < 0 || w.From.Port >= a.PEs[w.From.PE].NumOut() {
				return fmt.Errorf("systolic: wire %d From.Port %d out of range for PE %d", wi, w.From.Port, w.From.PE)
			}
		}
		if w.To.PE != External {
			if w.To.PE < 0 || w.To.PE >= len(a.PEs) {
				return fmt.Errorf("systolic: wire %d To.PE %d out of range", wi, w.To.PE)
			}
			if w.To.Port < 0 || w.To.Port >= a.PEs[w.To.PE].NumIn() {
				return fmt.Errorf("systolic: wire %d To.Port %d out of range for PE %d", wi, w.To.Port, w.To.PE)
			}
			if seen[w.To] {
				return fmt.Errorf("systolic: input port %+v driven by multiple wires", w.To)
			}
			seen[w.To] = true
		}
	}
	for pi, pe := range a.PEs {
		for port := 0; port < pe.NumIn(); port++ {
			if !seen[Endpoint{pi, port}] {
				return fmt.Errorf("systolic: PE %d input port %d undriven", pi, port)
			}
		}
	}
	return nil
}

// Reset restores every PE to its initial state. Runners that Reset
// before executing make their Array re-runnable: repeated runs of the
// same array are bit-identical, an invariant internal/check enforces
// across all three designs.
func (a *Array) Reset() {
	for _, pe := range a.PEs {
		pe.Reset()
	}
}

// inputWires[pe][port] -> wire index; outputWires[pe] -> wire indices.
func (a *Array) wiring() (in [][]int, out [][]int) {
	in = make([][]int, len(a.PEs))
	out = make([][]int, len(a.PEs))
	for pi, pe := range a.PEs {
		in[pi] = make([]int, pe.NumIn())
		for i := range in[pi] {
			in[pi][i] = -1
		}
	}
	for wi, w := range a.Wires {
		if w.To.PE != External {
			in[w.To.PE][w.To.Port] = wi
		}
		if w.From.PE != External {
			out[w.From.PE] = append(out[w.From.PE], wi)
		}
	}
	return in, out
}

// PETrace observes one PE-cycle: the PE index, the logical cycle, and
// whether that cycle performed useful work (the Step busy bit). It is the
// per-PE counterpart of the lock-step wire trace, usable by both runners:
// the lock-step runner invokes it in cycle order from one goroutine; the
// goroutine runner invokes it concurrently, one call stream per PE, each
// stream in its own cycle order (the marked-graph construction guarantees
// PE i's local iteration t corresponds exactly to lock-step cycle t).
// Implementations must therefore be safe for concurrent calls with
// distinct pe values; internal/obs.CycleRecorder is one such sink.
type PETrace func(pe, cycle int, busy bool)

// RunLockstep executes the array for the given number of cycles under a
// global two-phase clock: all PEs step on the current register values, then
// all wires latch the new outputs. Trace, if non-nil, is invoked after each
// cycle with the cycle index and freshly latched wire values (for the
// systolicsim debugger).
func (a *Array) RunLockstep(cycles int, trace func(cycle int, wires []Token)) (*Result, error) {
	return a.RunLockstepObserved(cycles, trace, nil)
}

// RunLockstepObserved is RunLockstep with an additional per-PE trace hook
// invoked once per PE per cycle with the busy bit, before the cycle's wire
// snapshot is delivered to trace.
func (a *Array) RunLockstepObserved(cycles int, trace func(cycle int, wires []Token), peTrace PETrace) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	inW, outW := a.wiring()
	regs := make([]Token, len(a.Wires))
	for wi, w := range a.Wires {
		regs[wi] = w.Init
	}
	res := &Result{
		Cycles: cycles,
		Busy:   make([]int, len(a.PEs)),
		Sunk:   make(map[int][]SinkRecord),
	}
	next := make([]Token, len(a.Wires))
	ins := make([][]Token, len(a.PEs))
	for pi, pe := range a.PEs {
		ins[pi] = make([]Token, pe.NumIn())
	}
	for t := 0; t < cycles; t++ {
		// Phase 1: sample sources and registers, step every PE.
		copy(next, regs)
		for wi, w := range a.Wires {
			if w.From.PE == External {
				next[wi] = w.Source(t)
				regs[wi] = next[wi] // sources are combinational
			}
		}
		for pi, pe := range a.PEs {
			for port, wi := range inW[pi] {
				ins[pi][port] = regs[wi]
			}
			out, busy := pe.Step(ins[pi])
			if len(out) != pe.NumOut() {
				return nil, fmt.Errorf("systolic: PE %d produced %d outputs, want %d", pi, len(out), pe.NumOut())
			}
			if busy {
				res.Busy[pi]++
			}
			if peTrace != nil {
				peTrace(pi, t, busy)
			}
			for _, wi := range outW[pi] {
				next[wi] = out[a.Wires[wi].From.Port]
			}
		}
		// Phase 2: latch and record sinks.
		for wi, w := range a.Wires {
			if w.To.PE == External && w.From.PE != External {
				res.Sunk[wi] = append(res.Sunk[wi], SinkRecord{Cycle: t, Token: next[wi]})
			}
		}
		copy(regs, next)
		if trace != nil {
			snapshot := make([]Token, len(regs))
			copy(snapshot, regs)
			trace(t, snapshot)
		}
	}
	return res, nil
}

// RunGoroutines executes the array with one goroutine per PE; wires are
// 1-deep buffered channels, internal wires pre-loaded with their Init
// token. The construction is a marked graph with one token per place, so
// execution is deterministic and deadlock-free, and each PE's local cycle
// ordering matches the lock-step schedule exactly.
func (a *Array) RunGoroutines(cycles int) (*Result, error) {
	return a.RunGoroutinesObserved(cycles, nil)
}

// RunGoroutinesObserved is RunGoroutines with a per-PE trace hook: each
// PE's goroutine invokes peTrace(pe, t, busy) after its t-th Step. Calls
// for different PEs are concurrent; see PETrace for the contract.
func (a *Array) RunGoroutinesObserved(cycles int, peTrace PETrace) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	inW, outW := a.wiring()
	chans := make([]chan Token, len(a.Wires))
	for wi := range a.Wires {
		chans[wi] = make(chan Token, 1)
	}
	for wi, w := range a.Wires {
		if w.From.PE != External && w.To.PE != External {
			chans[wi] <- w.Init
		}
	}
	res := &Result{
		Cycles: cycles,
		Busy:   make([]int, len(a.PEs)),
		Sunk:   make(map[int][]SinkRecord),
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(a.PEs))
	// quit aborts every goroutine when a PE violates its contract; without
	// it the feeders and peers would block forever on the dead PE's wires.
	quit := make(chan struct{})
	var quitOnce sync.Once
	abort := func(err error) {
		errs <- err
		quitOnce.Do(func() { close(quit) })
	}

	// Source feeders.
	for wi, w := range a.Wires {
		if w.From.PE != External {
			continue
		}
		wg.Add(1)
		go func(wi int, src func(int) Token) {
			defer wg.Done()
			for t := 0; t < cycles; t++ {
				select {
				case chans[wi] <- src(t):
				case <-quit:
					return
				}
			}
		}(wi, w.Source)
	}

	// Sink collectors. Each sink wire receives exactly one token per cycle.
	sinkMu := sync.Mutex{}
	for wi, w := range a.Wires {
		if w.To.PE != External || w.From.PE == External {
			continue
		}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			recs := make([]SinkRecord, 0, cycles)
			for t := 0; t < cycles; t++ {
				select {
				case tok := <-chans[wi]:
					recs = append(recs, SinkRecord{Cycle: t, Token: tok})
				case <-quit:
					return
				}
			}
			sinkMu.Lock()
			res.Sunk[wi] = recs
			sinkMu.Unlock()
		}(wi)
	}

	// PEs.
	for pi := range a.PEs {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			pe := a.PEs[pi]
			in := make([]Token, pe.NumIn())
			busy := 0
			for t := 0; t < cycles; t++ {
				for port, wi := range inW[pi] {
					select {
					case in[port] = <-chans[wi]:
					case <-quit:
						return
					}
				}
				out, b := pe.Step(in)
				if len(out) != pe.NumOut() {
					abort(fmt.Errorf("systolic: PE %d produced %d outputs, want %d", pi, len(out), pe.NumOut()))
					return
				}
				if b {
					busy++
				}
				if peTrace != nil {
					peTrace(pi, t, b)
				}
				for _, wi := range outW[pi] {
					tok := out[a.Wires[wi].From.Port]
					if t == cycles-1 && a.Wires[wi].To.PE != External {
						// The consumer will not read a token for cycle
						// t+1; dropping the final latch keeps the marked
						// graph balanced at shutdown.
						continue
					}
					select {
					case chans[wi] <- tok:
					case <-quit:
						return
					}
				}
			}
			res.Busy[pi] = busy
		}(pi)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
