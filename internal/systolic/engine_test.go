package systolic

import (
	"math"
	"testing"
)

// passPE forwards its single input to its single output unchanged.
type passPE struct{ steps int }

func (p *passPE) NumIn() int  { return 1 }
func (p *passPE) NumOut() int { return 1 }
func (p *passPE) Step(in []Token) ([]Token, bool) {
	p.steps++
	return []Token{in[0]}, in[0].Valid
}
func (p *passPE) Reset() { p.steps = 0 }

// addPE adds a constant to valid tokens.
type addPE struct{ c float64 }

func (p *addPE) NumIn() int  { return 1 }
func (p *addPE) NumOut() int { return 1 }
func (p *addPE) Step(in []Token) ([]Token, bool) {
	t := in[0]
	if t.Valid {
		t.V += p.c
	}
	return []Token{t}, t.Valid
}
func (p *addPE) Reset() {}

// accPE accumulates the running min of valid inputs and forwards the input.
type accPE struct{ acc float64 }

func newAccPE() *accPE { return &accPE{acc: math.Inf(1)} }

func (p *accPE) NumIn() int  { return 1 }
func (p *accPE) NumOut() int { return 1 }
func (p *accPE) Step(in []Token) ([]Token, bool) {
	if in[0].Valid {
		p.acc = math.Min(p.acc, in[0].V)
	}
	return []Token{in[0]}, in[0].Valid
}
func (p *accPE) Reset() { p.acc = math.Inf(1) }

// faultyPE violates the Step contract when bad is set.
type faultyPE struct{ bad bool }

func (p *faultyPE) NumIn() int  { return 1 }
func (p *faultyPE) NumOut() int { return 1 }
func (p *faultyPE) Step(in []Token) ([]Token, bool) {
	if p.bad {
		return nil, false
	}
	return []Token{in[0]}, in[0].Valid
}
func (p *faultyPE) Reset() {}

// chainArray builds source -> PE0 -> PE1 -> ... -> sink.
func chainArray(pes []PE, src func(int) Token) *Array {
	a := &Array{PEs: pes}
	a.Wires = append(a.Wires, Wire{From: Endpoint{External, 0}, To: Endpoint{0, 0}, Source: src})
	for i := 0; i+1 < len(pes); i++ {
		a.Wires = append(a.Wires, Wire{From: Endpoint{i, 0}, To: Endpoint{i + 1, 0}, Init: Bubble()})
	}
	a.Wires = append(a.Wires, Wire{From: Endpoint{len(pes) - 1, 0}, To: Endpoint{External, 0}})
	return a
}

func seqSource(n int) func(int) Token {
	return func(t int) Token {
		if t < n {
			return Token{V: float64(t), Valid: true}
		}
		return Bubble()
	}
}

func sinkWire(a *Array) int {
	for wi, w := range a.Wires {
		if w.To.PE == External {
			return wi
		}
	}
	return -1
}

func validSunk(res *Result, wi int) []float64 {
	var out []float64
	for _, r := range res.Sunk[wi] {
		if r.Token.Valid {
			out = append(out, r.Token.V)
		}
	}
	return out
}

func TestValidateRejectsBadWiring(t *testing.T) {
	// Undriven input port.
	a := &Array{PEs: []PE{&passPE{}}}
	if err := a.Validate(); err == nil {
		t.Error("undriven input accepted")
	}
	// Source without Source func.
	a = &Array{PEs: []PE{&passPE{}}, Wires: []Wire{{From: Endpoint{External, 0}, To: Endpoint{0, 0}}}}
	if err := a.Validate(); err == nil {
		t.Error("nil Source accepted")
	}
	// Doubly driven input.
	src := seqSource(1)
	a = &Array{PEs: []PE{&passPE{}}, Wires: []Wire{
		{From: Endpoint{External, 0}, To: Endpoint{0, 0}, Source: src},
		{From: Endpoint{External, 0}, To: Endpoint{0, 0}, Source: src},
	}}
	if err := a.Validate(); err == nil {
		t.Error("doubly driven input accepted")
	}
	// Out-of-range ports.
	a = &Array{PEs: []PE{&passPE{}}, Wires: []Wire{
		{From: Endpoint{External, 0}, To: Endpoint{0, 0}, Source: src},
		{From: Endpoint{0, 5}, To: Endpoint{External, 0}},
	}}
	if err := a.Validate(); err == nil {
		t.Error("out-of-range From.Port accepted")
	}
	a = &Array{PEs: []PE{&passPE{}}, Wires: []Wire{
		{From: Endpoint{External, 0}, To: Endpoint{0, 3}, Source: src},
	}}
	if err := a.Validate(); err == nil {
		t.Error("out-of-range To.Port accepted")
	}
	a = &Array{PEs: []PE{&passPE{}}, Wires: []Wire{
		{From: Endpoint{External, 0}, To: Endpoint{7, 0}, Source: src},
	}}
	if err := a.Validate(); err == nil {
		t.Error("out-of-range To.PE accepted")
	}
}

func TestLockstepPipelineDelay(t *testing.T) {
	// A chain of k pass PEs delays the stream by k-1 internal registers:
	// token fed at cycle 0 reaches the sink stamped with cycle k-1.
	const k = 4
	pes := make([]PE, k)
	for i := range pes {
		pes[i] = &passPE{}
	}
	a := chainArray(pes, seqSource(3))
	res, err := a.RunLockstep(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	wi := sinkWire(a)
	recs := res.Sunk[wi]
	firstValid := -1
	for _, r := range recs {
		if r.Token.Valid {
			firstValid = r.Cycle
			break
		}
	}
	if firstValid != k-1 {
		t.Errorf("first valid token at cycle %d, want %d", firstValid, k-1)
	}
	if got := validSunk(res, wi); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("sunk = %v, want [0 1 2]", got)
	}
}

func TestAddChainComputes(t *testing.T) {
	a := chainArray([]PE{&addPE{c: 1}, &addPE{c: 10}, &addPE{c: 100}}, seqSource(5))
	res, err := a.RunLockstep(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := validSunk(res, sinkWire(a))
	for i, v := range got {
		if v != float64(i)+111 {
			t.Errorf("sunk[%d] = %v, want %v", i, v, float64(i)+111)
		}
	}
}

func TestGoroutineMatchesLockstep(t *testing.T) {
	build := func() *Array {
		return chainArray([]PE{&addPE{c: 2}, newAccPE(), &addPE{c: 5}}, seqSource(6))
	}
	la := build()
	lres, err := la.RunLockstep(15, nil)
	if err != nil {
		t.Fatal(err)
	}
	ga := build()
	gres, err := ga.RunGoroutines(15)
	if err != nil {
		t.Fatal(err)
	}
	lw, gw := sinkWire(la), sinkWire(ga)
	ls, gs := lres.Sunk[lw], gres.Sunk[gw]
	if len(ls) != len(gs) {
		t.Fatalf("sink lengths differ: %d vs %d", len(ls), len(gs))
	}
	for i := range ls {
		if ls[i] != gs[i] {
			t.Errorf("sink[%d]: lockstep %+v vs goroutine %+v", i, ls[i], gs[i])
		}
	}
	for i := range lres.Busy {
		if lres.Busy[i] != gres.Busy[i] {
			t.Errorf("busy[%d]: lockstep %d vs goroutine %d", i, lres.Busy[i], gres.Busy[i])
		}
	}
	// Stateful PEs must reach the same final state.
	lacc := la.PEs[1].(*accPE).acc
	gacc := ga.PEs[1].(*accPE).acc
	if lacc != gacc {
		t.Errorf("accumulators differ: %v vs %v", lacc, gacc)
	}
}

func TestFeedbackRing(t *testing.T) {
	// Two PEs in a ring with an injection source: tests that cycles with an
	// initial token per wire run deadlock-free in both runners.
	build := func() *Array {
		p0 := &addPE{c: 1}
		p1 := &passPE{}
		return &Array{
			PEs: []PE{p0, p1, &ringMux{}},
			Wires: []Wire{
				// mux selects: source on cycle 0, feedback after.
				{From: Endpoint{External, 0}, To: Endpoint{2, 0}, Source: func(t int) Token {
					if t == 0 {
						return Token{V: 0, Valid: true}
					}
					return Bubble()
				}},
				{From: Endpoint{1, 0}, To: Endpoint{2, 1}, Init: Bubble()}, // feedback
				{From: Endpoint{2, 0}, To: Endpoint{0, 0}, Init: Bubble()},
				{From: Endpoint{0, 0}, To: Endpoint{1, 0}, Init: Bubble()},
				{From: Endpoint{1, 0}, To: Endpoint{External, 0}},
			},
		}
	}
	la := build()
	lres, err := la.RunLockstep(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	ga := build()
	gres, err := ga.RunGoroutines(9)
	if err != nil {
		t.Fatal(err)
	}
	// The token circulates: each trip through the ring adds 1 (addPE) and
	// takes 3 cycles (three registers on the loop).
	want := []float64{1, 2, 3}
	got := validSunk(lres, 4)
	if len(got) < len(want) {
		t.Fatalf("lockstep sunk %v, want prefix %v", got, want)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("lockstep sunk[%d] = %v, want %v", i, got[i], w)
		}
	}
	ggot := validSunk(gres, 4)
	for i := range got {
		if i < len(ggot) && ggot[i] != got[i] {
			t.Errorf("goroutine sunk[%d] = %v, lockstep %v", i, ggot[i], got[i])
		}
	}
	if len(ggot) != len(got) {
		t.Errorf("goroutine sunk %d values, lockstep %d", len(ggot), len(got))
	}
}

// ringMux forwards the injected token if valid, else the feedback token.
type ringMux struct{}

func (m *ringMux) NumIn() int  { return 2 }
func (m *ringMux) NumOut() int { return 1 }
func (m *ringMux) Step(in []Token) ([]Token, bool) {
	if in[0].Valid {
		return []Token{in[0]}, true
	}
	return []Token{in[1]}, in[1].Valid
}
func (m *ringMux) Reset() {}

func TestUtilization(t *testing.T) {
	r := &Result{Cycles: 10, Busy: []int{5, 10}}
	if got := r.Utilization(); got != 0.75 {
		t.Errorf("Utilization = %v, want 0.75", got)
	}
	empty := &Result{}
	if empty.Utilization() != 0 {
		t.Error("empty result utilization must be 0")
	}
}

func TestResetRestoresState(t *testing.T) {
	a := chainArray([]PE{newAccPE()}, seqSource(3))
	if _, err := a.RunLockstep(5, nil); err != nil {
		t.Fatal(err)
	}
	if a.PEs[0].(*accPE).acc != 0 {
		t.Fatalf("acc = %v, want 0", a.PEs[0].(*accPE).acc)
	}
	a.Reset()
	if !math.IsInf(a.PEs[0].(*accPE).acc, 1) {
		t.Error("Reset did not restore accumulator")
	}
}

func TestTraceCallback(t *testing.T) {
	a := chainArray([]PE{&passPE{}}, seqSource(2))
	calls := 0
	_, err := a.RunLockstep(4, func(cycle int, wires []Token) {
		if cycle != calls {
			t.Errorf("trace got cycle %d at call %d, want cycle order", cycle, calls)
		}
		calls++
		if len(wires) != len(a.Wires) {
			t.Errorf("trace got %d wires, want %d", len(wires), len(a.Wires))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("trace called %d times, want 4", calls)
	}
}

// A lock-step run steps PEs in index order, so with several PEs
// violating the Step contract it stops at, and names, the lowest-numbered
// one.
func TestLockstepErrorNamesLowestFaultyPE(t *testing.T) {
	pes := make([]PE, 9)
	for i := range pes {
		pes[i] = &faultyPE{bad: i == 4 || i == 7}
	}
	_, err := chainArray(pes, seqSource(4)).RunLockstep(6, nil)
	if err == nil {
		t.Fatal("lock-step run accepted a contract violation")
	}
	if want := "systolic: PE 4 produced 0 outputs, want 1"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

func TestBubble(t *testing.T) {
	b := Bubble()
	if b.Valid || !math.IsInf(b.V, 1) {
		t.Errorf("Bubble = %+v", b)
	}
}
