package serve

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/check"
	"systolicdp/internal/core"
	"systolicdp/internal/spec"
)

// Every kind the generator can emit must hit a real pricing arm: the
// (UnpricedKind, 1) default is a last-resort fallback for Problem types
// added without a cost model, not a bucket any registered spec kind is
// allowed to land in. This is the exhaustiveness guard the admit.go
// default arms point at.
func TestEstimateCostExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range check.Kinds() {
		for trial := 0; trial < 25; trial++ {
			in := check.GenKind(rng, kind, check.GenConfig{})
			if err := in.File.Validate(); err != nil {
				t.Fatalf("kind %s trial %d: generated invalid spec: %v", kind, trial, err)
			}
			p, err := in.File.Build()
			if err != nil {
				t.Fatalf("kind %s trial %d: build: %v", kind, trial, err)
			}
			pk, cycles := EstimateCost(p)
			if pk == UnpricedKind {
				t.Fatalf("kind %s trial %d: EstimateCost fell through to the %q default — add a pricing arm",
					kind, trial, UnpricedKind)
			}
			if cycles < 1 {
				t.Fatalf("kind %s trial %d: EstimateCost cycles = %g, want >= 1", kind, trial, cycles)
			}
		}
	}
}

// Degenerate shapes the random generator only hits probabilistically:
// each must still hit a real pricing arm, and solve.
func TestEstimateCostDegenerateShapes(t *testing.T) {
	cases := []struct {
		name string
		file spec.File
	}{
		{"align-empty-x", spec.File{Problem: "align", Y: []float64{1, 2}, GapOpen: 2, GapExtend: 1}},
		{"align-empty-y", spec.File{Problem: "align", X: []float64{3}, GapOpen: 2, GapExtend: 1}},
		{"align-both-empty", spec.File{Problem: "align", GapOpen: 1, GapExtend: 1}},
		{"viterbi-single-stage", spec.File{Problem: "viterbi", Values: [][]float64{{4, 1, 3}}}},
		{"knapsack-zero-weight", spec.File{Problem: "knapsack", Proc: []int{2, 1}, Due: []int{3, 2}, Weights: []float64{0, 0}}},
		{"knapsack-no-jobs", spec.File{Problem: "knapsack"}},
		{"knapsack-zero-length-jobs", spec.File{Problem: "knapsack", Proc: []int{0, 0}, Due: []int{1, 5}, Weights: []float64{2, 3}}},
	}
	for _, tc := range cases {
		if err := tc.file.Validate(); err != nil {
			t.Fatalf("%s: Validate: %v", tc.name, err)
		}
		p, err := tc.file.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", tc.name, err)
		}
		if pk, cycles := EstimateCost(p); pk == UnpricedKind || cycles < 1 {
			t.Fatalf("%s: EstimateCost = (%s, %g), want a priced kind and cycles >= 1", tc.name, pk, cycles)
		}
		if _, err := core.Solve(p); err != nil {
			t.Fatalf("%s: Solve: %v", tc.name, err)
		}
	}
}

// unregisteredProblem is a Problem type with no EstimateCost arm.
type unregisteredProblem struct{}

func (unregisteredProblem) Classify() core.Class { return core.Class{} }
func (unregisteredProblem) Describe() string     { return "unregistered" }

func TestEstimateCostUnknownProblem(t *testing.T) {
	kind, cycles := EstimateCost(unregisteredProblem{})
	if kind != UnpricedKind || cycles != 1 {
		t.Fatalf("EstimateCost(unregistered) = (%s, %g), want (%s, 1)", kind, cycles, UnpricedKind)
	}
}

// Regression test for the unpriced-kind admission hole: every request
// with no pricing arm carries cycles=1, so once ANY unpriced solve
// calibrated the shared units/second rate, later unpriced requests were
// estimated at cycles/rate ≈ 0 seconds and sailed past admission no
// matter how large the backlog grew. Pre-fix, the third Admit below was
// accepted (est ≈ 1e-6 s each, predicted backlog never approached the
// deadline); post-fix the Admitter prices unpriced work at its observed
// per-solve seconds and sheds at 2× capacity.
func TestUnpricedKindShedAtOverload(t *testing.T) {
	a := NewAdmitter(true, 1, 1)
	// A fast early solve poisons the rate: 1 cycle / 1µs = 1e6 units/s.
	a.setRate(UnpricedKind, 1e6)
	// One observed unpriced solve took a full second.
	a.Observe(UnpricedKind, 1, 1.0)

	deadline := 2 * time.Second
	r1, err := a.Admit(UnpricedKind, 1, deadline)
	if err != nil {
		t.Fatalf("first unpriced Admit shed: %v", err)
	}
	defer r1.Release()
	r2, err := a.Admit(UnpricedKind, 1, deadline)
	if err != nil {
		t.Fatalf("second unpriced Admit shed: %v", err)
	}
	defer r2.Release()
	// Backlog now holds 2 s of predicted work against a 2 s deadline: a
	// third 1 s request cannot finish in time and must shed.
	r3, err := a.Admit(UnpricedKind, 1, deadline)
	if err == nil {
		r3.Release()
		t.Fatal("third unpriced Admit accepted at 2x capacity; unpriced work is sailing past admission")
	}
	var oe *OverloadError
	if !asOverload(err, &oe) {
		t.Fatalf("shed error = %T %v, want *OverloadError", err, err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("shed RetryAfter = %v, want > 0", oe.RetryAfter)
	}

	// Releasing the backlog reopens admission.
	r1.Release()
	r2.Release()
	r4, err := a.Admit(UnpricedKind, 1, deadline)
	if err != nil {
		t.Fatalf("Admit after release shed: %v", err)
	}
	r4.Release()
}

func asOverload(err error, target **OverloadError) bool {
	oe, ok := err.(*OverloadError)
	if ok {
		*target = oe
	}
	return ok
}

// The unpriced counter must reach the exposition endpoint.
func TestAdmitUnpricedMetricExposed(t *testing.T) {
	m := NewMetrics()
	m.AdmitUnpriced.Inc()
	var b strings.Builder
	m.Write(&b)
	if !strings.Contains(b.String(), "dpserve_admit_unpriced_total 1") {
		t.Fatalf("metrics output missing dpserve_admit_unpriced_total:\n%s", b.String())
	}
}
