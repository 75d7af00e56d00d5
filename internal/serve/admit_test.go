package serve

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/check"
	"systolicdp/internal/core"
	"systolicdp/internal/spec"
)

// specProblem decodes a spec JSON and builds its core.Problem.
func specProblem(t *testing.T, js string) core.Problem {
	t.Helper()
	f, err := spec.Decode([]byte(js))
	if err != nil {
		t.Fatalf("decode %s: %v", js, err)
	}
	p, err := f.Build()
	if err != nil {
		t.Fatalf("build %s: %v", js, err)
	}
	return p
}

// EstimateCost must reproduce the paper's closed forms: graphs of every
// design cost one multiply-accumulate per edge, DTW |x|·|y| cells, chain
// ordering ~n³/6 table updates — and every kind must price strictly
// positive.
func TestEstimateCostClosedForms(t *testing.T) {
	// graphSpec is a 1-4-4-1 staged graph: 4 + 16 + 4 edges.
	kind, cycles := EstimateCost(specProblem(t, graphSpec(0)))
	if kind != "graph" || cycles != 24 {
		t.Fatalf("design-1 graph = (%q, %v), want (graph, 24)", kind, cycles)
	}

	kind, cycles = EstimateCost(&core.DTWProblem{X: make([]float64, 7), Y: make([]float64, 5)})
	if kind != "dtw" || cycles != 7*5+1 {
		t.Errorf("dtw = (%q, %v), want (dtw, 36)", kind, cycles)
	}

	kind, cycles = EstimateCost(specProblem(t, `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`))
	if kind != "chain" || cycles <= 36 {
		t.Errorf("chain = (%q, %v), want kind chain and > n² cost", kind, cycles)
	}

	for _, js := range []string{
		`{"problem":"nodevalued","values":[[1,2],[3,4],[5]]}`,
		`{"problem":"dtw","x":[1,2,3],"y":[4,5]}`,
	} {
		if _, c := EstimateCost(specProblem(t, js)); c <= 0 {
			t.Errorf("%s priced non-positive cost %v", js, c)
		}
	}
}

// Every spec kind prices its problems under a named kind with at least
// one unit of work, so admission never sees a free request.
func TestEstimateCostExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range spec.Kinds() {
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
			if pk == "" {
				t.Fatalf("kind %s trial %d: EstimateCost returned an empty kind", kind, trial)
			}
			if cycles < 1 {
				t.Fatalf("kind %s trial %d: EstimateCost cycles = %g, want >= 1", kind, trial, cycles)
			}
		}
	}
}

// Degenerate shapes the random generator only hits probabilistically:
// each must still be priced, and solve.
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
		if pk, cycles := EstimateCost(p); pk == "" || cycles < 1 {
			t.Fatalf("%s: EstimateCost = (%q, %g), want a named kind and cycles >= 1", tc.name, pk, cycles)
		}
		if _, err := core.Solve(p); err != nil {
			t.Fatalf("%s: Solve: %v", tc.name, err)
		}
	}
}

// Uncalibrated kinds always admit (cold start must not 429); once a rate
// is observed, requests that cannot meet their deadline shed with an
// OverloadError that maps to ErrBusy and carries a sane Retry-After.
func TestAdmitterShedsOnlyWhenCalibratedAndLate(t *testing.T) {
	a := NewAdmitter(true, 1.0, 1)

	// Cold start: no rate for "dtw" yet, any deadline admits.
	res, err := a.Admit("dtw", 1e12, time.Millisecond)
	if err != nil {
		t.Fatalf("uncalibrated admit failed: %v", err)
	}
	res.Release()

	// Calibrate: 1000 units/second. A 10000-unit request (10s) cannot
	// meet a 1s deadline.
	a.Observe("dtw", 1000, 1)
	if got := a.Rate("dtw"); got != 1000 {
		t.Fatalf("rate after first observe = %v, want 1000", got)
	}
	_, err = a.Admit("dtw", 10000, time.Second)
	var ovl *OverloadError
	if !errors.As(err, &ovl) {
		t.Fatalf("late request admitted, err = %v", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Error("OverloadError does not map to ErrBusy (429)")
	}
	if ovl.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", ovl.RetryAfter)
	}

	// The same request with a generous deadline admits and reserves ~10s
	// of backlog; releasing drains it back to zero.
	res, err = a.Admit("dtw", 10000, time.Minute)
	if err != nil {
		t.Fatalf("feasible request shed: %v", err)
	}
	if got := a.BacklogSeconds(); got < 9 || got > 11 {
		t.Errorf("backlog after admit = %v, want ~10s", got)
	}
	// A second request that fits its own solve but not behind the backlog
	// sheds: 1000 units = 1s of work, deadline 2s, but 10s of backlog sits
	// ahead of it.
	if _, err := a.Admit("dtw", 1000, 2*time.Second); !errors.Is(err, ErrBusy) {
		t.Errorf("request behind 10s backlog admitted, err = %v", err)
	}
	res.Release()
	res.Release() // idempotent
	if got := a.BacklogSeconds(); got != 0 {
		t.Errorf("backlog after release = %v, want 0", got)
	}
	// Backlog gone: the same request now admits.
	res, err = a.Admit("dtw", 1000, 2*time.Second)
	if err != nil {
		t.Fatalf("request shed after backlog drained: %v", err)
	}
	res.Release()
}

// Disabled admission still calibrates and tracks backlog (warm handoff,
// live gauges) but never sheds.
func TestAdmitterDisabledNeverSheds(t *testing.T) {
	a := NewAdmitter(false, 1.0, 1)
	a.Observe("dtw", 1000, 1)
	res, err := a.Admit("dtw", 1e9, time.Millisecond)
	if err != nil {
		t.Fatalf("disabled admitter shed: %v", err)
	}
	if got := a.BacklogSeconds(); got <= 0 {
		t.Error("disabled admitter does not track backlog")
	}
	res.Release()
}

// Headroom sheds earlier: a request that fits exactly at headroom 1 is
// shed at headroom 2.
func TestAdmitterHeadroom(t *testing.T) {
	tight := NewAdmitter(true, 1.0, 1)
	tight.setRate("dtw", 1000)
	if _, err := tight.Admit("dtw", 1000, 1500*time.Millisecond); err != nil {
		t.Fatalf("1s of work shed against 1.5s deadline at headroom 1: %v", err)
	}
	wide := NewAdmitter(true, 2.0, 1)
	wide.setRate("dtw", 1000)
	if _, err := wide.Admit("dtw", 1000, 1500*time.Millisecond); !errors.Is(err, ErrBusy) {
		t.Errorf("headroom 2 admitted work predicted at 2x the deadline, err = %v", err)
	}
}

// End to end over HTTP: with admission on and the model calibrated to a
// rate that makes the deadline infeasible, /solve answers 429 with a
// Retry-After header and dpserve_admit_shed_total counts it; the backlog
// gauge is exported.
func TestServeAdmissionShedsOverHTTP(t *testing.T) {
	s := New(Config{
		BatchWindow:  -1,
		Timeout:      50 * time.Millisecond,
		AdmitEnabled: true,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Calibrate chain ordering absurdly slow: 1 unit/second means the
	// ~57-unit chain below prices far past the 50ms budget.
	s.admit.setRate("chain", 1)

	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}

	text := metricsText(t, ts.URL)
	if v := metricValue(t, text, "dpserve_admit_shed_total"); v != 1 {
		t.Errorf("dpserve_admit_shed_total = %v, want 1", v)
	}
	if !strings.Contains(text, "dpserve_admit_backlog_seconds") {
		t.Errorf("/metrics missing backlog gauge:\n%s", text)
	}
	if v := metricValue(t, text, "dpserve_rejected_total"); v != 1 {
		t.Errorf("shed not counted as rejection, rejected = %v", v)
	}

	// A feasible request still solves, and its measured rate rewrites the
	// bogus calibration so subsequent requests admit again.
	s.admit.setRate("chain", 0)
	resp, err = http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"problem":"chain","dims":[3,5,7,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feasible request after recalibration: status %d", resp.StatusCode)
	}
	if s.admit.Rate("chain") <= 0 {
		t.Error("successful solve did not calibrate the chain rate")
	}
}

// Solving through the real pipeline calibrates every kind it touches:
// the Design-1 batcher path feeds the graph rate, as an unbatched graph
// would, and a solve slot the chain rate.
func TestAdmitterCalibratesFromTraffic(t *testing.T) {
	s := New(Config{BatchWindow: time.Millisecond, BatchMax: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSpec(t, ts.URL, graphSpec(0))
	postSpec(t, ts.URL, `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`)

	if r := s.admit.Rate("graph"); r <= 0 {
		t.Error("batched Design-1 solve did not calibrate the graph rate")
	}
	if r := s.admit.Rate("graph-stream"); r != 0 {
		t.Errorf("batched Design-1 solve calibrated the retired graph-stream rate: %v", r)
	}
	if r := s.admit.Rate("chain"); r <= 0 {
		t.Error("pool chain solve did not calibrate the chain rate")
	}
	if got := s.admit.BacklogSeconds(); got != 0 {
		t.Errorf("backlog non-zero at idle: %v", got)
	}
}

// The reservation releases on every dispatch outcome — success, shed,
// error, and client abandonment — so the backlog cannot leak upward and
// turn into a permanent 429.
func TestAdmitterBacklogReleasesOnAllPaths(t *testing.T) {
	s := New(Config{BatchWindow: -1, Timeout: 5 * time.Second, AdmitEnabled: true})
	defer s.Close()

	// Abandonment: a dispatch whose context dies mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := specProblem(t, `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`)
	if _, err := s.dispatch(ctx, p); err == nil {
		t.Fatal("dispatch with dead context succeeded")
	}
	if got := s.admit.BacklogSeconds(); got != 0 {
		t.Errorf("backlog after abandoned dispatch = %v, want 0", got)
	}

	// Success path.
	if _, err := s.dispatch(context.Background(), p); err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if got := s.admit.BacklogSeconds(); got != 0 {
		t.Errorf("backlog after successful dispatch = %v, want 0", got)
	}
}
