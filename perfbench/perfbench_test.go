package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// Inputs come from the seed alone: the same seed gives byte-identical
// inputs, another seed gives different ones.
func TestInputsAreSeedDeterministic(t *testing.T) {
	digest := func(name string, seed int64) [32]byte {
		w, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		return w.digest(1 << 16)
	}
	for _, name := range workloadNames {
		first := digest(name, 1)
		if again := digest(name, 1); again != first {
			t.Errorf("%s: seed 1 gave two different input sets", name)
		}
		if other := digest(name, 2); other == first {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	index := func(es []entry) map[string]string {
		m := make(map[string]string, len(es))
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	return index(b.EndToEnd), index(b.PerLayer)
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced:
// every metric BENCHMARK.json declares must be printed with its unit, no
// answer may be wrong, and the traced run must show each workload
// isolating its layer.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(options{workload: name, seed: 1, seconds: 1, trace: traced, setupReps: 1}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			line, ok := strings.CutPrefix(out.String(), "report: ")
			var rep report
			if !ok || json.Unmarshal([]byte(line), &rep) != nil {
				t.Fatalf("%s traced=%v: no report line in %q", name, traced, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d",
					name, traced, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				if got, ok := res.Metrics[metric]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: %s = %+v, want unit %q", name, traced, metric, got, unit)
				}
			}
			if traced {
				checkIsolation(t, name, res, rep)
			}
		}
	}
}

// checkIsolation asserts that a traced run shows its workload isolating
// the layer it is there for, and that every request was traced in full.
func checkIsolation(t *testing.T, name string, res *result, rep report) {
	t.Helper()
	if got := int(rep.Checks["traced_requests"]); got != rep.Attempted {
		t.Errorf("%s: %d of %d requests traced in full", name, got, rep.Attempted)
	}
	switch name {
	case "mix-small":
		// The batch window is most of a batched request's latency.
		if r := rep.Checks["batch_wait_p50_over_batched_latency_p50"]; r <= 0.5 {
			t.Errorf("mix-small: batch wait is %.2f of batched latency, want most", r)
		}
	case "compute-large":
		if s := rep.Checks["kernel_share"]; s <= 0.5 {
			t.Errorf("compute-large: kernels take %.2f of request time, want most", s)
		}
	case "hot-routed":
		// The warmed caches answer everything: no kernel runs.
		if hit := res.Metrics["serve.cache_hit_ratio"].Value; hit < 0.99 {
			t.Errorf("hot-routed: cache hit ratio %v, want at least 0.99", hit)
		}
		if rep.KernelRuns != 0 || rep.Checks["kernel_runs"] != 0 {
			t.Errorf("hot-routed: %d solves started, %v requests solved by a kernel; want none",
				rep.KernelRuns, rep.Checks["kernel_runs"])
		}
	}
}
