package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-duration", "3s", "-rps", "50", "-mix", "chain, dtw", "-compare"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.duration != 3*time.Second || cfg.rps != 50 || !cfg.compare {
		t.Errorf("parsed config = %+v", cfg)
	}
	if len(cfg.mix) != 2 || cfg.mix[0] != "chain" || cfg.mix[1] != "dtw" {
		t.Errorf("mix = %v, want [chain dtw] (whitespace trimmed)", cfg.mix)
	}

	if _, err := parseFlags([]string{"-mix", "nosuchkind"}); err == nil {
		t.Error("unknown mix kind accepted")
	}
	if _, err := parseFlags([]string{"-compare", "-addr", "http://x"}); err == nil {
		t.Error("-compare with -addr accepted (needs the in-process server)")
	}
}

func TestParseFlagsScalingMode(t *testing.T) {
	cfg, err := parseFlags([]string{"-replicas", "1, 2,4,8", "-keys", "500", "-cache", "256", "-ablate-random"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.replicas) != 4 || cfg.replicas[0] != 1 || cfg.replicas[3] != 8 {
		t.Errorf("replicas = %v", cfg.replicas)
	}
	if cfg.keys != 500 || cfg.cache != 256 || !cfg.ablate {
		t.Errorf("scaling knobs = %+v", cfg)
	}

	if _, err := parseFlags([]string{"-replicas", "0"}); err == nil {
		t.Error("zero fleet size accepted")
	}
	if _, err := parseFlags([]string{"-replicas", "2", "-addr", "http://x"}); err == nil {
		t.Error("-replicas with -addr accepted")
	}
	if _, err := parseFlags([]string{"-replicas", "2", "-compare"}); err == nil {
		t.Error("-replicas with -compare accepted")
	}
	if _, err := parseFlags([]string{"-ablate-random"}); err == nil {
		t.Error("-ablate-random without -replicas accepted")
	}
}

// A keyed pool must be a fixed set of distinct specs, reproducible from
// the seed — that is what makes cache-hit comparisons across runs fair.
func TestKeyedBodiesPool(t *testing.T) {
	a := newBodies(42, []string{"chain", "dtw"}, 2).keyed(50)
	b := newBodies(42, []string{"chain", "dtw"}, 2).keyed(50)
	for i := range a.pool {
		if string(a.pool[i].raw) != string(b.pool[i].raw) {
			t.Fatalf("pool entry %d differs across same-seed generators", i)
		}
		if a.pool[i].kind == "" {
			t.Fatalf("pool entry %d has no kind tag", i)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		seen[string(a.next().raw)] = true
	}
	if len(seen) > 50 {
		t.Fatalf("keyed generator produced %d distinct bodies, pool is 50", len(seen))
	}
	if len(seen) < 25 {
		t.Fatalf("only %d distinct bodies in 500 draws from a 50-key pool", len(seen))
	}
}

// The generator stream only yields wire-valid bodies, and scaling keeps
// them valid.
func TestBodiesAreValidSpecs(t *testing.T) {
	gen := newBodies(7, []string{"graph", "chain", "nonserial"}, 3)
	for i := 0; i < 30; i++ {
		body := gen.next()
		var v map[string]any
		if err := json.Unmarshal(body.raw, &v); err != nil {
			t.Fatalf("body %d is not JSON: %v\n%s", i, err, body.raw)
		}
		if v["problem"] == "" {
			t.Fatalf("body %d has no problem kind: %s", i, body.raw)
		}
		if v["problem"] != body.kind {
			t.Fatalf("body %d kind tag %q != wire problem %q", i, body.kind, v["problem"])
		}
	}
}

// End to end: a short in-process run produces a report with traffic in
// it and writes the JSON artifact.
func TestDploadInProcessSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	cfg, err := parseFlags([]string{
		"-duration", "1s", "-rps", "100", "-conc", "8",
		"-mix", "chain,dtw", "-timeout", "2s", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(cfg, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("artifact is not a Report: %v\n%s", err, raw)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("report has %d runs, want 1", len(rep.Runs))
	}
	rr := rep.Runs[0]
	if rr.Sent == 0 || rr.Statuses["200"] == 0 {
		t.Errorf("no successful traffic recorded: %+v", rr)
	}
	if rr.NetErrors != 0 {
		t.Errorf("net errors against in-process server: %+v", rr)
	}
}

// Scaling mode end to end: two fleet sizes through the in-process
// router, keyed workload, cache hits observed through the proxy hop.
func TestDploadScalingSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	cfg, err := parseFlags([]string{
		"-duration", "1s", "-rps", "80", "-conc", "8",
		"-mix", "chain,dtw", "-keys", "30", "-replicas", "1,2",
		"-timeout", "2s", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(cfg, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("artifact is not a Report: %v\n%s", err, raw)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("report has %d runs, want 2 (one per fleet size)", len(rep.Runs))
	}
	for i, rr := range rep.Runs {
		if rr.Replicas != cfg.replicas[i] || rr.Policy != "hash" {
			t.Errorf("run %d provenance wrong: %+v", i, rr)
		}
		if rr.Statuses["200"] == 0 {
			t.Errorf("run %d: no successful traffic: %+v", i, rr)
		}
		// 30 keys sampled hundreds of times: hits must appear, and the
		// X-Dpserve-Cache header must survive the proxy hop.
		if rr.CacheHits == 0 {
			t.Errorf("run %d: no cache hits observed through the router: %+v", i, rr)
		}
	}
}

// Batching comparison end to end: two phases (batch-off, batch-on) over
// the identical keyed mixed-kind workload, per-kind goodput tallied, and
// nonzero batch occupancy scraped for the Design-1 stream, the one
// batched kind, in the ON phase.
func TestDploadCompareBatchSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	cfg, err := parseFlags([]string{
		"-duration", "1500ms", "-rps", "120", "-conc", "16",
		"-mix", "graph,chain,dtw", "-keys", "48", "-compare-batch",
		"-timeout", "2s", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(cfg, &sb); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("artifact is not a Report: %v\n%s", err, raw)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("report has %d runs, want 2 (batch-off, batch-on)", len(rep.Runs))
	}
	off, on := rep.Runs[0], rep.Runs[1]
	if off.Name != "batch-off" || on.Name != "batch-on" {
		t.Fatalf("phase names = %q, %q", off.Name, on.Name)
	}
	if !strings.Contains(off.BatchConfig, "batch_max=1") || !strings.Contains(on.BatchConfig, "batch_max=16") {
		t.Errorf("batch provenance = %q / %q", off.BatchConfig, on.BatchConfig)
	}
	for _, rr := range rep.Runs {
		if rr.Statuses["200"] == 0 {
			t.Fatalf("%s: no successful traffic: %+v", rr.Name, rr)
		}
		// Cache is forced off in both phases: nothing may report a hit.
		if rr.CacheHits != 0 {
			t.Errorf("%s: cache hits with the cache disabled: %+v", rr.Name, rr)
		}
		for _, kind := range []string{"graph", "chain", "dtw"} {
			if rr.OKByKind[kind] == 0 {
				t.Errorf("%s: no per-kind goodput recorded for %s: %v", rr.Name, kind, rr.OKByKind)
			}
		}
	}
	// The OFF phase routes everything to the pool: no flushes at all.
	if len(off.BatchFlushes) != 0 {
		t.Errorf("batch-off phase recorded flushes: %v", off.BatchFlushes)
	}
	// The ON phase must show Design-1 graphs flowing through the stream
	// kernel, and only them: every other kind solves on the pool.
	if off.BatchOccupancyMean["graph-stream"] != 0 {
		t.Error("batch-off shows graph-stream occupancy")
	}
	if on.BatchFlushes["graph-stream"] == 0 || on.BatchOccupancyMean["graph-stream"] < 1 {
		t.Errorf("batch-on phase: graph-stream flushes=%v occupancy=%v, want >=1",
			on.BatchFlushes["graph-stream"], on.BatchOccupancyMean["graph-stream"])
	}
	for kind := range on.BatchFlushes {
		if kind != "graph-stream" {
			t.Errorf("batch-on phase: flushes recorded for %s, which has no batch kernel", kind)
		}
	}
}
