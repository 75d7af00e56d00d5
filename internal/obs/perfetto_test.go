package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file; run go test ./internal/obs -update\ngot:\n%s", name, got)
	}
}

// golden builds the deterministic trace used by the golden-file and
// schema tests: 2 PEs over 4 cycles with a one-cycle skew, lock-step wire
// counts included.
func goldenTrace() *Trace {
	r := NewCycleRecorder(2, 4)
	pt := r.PETrace()
	for c := 0; c < 4; c++ {
		pt(0, c, c < 3)
		pt(1, c, c >= 1)
	}
	wt := r.WireTrace()
	for c := 0; c < 4; c++ {
		wt(c, nil)
	}
	return r.Trace(ArrayMeta{Design: 1, Runner: "lockstep", M: 2, K: 2, PUExpected: 0.75})
}

func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cycle_golden.json", buf.Bytes())
}

// TestPerfettoSchema asserts the export satisfies the Chrome trace-event
// JSON-object-format contract Perfetto requires: a traceEvents array in
// which every event has ph and ts, and every non-metadata event carries
// pid/tid routing.
func TestPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	rawEvents, ok := doc["traceEvents"]
	if !ok {
		t.Fatal("missing required top-level key traceEvents")
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(rawEvents, &events); err != nil {
		t.Fatalf("traceEvents is not an array of objects: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("traceEvents empty")
	}
	for i, e := range events {
		for _, key := range []string{"ph", "ts", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, e)
			}
		}
		var ph string
		if err := json.Unmarshal(e["ph"], &ph); err != nil {
			t.Fatalf("event %d ph not a string", i)
		}
		// Complete events additionally need tid (counters attach per-pid).
		if ph == PhaseComplete || ph == PhaseMetadata {
			if _, ok := e["tid"]; !ok {
				t.Fatalf("event %d (ph=%s) missing tid", i, ph)
			}
		}
	}
}
