package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunAllDesigns(t *testing.T) {
	cases := []struct {
		name       string
		design     int
		goroutines bool
		trace      bool
	}{
		{"design1-lockstep", 1, false, false},
		{"design1-goroutines", 1, true, false},
		{"design1-trace", 1, false, true},
		{"design2-lockstep", 2, false, false},
		{"design2-goroutines", 2, true, false},
		{"design3-lockstep", 3, false, false},
		{"design3-goroutines", 3, true, false},
		{"design3-trace", 3, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := run(c.design, 5, 3, 42, c.trace, c.goroutines, ""); err != nil {
				t.Fatalf("design %d: %v", c.design, err)
			}
		})
	}
}

// TestTraceJSONAllDesigns covers the Perfetto export for every design
// under both runners: the file must exist, be valid JSON, and carry the
// required trace-event keys.
func TestTraceJSONAllDesigns(t *testing.T) {
	for _, design := range []int{1, 2, 3} {
		for _, goroutines := range []bool{false, true} {
			name := map[bool]string{false: "lockstep", true: "goroutines"}[goroutines]
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "trace.json")
				if err := run(design, 5, 3, 42, false, goroutines, path); err != nil {
					t.Fatalf("design %d %s: %v", design, name, err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []map[string]any  `json:"traceEvents"`
					OtherData   map[string]string `json:"otherData"`
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatalf("design %d %s trace is not JSON: %v", design, name, err)
				}
				if len(doc.TraceEvents) == 0 {
					t.Fatalf("design %d %s: no trace events", design, name)
				}
				if doc.OtherData["runner"] != name {
					t.Errorf("runner metadata %q, want %q", doc.OtherData["runner"], name)
				}
				busy := 0
				for _, e := range doc.TraceEvents {
					if e["ph"] == "X" && e["name"] == "busy" {
						busy++
					}
				}
				if busy == 0 {
					t.Errorf("design %d %s: no busy spans", design, name)
				}
			})
		}
	}
}

// TestASCIITraceRejections: -trace must fail loudly, not silently ignore
// the flag, for the combinations it cannot serve.
func TestASCIITraceRejections(t *testing.T) {
	if err := run(2, 5, 3, 42, true, false, ""); err == nil {
		t.Error("-trace accepted for design 2")
	}
	if err := run(1, 5, 3, 42, true, true, ""); err == nil {
		t.Error("-trace accepted with -goroutines")
	}
	if err := run(3, 5, 3, 42, true, true, ""); err == nil {
		t.Error("-trace accepted with -goroutines on design 3")
	}
}

func TestRunUnknownDesign(t *testing.T) {
	if err := run(9, 5, 3, 42, false, false, ""); err == nil {
		t.Error("unknown design accepted")
	}
}
