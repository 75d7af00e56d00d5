package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/obs"
)

// writeCycleTrace produces a design-1-shaped trace: 3 PEs, 8 cycles, a
// one-cycle skew, 6 busy cycles per PE.
func writeCycleTrace(t *testing.T) string {
	t.Helper()
	r := obs.NewCycleRecorder(3, 8)
	pt := r.PETrace()
	for pe := 0; pe < 3; pe++ {
		for c := 0; c < 8; c++ {
			pt(pe, c, c >= pe && c < pe+6)
		}
	}
	tr := r.Trace(obs.ArrayMeta{Design: 1, Runner: "lockstep", M: 3, K: 2, PUExpected: 0.75})
	path := filepath.Join(t.TempDir(), "cycle.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestSummarizeArrayTrace(t *testing.T) {
	var sb strings.Builder
	if err := run(writeCycleTrace(t), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"design 1, runner lockstep: 3 PEs, 8 cycles",
		"PE 1",
		"PE 3",
		"pipeline fill: 2 cycles",
		"measured  0.7500", // 18 busy PE-cycles over 24
		"closed    0.4444", // PUEq9(3, 3) = 1/3 + 1/9
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeRequestTrace(t *testing.T) {
	rec := obs.NewSpanRecorder(obs.ServeTier, 4)
	base := time.Unix(100, 0)
	s := obs.NewReqSpan("id1", "graph", base)
	s.Observe("queue_wait", base, base.Add(50*time.Microsecond))
	s.Observe("solve", base.Add(50*time.Microsecond), base.Add(250*time.Microsecond))
	s.Finish(base.Add(300*time.Microsecond), 200, false)
	rec.Add(s)
	path := filepath.Join(t.TempDir(), "req.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Trace().Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var sb strings.Builder
	if err := run(path, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"1 requests", "queue_wait", "solve"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(path, &sb); err == nil {
		t.Error("garbage accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing.json"), &sb); err == nil {
		t.Error("missing file accepted")
	}
}

// Collect mode pulls wire spans from live endpoints, stitches them, and
// both the terminal summary and the -out Perfetto file must reflect the
// cross-tier trace.
func TestRunCollect(t *testing.T) {
	base := time.Unix(500, 0)
	hops := obs.NewSpanRecorder(obs.RouterTier, 4)
	h := obs.NewReqSpan("r1", "chain", base)
	h.SetTrace("tid1", "")
	h.SetReplica("rep")
	h.Finish(base.Add(2*time.Millisecond), 200, false)
	hops.Add(h)
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(hops.WireSpans())
	}))
	defer router.Close()

	spans := obs.NewSpanRecorder(obs.ServeTier, 4)
	s := obs.NewReqSpan("r1", "chain", base.Add(time.Millisecond))
	s.SetTrace("tid1", "parent")
	s.Finish(s.Start.Add(time.Millisecond), 200, false)
	spans.Add(s)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(spans.WireSpans())
	}))
	defer replica.Close()

	out := filepath.Join(t.TempDir(), "fleet.json")
	var sb strings.Builder
	endpoints := strings.TrimPrefix(router.URL, "http://") + "," + replica.URL
	if err := runCollect(endpoints, out, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tid1") || !strings.Contains(sb.String(), "1 stitched traces") {
		t.Errorf("collect summary missing trace: %s", sb.String())
	}

	// The written document round-trips through the file summarizer.
	sb.Reset()
	if err := run(out, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet trace: 1 traces", "tid1", "hop", "request"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("fleet summary missing %q:\n%s", want, sb.String())
		}
	}

	if err := runCollect("http://127.0.0.1:1", "", &sb); err == nil {
		t.Error("collect with every endpoint dead must fail")
	}
	if err := runCollect(" , ", "", &sb); err == nil {
		t.Error("collect with no endpoints must fail")
	}
}
