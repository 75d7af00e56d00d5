package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"systolicdp/internal/promtext"
)

// The full live /metrics output — after traffic that populates every
// family, including batched solves, cache hits, rejections, and the
// runtime gauges — must satisfy the strict family rules enforced by
// promtext.Lint (every sample in exactly one declared family, histograms
// owning only their _bucket/_sum/_count series). Before the PR-5 fix,
// dpserve_solve_latency_seconds{quantile=...} reused the histogram's
// family name and this parse failed; the checker now lives in
// internal/promtext so the router tier and dptop share it.
func TestMetricsExpositionTypeChecks(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSpec(t, ts.URL, graphSpec(0))
	postSpec(t, ts.URL, graphSpec(0)) // cache hit
	postSpec(t, ts.URL, `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`)
	postSpec(t, ts.URL, `{not json`) // error counter

	text := metricsText(t, ts.URL)
	if err := promtext.Lint(text); err != nil {
		t.Fatalf("/metrics exposition is not strictly parseable: %v\n%s", err, text)
	}
	// The renamed quantile family exists and the old duplicate does not.
	if !strings.Contains(text, `dpserve_solve_latency_quantile_seconds{quantile="0.95"}`) {
		t.Errorf("missing renamed quantile family:\n%s", text)
	}
	if strings.Contains(text, `dpserve_solve_latency_seconds{quantile=`) {
		t.Errorf("old duplicate-family quantile series still emitted:\n%s", text)
	}
	// The parsed form is what dptop consumes: per-kind request counters
	// and the admission backlog gauge must be readable back out.
	fams, err := promtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	byKind := fams.Labeled("dpserve_requests_total", "problem")
	if byKind["graph"] != 2 || byKind["chain"] != 1 {
		t.Errorf("parsed request counters = %v", byKind)
	}
	if _, ok := fams["dpserve_admit_backlog_seconds"]; !ok {
		t.Error("dpserve_admit_backlog_seconds gauge missing from exposition")
	}
}

// Quantile gauges still track the histogram after the rename.
func TestSolveLatencyQuantileFamilyValues(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 100; i++ {
		m.SolveSeconds.Observe(float64(i) / 100)
	}
	var sb strings.Builder
	m.Write(&sb)
	p95 := m.SolveSeconds.Quantile(0.95)
	want := fmt.Sprintf(`dpserve_solve_latency_quantile_seconds{quantile="0.95"} %g`, p95)
	if !strings.Contains(sb.String(), want) {
		t.Errorf("missing %q in:\n%s", want, sb.String())
	}
}
