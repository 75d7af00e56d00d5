package route

import (
	"strconv"
	"strings"
	"testing"

	"systolicdp/internal/promtext"
)

// The router's /metrics output gets the same strict exposition check the
// replica tier got in PR 5: every family declared exactly once with a
// # TYPE line before its samples, labeled families rendered under one
// declaration. Populate every counter the router can emit, then lint.
func TestRouterMetricsExpositionTypeChecks(t *testing.T) {
	m := NewMetrics()
	m.Forwarded("http://a:1", 200)
	m.Forwarded("http://a:1", 429)
	m.Forwarded("http://b:2", 200)
	m.Retries.Inc()
	m.NoReplica.Inc()
	m.ProxyErrors.Inc()
	m.BadSpec.Inc()
	m.Decodes.Inc()
	m.Ejections.Inc()
	m.Readmits.Inc()
	m.Reloads.Inc()
	m.SlowTraces.Inc()

	var sb strings.Builder
	m.Write(&sb)
	text := sb.String()
	if err := promtext.Lint(text); err != nil {
		t.Fatalf("router /metrics exposition is not strictly parseable: %v\n%s", err, text)
	}
	fams, err := promtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	// Every family must carry its own # TYPE declaration (Lint enforces
	// that structurally; assert the important ones exist at all).
	for _, name := range []string{
		"dprouter_forwards_total", "dprouter_upstream_responses_total",
		"dprouter_retries_total", "dprouter_no_replica_total",
		"dprouter_proxy_errors_total", "dprouter_bad_spec_total",
		"dprouter_decodes_total", "dprouter_ejections_total", "dprouter_readmits_total",
		"dprouter_membership_reloads_total", "dprouter_slow_traces_total",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	byReplica := fams.Labeled("dprouter_forwards_total", "replica")
	if byReplica["http://a:1"] != 2 || byReplica["http://b:2"] != 1 {
		t.Errorf("forwards by replica = %v", byReplica)
	}
	byStatus := fams.Labeled("dprouter_upstream_responses_total", "status")
	if byStatus["200"] != 2 || byStatus["429"] != 1 {
		t.Errorf("responses by status = %v", byStatus)
	}
}

// An untouched metric set (fresh router, no traffic) must also lint: the
// labeled families still declare their TYPE with zero samples, so a
// scraper sees a stable family set from the first poll.
func TestRouterMetricsExpositionEmpty(t *testing.T) {
	var sb strings.Builder
	NewMetrics().Write(&sb)
	if err := promtext.Lint(sb.String()); err != nil {
		t.Fatalf("empty router exposition invalid: %v\n%s", err, sb.String())
	}
}

// Counting a forward allocates nothing for the codes a replica answers:
// their labels are spelled out, so a routed request pays no strconv.Itoa
// for its status. Every code's label is its decimal form, as
// strconv.Itoa writes it, whether spelled out or not.
func TestForwardedStatusLabelAllocs(t *testing.T) {
	for _, status := range []int{-1, 0, 99, 100, 200, 400, 405, 429, 499, 500, 503, 504, 599, 1000} {
		if got, want := statusLabel(status), strconv.Itoa(status); got != want {
			t.Errorf("statusLabel(%d) = %q, want %q", status, got, want)
		}
	}
	m := NewMetrics()
	for _, status := range []int{200, 400, 405, 429, 499, 500, 503, 504} {
		m.Forwarded("http://a:1", status)
		if n := testing.AllocsPerRun(100, func() { m.Forwarded("http://a:1", status) }); n != 0 {
			t.Errorf("Forwarded(%d) allocated %v times", status, n)
		}
	}
}
