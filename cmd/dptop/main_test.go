package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeFleet is a router /statusz plus one replica /metrics whose request
// counter advances on every scrape, so RED deltas are deterministic; the
// backlog gauge and the cache counters hold still.
type fakeFleet struct {
	router  *httptest.Server
	replica *httptest.Server
	scrapes atomic.Int64
}

func newFakeFleet(t *testing.T) *fakeFleet {
	t.Helper()
	f := &fakeFleet{}
	f.replica = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		n := f.scrapes.Add(1)
		fmt.Fprintf(w, "# TYPE dpserve_requests_total counter\n")
		fmt.Fprintf(w, "dpserve_requests_total{problem=\"chain\"} %d\n", 10*n)
		fmt.Fprintf(w, "dpserve_requests_total{problem=\"graph\"} %d\n", 5*n)
		fmt.Fprintf(w, "# TYPE dpserve_errors_total counter\ndpserve_errors_total %d\n", n)
		fmt.Fprintf(w, "# TYPE dpserve_rejected_total counter\ndpserve_rejected_total 0\n")
		fmt.Fprintf(w, "# TYPE dpserve_timeouts_total counter\ndpserve_timeouts_total 0\n")
		fmt.Fprintf(w, "# TYPE dpserve_solve_latency_quantile_seconds gauge\n")
		fmt.Fprintf(w, "dpserve_solve_latency_quantile_seconds{quantile=\"0.95\"} 0.002\n")
		fmt.Fprintf(w, "# TYPE dpserve_admit_backlog_seconds gauge\ndpserve_admit_backlog_seconds 1.5\n")
		fmt.Fprintf(w, "# TYPE dpserve_cache_hits_total counter\ndpserve_cache_hits_total 30\n")
		fmt.Fprintf(w, "# TYPE dpserve_cache_misses_total counter\ndpserve_cache_misses_total 10\n")
	}))
	t.Cleanup(f.replica.Close)
	f.router = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/statusz" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, `{"draining":false,"policy":"hash","replicas":[
			{"base":%q,"healthy":true,"inflight":2,"own_share":0.5},
			{"base":"http://127.0.0.1:1","healthy":false,"own_share":0.5}]}`, f.replica.URL)
	}))
	t.Cleanup(f.router.Close)
	return f
}

func TestOnceSnapshot(t *testing.T) {
	f := newFakeFleet(t)
	var buf bytes.Buffer
	client := &http.Client{Timeout: 2 * time.Second}
	if err := run(context.Background(), client, f.router.URL, 100*time.Millisecond, true, &buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("-once output not JSON: %v\n%s", err, buf.String())
	}
	if snap.Router.Policy != "hash" || snap.Router.Draining {
		t.Errorf("router view wrong: %+v", snap.Router)
	}
	if len(snap.Replicas) != 2 {
		t.Fatalf("%d replica rows, want 2", len(snap.Replicas))
	}
	// Rows are sorted by base; the live replica's URL starts with
	// http://127.0.0.1:<port> so locate by scrape error instead.
	var live, dead *row
	for i := range snap.Replicas {
		if snap.Replicas[i].ScrapeError == "" {
			live = &snap.Replicas[i]
		} else {
			dead = &snap.Replicas[i]
		}
	}
	if live == nil || dead == nil {
		t.Fatalf("want one live and one unreachable row: %+v", snap.Replicas)
	}
	// Counters advance 15 requests and 1 error per scrape; the window is
	// ~0.1s, so rates land well above zero. Exact values depend on wall
	// clock, so assert the deltas' direction and the ratio.
	if live.ReqRate <= 0 || live.ErrRate <= 0 {
		t.Errorf("RED rates not computed: req=%.1f err=%.1f", live.ReqRate, live.ErrRate)
	}
	if ratio := live.ReqRate / live.ErrRate; ratio < 14.9 || ratio > 15.1 {
		t.Errorf("req/err ratio %.2f, want 15 (15 requests per error per scrape)", ratio)
	}
	if live.KindRates["chain"] <= live.KindRates["graph"] {
		t.Errorf("kind rates wrong: %+v (chain advances 2x graph)", live.KindRates)
	}
	if live.P95Ms != 2 {
		t.Errorf("p95 %.3fms, want 2", live.P95Ms)
	}
	if live.CacheHitRate != 0.75 {
		t.Errorf("cache hit rate %v, want 0.75", live.CacheHitRate)
	}
	if live.OwnShare != 0.5 || live.BacklogSeconds != 1.5 || live.Inflight != 2 {
		t.Errorf("statusz passthrough wrong: %+v", live)
	}
	if dead.Healthy {
		t.Error("unreachable replica shown healthy")
	}
}

func TestRenderTable(t *testing.T) {
	f := newFakeFleet(t)
	client := &http.Client{Timeout: 2 * time.Second}
	prev, err := poll(context.Background(), client, f.router.URL)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := poll(context.Background(), client, f.router.URL)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render(&buf, buildSnapshot(prev, cur))
	out := buf.String()
	for _, want := range []string{"policy=hash", "REPLICA", "EJECTED", "scrape failed", " 1.5s "} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunFailsWithoutRouter(t *testing.T) {
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if err := run(context.Background(), client, "http://127.0.0.1:1", time.Millisecond, true, &bytes.Buffer{}); err == nil {
		t.Error("run with no router must fail")
	}
}
