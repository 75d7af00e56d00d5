package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"systolicdp/internal/check"
	"systolicdp/internal/core"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
	"systolicdp/internal/spec"
)

// postSpec posts a raw spec body and returns status, decoded response (on
// 200), body text, and the cache header.
func postSpec(t *testing.T, url string, body string) (int, *Response, string, string) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var r *Response
	if resp.StatusCode == http.StatusOK {
		r = &Response{}
		if err := json.Unmarshal(raw, r); err != nil {
			t.Fatalf("bad response body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, r, string(raw), resp.Header.Get("X-Dpserve-Cache")
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// graphSpec builds a distinct 1-4-4-1 Design-1 graph spec; salt perturbs
// one edge cost so specs hash differently but share a stream shape.
func graphSpec(salt int) string {
	return fmt.Sprintf(`{"problem":"graph","design":1,"costs":[
		[[1,2,3,%d]],
		[[4,5,6,7],[7,8,9,1],[1,1,2,5],[3,2,8,6]],
		[[2],[3],[4],[5]]]}`, 4+salt)
}

// The served answer must match what dpsolve -spec computes for the same
// file — core.Solve on the parsed spec — bit for bit, for generated
// instances of every kind, with batching on (the default) and off
// (BatchMax 1). The cache is off so every request reaches a kernel.
func TestServeMatchesDirectSolve(t *testing.T) {
	for _, batchMax := range []int{0, 1} {
		t.Run(fmt.Sprintf("batch_max=%d", batchMax), func(t *testing.T) {
			s := New(Config{BatchMax: batchMax, CacheSize: -1})
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			rng := rand.New(rand.NewSource(13))
			for _, kind := range spec.Kinds() {
				for n := 0; n < 8; {
					in := check.GenKind(rng, kind, check.GenConfig{})
					if in.File.Validate() != nil {
						continue // ±Inf edges have no wire form
					}
					n++
					body, err := in.File.Marshal()
					if err != nil {
						t.Fatal(err)
					}
					status, got, raw, _ := postSpec(t, ts.URL, string(body))
					if status != http.StatusOK {
						t.Fatalf("%s: status %d: %s", in, status, raw)
					}
					p, err := in.File.Build()
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.Solve(p)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cost != want.Cost {
						t.Errorf("%s: served cost %v, direct cost %v", in, got.Cost, want.Cost)
					}
					if got.Class != want.Class.String() {
						t.Errorf("%s: class %q, want %q", in, got.Class, want.Class)
					}
					if !slices.Equal(got.Path, want.Path) || got.Ordering != want.Ordering {
						t.Errorf("%s: path %v ordering %q, want %v %q",
							in, got.Path, got.Ordering, want.Path, want.Ordering)
					}
				}
			}
		})
	}
}

// A ragged node-valued spec (stages of different sizes) is valid and is
// served by the elimination sweep like a uniform one; it must not reach a
// path that needs Design 3's uniform stages and fail with a 500.
func TestServeRaggedNodeValued(t *testing.T) {
	s := New(Config{CacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, got, raw, _ := postSpec(t, ts.URL, `{"problem":"nodevalued","values":[[1,2,3],[4,5]]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	p := &multistage.NodeValued{Values: [][]float64{{1, 2, 3}, {4, 5}}, F: multistage.AbsDiff}
	want := p.SolvePath(semiring.MinPlus{})
	if got.Cost != want.Cost || !slices.Equal(got.Path, want.Nodes) {
		t.Errorf("served (%v, %v), want (%v, %v)", got.Cost, got.Path, want.Cost, want.Nodes)
	}
	if n := s.Metrics().Errors.Value(); n != 0 {
		t.Errorf("errors = %d, want 0", n)
	}
}

// Acceptance: concurrent identical requests produce ONE underlying solve
// (singleflight), later identical requests hit the LRU, and /metrics
// reflects both.
func TestServeSingleflightAndCache(t *testing.T) {
	s := New(Config{BatchWindow: 250 * time.Millisecond, BatchMax: 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := graphSpec(0)
	const n = 4
	var wg sync.WaitGroup
	costs := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, r, raw, _ := postSpec(t, ts.URL, body)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, raw)
				return
			}
			costs[i] = r.Cost
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if costs[i] != costs[0] {
			t.Errorf("cost %d = %v, want %v", i, costs[i], costs[0])
		}
	}
	// One underlying solve: the batcher saw exactly one instance.
	if got := s.Metrics().Batched.Value(); got != 1 {
		t.Errorf("underlying solves = %d, want 1 (singleflight)", got)
	}
	if got := s.Metrics().FlightShare.Value(); got != n-1 {
		t.Errorf("coalesced waiters = %d, want %d", got, n-1)
	}
	// Regression: only the flight leader solves, so only the leader may
	// count a cache miss — waiters used to inflate this to n.
	if got := s.Metrics().CacheMisses.Value(); got != 1 {
		t.Errorf("cache misses = %d, want 1 (leader only)", got)
	}
	if got := s.Metrics().FlightWait.Value(); got != n-1 {
		t.Errorf("flight waits = %d, want %d", got, n-1)
	}

	// A later identical request is a pure cache hit.
	status, _, _, cacheHdr := postSpec(t, ts.URL, body)
	if status != http.StatusOK || cacheHdr != "hit" {
		t.Errorf("repeat request: status %d cache %q, want 200 hit", status, cacheHdr)
	}
	if got := s.Metrics().CacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	mt := metricsText(t, ts.URL)
	for _, want := range []string{
		`dpserve_requests_total{problem="graph"} 5`,
		"dpserve_cache_hits_total 1",
		"dpserve_cache_misses_total 1",
		fmt.Sprintf("dpserve_singleflight_shared_total %d", n-1),
		fmt.Sprintf("dpserve_flight_wait_total %d", n-1),
		"dpserve_batched_requests_total 1",
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, mt)
		}
	}
}

// Acceptance: concurrent DISTINCT Design-1 graph requests of one shape are
// solved in a single StreamPipelined batch, and /metrics reflects it.
func TestServeMicroBatchesConcurrentGraphs(t *testing.T) {
	s := New(Config{BatchWindow: 250 * time.Millisecond, BatchMax: 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := graphSpec(i)
			status, r, raw, _ := postSpec(t, ts.URL, body)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, raw)
				return
			}
			p, _ := spec.Parse([]byte(body))
			want, _ := core.Solve(p)
			if math.Abs(r.Cost-want.Cost) > 1e-9 {
				t.Errorf("graph %d: served %v, want %v", i, r.Cost, want.Cost)
			}
		}(i)
	}
	wg.Wait()
	if got := s.Metrics().Batches.Value(); got != 1 {
		t.Errorf("stream flushes = %d, want 1 (micro-batch)", got)
	}
	if got := s.Metrics().Batched.Value(); got != n {
		t.Errorf("batched instances = %d, want %d", got, n)
	}
	mt := metricsText(t, ts.URL)
	for _, want := range []string{
		"dpserve_batches_total 1",
		fmt.Sprintf("dpserve_batched_requests_total %d", n),
		fmt.Sprintf(`dpserve_batch_occupancy_sum{kind="graph-stream"} %d`, n),
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, mt)
		}
	}
}

// A full admission queue answers 429 and counts the rejection.
func TestServeBackpressure429(t *testing.T) {
	const queue = 2
	s := New(Config{QueueSize: queue, BatchWindow: time.Second, BatchMax: 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the batcher's admission quota; the window keeps them pending.
	admitted := make(chan int, queue)
	for i := 0; i < queue; i++ {
		go func(i int) {
			status, _, _, _ := postSpec(t, ts.URL, graphSpec(i))
			admitted <- status
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	status, _, raw, _ := postSpec(t, ts.URL, graphSpec(99))
	if status != http.StatusTooManyRequests {
		t.Errorf("over-quota status = %d (%s), want 429", status, raw)
	}
	if got := s.Metrics().Rejected.Value(); got < 1 {
		t.Errorf("rejected counter = %d, want >= 1", got)
	}
	for i := 0; i < queue; i++ {
		if st := <-admitted; st != http.StatusOK {
			t.Errorf("admitted request got %d, want 200", st)
		}
	}
}

// An expired per-request budget answers 504 and counts the timeout.
func TestServeTimeout504(t *testing.T) {
	s := New(Config{Timeout: time.Nanosecond, BatchWindow: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, raw, _ := postSpec(t, ts.URL, `{"problem":"chain","dims":[5,6,7]}`)
	if status != http.StatusGatewayTimeout {
		t.Errorf("status = %d (%s), want 504", status, raw)
	}
	if got := s.Metrics().Timeouts.Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// Bad requests answer 400.
func TestServeBadSpec400(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"problem":"warp-drive"}`,
		`{"problem":"chain","dims":[5]}`,
		// Graph designs the arrays cannot run are the client's error.
		`{"problem":"graph","design":7,"costs":[[[1,2]],[[1],[3]]]}`,
		`{"problem":"graph","design":-1,"costs":[[[1,2]],[[1],[3]]]}`,
		`{"problem":"graph","design":1,"costs":[[[1,2]],[[1,2],[3,4]]]}`,
		`{"problem":"graph","design":2,"costs":[[[1,2]],[[1,2],[3,4]]]}`,
		`{"problem":"graph","design":1,"costs":[[[1],[2]],[[1]]]}`,
		`{"problem":"graph","design":2,"costs":[[[3]]]}`,
	} {
		status, _, _, _ := postSpec(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, status)
		}
	}
	if got := s.Metrics().Errors.Value(); got != 9 {
		t.Errorf("errors = %d, want 9", got)
	}
	// An unknown kind is refused at decode, before it is counted: a
	// client's made-up name never becomes a series.
	var exp strings.Builder
	s.Metrics().Write(&exp)
	if strings.Contains(exp.String(), "warp-drive") {
		t.Errorf("an unknown kind has a requests series:\n%s", exp.String())
	}
}

// Graceful shutdown flushes pending batches (waiters get answers, not
// errors) and flips /healthz and /solve to 503.
func TestServeGracefulShutdown(t *testing.T) {
	s := New(Config{BatchWindow: 10 * time.Second, BatchMax: 64}) // window never fires
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, _, _, _ := postSpec(t, ts.URL, graphSpec(i))
			done <- status
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // both pending in the batcher
	s.Close()
	for i := 0; i < 2; i++ {
		select {
		case st := <-done:
			if st != http.StatusOK {
				t.Errorf("drained request got %d, want 200", st)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("shutdown stranded an in-flight request")
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close = %d, want 503", resp.StatusCode)
	}
	status, _, _, _ := postSpec(t, ts.URL, graphSpec(9))
	if status != http.StatusServiceUnavailable {
		t.Errorf("solve after Close = %d, want 503", status)
	}
}

// A request whose context is done by the time it reaches a solve slot
// is dead work: its caller has given up, so solving it would only burn a
// slot under exactly the overload that made it expire. dispatch returns
// the context's error without solving (no rate is calibrated) and
// records no queue wait; a live request solves and records one.
func TestDispatchSkipsExpiredContext(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()
	p := &core.ChainOrderingProblem{Dims: []int{5, 6, 7}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := s.dispatch(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("expired dispatch err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Errorf("expired dispatch produced a solution: %+v", sol)
	}
	if rate := s.admit.Rate("chain"); rate != 0 {
		t.Errorf("expired dispatch solved: chain rate calibrated to %v", rate)
	}
	if got := s.metrics.QueueWaitSeconds.Count(); got != 0 {
		t.Errorf("queue-wait observations = %d, want 0 (dead work must not pollute stage latencies)", got)
	}

	if sol, err := s.dispatch(context.Background(), p); err != nil || sol == nil {
		t.Errorf("live dispatch: sol=%v err=%v", sol, err)
	}
	if got := s.metrics.QueueWaitSeconds.Count(); got != 1 {
		t.Errorf("queue-wait observations = %d, want 1", got)
	}
}

// ParseDeadline takes a positive count of milliseconds that fits a
// time.Duration and refuses anything else, so the caller's default holds.
func TestParseDeadline(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"1500", 1500 * time.Millisecond, true},
		{"9223372036854", 9223372036854 * time.Millisecond, true},
		{"9223372036855", 0, false},
		{"10000000000000", 0, false},
		{"0", 0, false},
		{"-5", 0, false},
		{"1.5", 0, false},
		{"", 0, false},
	} {
		if got, ok := ParseDeadline(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseDeadline(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// Healthz and method guards.
func TestServeHealthzAndMethods(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve = %d, want 405", resp.StatusCode)
	}
}
