package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/core"
)

// bigDTW is a 4000 × 4000 dtw spec, just under the work ceiling. Its
// solve takes tens of milliseconds, over a second under the race
// detector, so it runs long past a 10 ms deadline. salt shifts y.
func bigDTW(salt int) string {
	var b strings.Builder
	b.WriteString(`{"problem":"dtw","x":[`)
	for i := 0; i < 4000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, i%7)
	}
	b.WriteString(`],"y":[`)
	for i := 0; i < 4000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, (i+salt)%5)
	}
	b.WriteString(`]}`)
	return b.String()
}

// lateTimeout is the -timeout of the tests that queue a request behind
// bigDTW's solve: one second, or thirty under the race detector, which
// slows the kernel about thirtyfold.
func lateTimeout() time.Duration {
	if raceEnabled {
		return 30 * time.Second
	}
	return time.Second
}

// postWithDeadline posts body with an X-Deadline-Ms header of ms and
// returns the status.
func postWithDeadline(t *testing.T, url, body, ms string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(DeadlineHeader, ms)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// postLate posts bigDTW(0) with a 10 ms deadline and requires its 504:
// the request gives up while its solve runs on.
func postLate(t *testing.T, url string) {
	t.Helper()
	if code := postWithDeadline(t, url, bigDTW(0), "10"); code != http.StatusGatewayTimeout {
		t.Fatalf("late dtw: status %d, want 504", code)
	}
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// phaseOf returns the absolute start and end, in unix nanoseconds, of
// the named phase of the retained span of the given problem kind.
func phaseOf(t *testing.T, s *Server, kind, phase string) (start, end int64) {
	t.Helper()
	for _, w := range s.spans.WireSpans() {
		if w.Kind != kind {
			continue
		}
		for _, p := range w.Phases {
			if p.Name == phase {
				return w.StartNs + p.OffsetNs, w.StartNs + p.OffsetNs + p.DurNs
			}
		}
	}
	t.Fatalf("no %s phase on a %s span", phase, kind)
	return 0, 0
}

// A solve that outlives its request keeps its slot until the kernel
// returns: with one slot, a spec posted after the late request's 504
// starts solving only once that solve has ended, and its queue_wait
// covers the rest of it.
func TestLateSolveKeepsSlot(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: lateTimeout()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postLate(t, ts.URL)
	if code, _, raw, _ := postSpec(t, ts.URL, `{"problem":"chain","dims":[5,6,7]}`); code != http.StatusOK {
		t.Fatalf("queued chain: status %d (%s), want 200", code, raw)
	}
	_, dtwEnd := phaseOf(t, s, "dtw", "solve")
	waitStart, waitEnd := phaseOf(t, s, "chain", "queue_wait")
	solveStart, _ := phaseOf(t, s, "chain", "solve")
	if waitStart >= dtwEnd || waitEnd < dtwEnd || solveStart < dtwEnd {
		t.Errorf("chain waited %d–%d ns and solved from %d ns; want the dtw solve's end, %d ns, inside the wait",
			waitStart, waitEnd, solveStart, dtwEnd)
	}
}

// A retry of a spec whose request timed out joins the solve still
// running for it rather than solving it again, and once that flight
// has closed the spec is a cache hit.
func TestRetryJoinsLateSolve(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: lateTimeout()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postLate(t, ts.URL)
	// The retry returns after the flight has closed, its answer cached.
	if code, _, raw, cache := postSpec(t, ts.URL, bigDTW(0)); code != http.StatusOK || cache != "miss" {
		t.Fatalf("retry: status %d cache %q (%.80s), want 200 miss", code, cache, raw)
	}
	mt := metricsText(t, ts.URL)
	for _, want := range []string{"dpserve_cache_misses_total 1\n", "dpserve_flight_wait_total 1\n"} {
		if !strings.Contains(mt, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, _, _, cache := postSpec(t, ts.URL, bigDTW(0)); code != http.StatusOK || cache != "hit" {
		t.Errorf("after the flight: status %d cache %q, want 200 hit", code, cache)
	}
}

// Close drains a solve that outlived its request: it returns only once
// the kernel has, and the goroutines then settle to their baseline.
func TestCloseWaitsForLateSolve(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 1, Timeout: lateTimeout()})
	ts := httptest.NewServer(s.Handler())

	postLate(t, ts.URL)
	ts.Close()
	s.Close()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "dtw.Sequential") {
		t.Fatalf("a dtw kernel still runs after Close:\n%s", stacks)
	}
	if n, ok := goroutinesSettleTo(baseline, 5*time.Second); !ok {
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s", n, baseline, buf)
	}
}

// panicProblem's Classify panics, as a malformed problem might, so
// core.Solve panics on the goroutine holding the slot.
type panicProblem struct{}

func (panicProblem) Classify() core.Class    { panic("malformed problem state") }
func (panicProblem) Describe() string        { return "panic stub" }
func (panicProblem) Work() (string, float64) { return "panic", 1 }

// A solve that panics (flight.do recovers it on the serving path) frees
// its slot, its place among the waiters and its admission reservation.
func TestPanickingSolveFreesSlot(t *testing.T) {
	s := New(Config{Workers: 1, BatchWindow: -1})
	defer s.Close()
	s.admit.setRate("panic", 1) // the reservation holds one second
	s.slots <- struct{}{}       // the only slot is busy, so the solve waits

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.dispatch(context.Background(), panicProblem{})
	}()
	waitUntil(t, "the solve waits for a slot", func() bool { return s.waiting.Load() == 1 })
	if got := s.admit.BacklogSeconds(); got != 1 {
		t.Fatalf("backlog while waiting = %v s, want 1", got)
	}
	<-s.slots
	if r := <-panicked; r == nil {
		t.Fatal("dispatch of a panicking problem returned")
	}
	if n := len(s.slots); n != 0 {
		t.Errorf("%d slots held after the panic, want 0", n)
	}
	if n := s.waiting.Load(); n != 0 {
		t.Errorf("%d waiters after the panic, want 0", n)
	}
	if got := s.admit.BacklogSeconds(); got != 0 {
		t.Errorf("backlog after the panic = %v s, want 0", got)
	}
	if sol, err := s.dispatch(context.Background(), &core.ChainOrderingProblem{Dims: []int{5, 6, 7}}); err != nil || sol == nil {
		t.Errorf("dispatch after the panic: sol=%v err=%v", sol, err)
	}
}

// The general queue answers 429 when full: with the one slot held by a
// late solve and the one queue place taken, a third distinct spec is
// rejected and counted, and the waiter shows as queue depth 1.
func TestServeQueueFull429(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 1, Timeout: lateTimeout()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postLate(t, ts.URL)
	waited := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(`{"problem":"chain","dims":[5,6,7]}`))
		if err != nil {
			t.Error(err)
			waited <- 0
			return
		}
		resp.Body.Close()
		waited <- resp.StatusCode
	}()
	waitUntil(t, "the chain waits for the slot", func() bool { return s.waiting.Load() == 1 })
	if mt := metricsText(t, ts.URL); !strings.Contains(mt, "dpserve_queue_depth 1\n") {
		t.Errorf("/metrics queue depth is not 1 while one request waits")
	}
	if st := getStatusz(t, ts.URL); st.QueueDepth != 1 || st.QueueCap != 1 {
		t.Errorf("statusz queue_depth/queue_cap = %d/%d, want 1/1", st.QueueDepth, st.QueueCap)
	}
	if code, _, raw, _ := postSpec(t, ts.URL, `{"problem":"chain","dims":[5,6,8]}`); code != http.StatusTooManyRequests {
		t.Errorf("third spec: status %d (%s), want 429", code, raw)
	}
	if got := s.Metrics().Rejected.Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if code := <-waited; code != http.StatusOK {
		t.Errorf("waiting chain: status %d, want 200", code)
	}
}

// A non-batched dispatch allocates at most what core.Solve does plus
// one, its admission reservation: the slot, the stage accounting and the
// calibration allocate nothing.
func TestDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("chain's workspaces come from a sync.Pool")
	}
	s := New(Config{BatchWindow: -1})
	defer s.Close()
	p := &core.ChainOrderingProblem{Dims: []int{30, 35, 15, 5, 10, 20, 25}}
	ctx := context.Background()
	solve := testing.AllocsPerRun(200, func() { core.Solve(p) })
	dispatch := testing.AllocsPerRun(200, func() { s.dispatch(ctx, p) })
	t.Logf("allocations: %v per dispatch, %v per core.Solve", dispatch, solve)
	if dispatch > solve+1 {
		t.Errorf("dispatch allocated %v times, core.Solve %v; want at most one more", dispatch, solve)
	}
}
