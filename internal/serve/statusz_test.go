package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/spec"
)

func getStatusz(t *testing.T, url string) Statusz {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status %d", resp.StatusCode)
	}
	var st Statusz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	return st
}

// /statusz must expose the operator's view: worker count, queue
// bounds, admission state with calibrated rates, and cache counters that
// move with traffic.
func TestStatuszSchema(t *testing.T) {
	s := New(Config{Workers: 3, QueueSize: 17, CacheSize: 64, AdmitEnabled: true, AdmitHeadroom: 1.5})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := getStatusz(t, ts.URL)
	if st.Draining {
		t.Error("fresh server reports draining")
	}
	if st.Workers != 3 || st.QueueCap != 17 {
		t.Errorf("workers/queue_cap = %d/%d, want 3/17", st.Workers, st.QueueCap)
	}
	if !st.Admit.Enabled || st.Admit.Headroom != 1.5 {
		t.Errorf("admit state %+v", st.Admit)
	}
	if st.Cache.Capacity != 64 {
		t.Errorf("cache capacity %d, want 64", st.Cache.Capacity)
	}

	// One solved request calibrates a rate and fills the cache; a repeat
	// hits it. Both must be visible in the next snapshot.
	body := `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`
	if code, _, _, _ := postSpec(t, ts.URL, body); code != http.StatusOK {
		t.Fatalf("solve status %d", code)
	}
	if code, _, _, hdr := postSpec(t, ts.URL, body); code != http.StatusOK || hdr != "hit" {
		t.Fatalf("repeat solve status %d cache %q", code, hdr)
	}
	st = getStatusz(t, ts.URL)
	if st.Cache.Len != 1 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache counters %+v, want len=1 hits=1 misses=1", st.Cache)
	}
	if st.Admit.Rates["chain"] <= 0 {
		t.Errorf("chain rate uncalibrated after a solve: %v", st.Admit.Rates)
	}
}

// Statusz keeps answering (200, draining=true) after drain begins — an
// operator tells a draining replica from a dead one by body, not by
// status code.
func TestStatuszDuringDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.BeginDrain()
	if st := getStatusz(t, ts.URL); !st.Draining {
		t.Error("statusz does not report draining after BeginDrain")
	}
}

// Regression test: /healthz must flip to 503 the moment drain begins,
// not when the process dies. Before BeginDrain existed, the shutdown
// sequence had no way to signal drain ahead of teardown, so a load
// balancer's probe saw 200 right up until connections started failing.
func TestHealthzFlipsOnBeginDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", code)
	}
	s.BeginDrain()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after BeginDrain = %d, want 503", code)
	}
	if !s.Draining() {
		t.Error("Draining() false after BeginDrain")
	}
	// New solves are refused while draining...
	if code, _, _, _ := postSpec(t, ts.URL, `{"problem":"chain","dims":[3,4,5]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain = %d, want 503", code)
	}
	// ...and a later Close still tears down cleanly (idempotent latch).
	s.Close()
	s.Close()
}

// A request arriving with X-Deadline-Ms is priced against that deadline,
// not the server's -timeout. Regression test for deadline loss across a
// proxy hop: before the header existed, a replica admitted (and solved)
// work whose edge deadline had already expired.
func TestDeadlineHeaderHonoredByAdmission(t *testing.T) {
	s := New(Config{Workers: 1, AdmitEnabled: true, AdmitHeadroom: 1, Timeout: 30 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pin the chain rate so the model predicts ~1s of work: shed against
	// a 50 ms edge deadline, admitted against the 30 s default.
	const body = `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`
	p, err := spec.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	_, cycles := EstimateCost(p)
	s.admit.setRate("chain", cycles) // 1 second predicted

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve", strings.NewReader(body))
	req.Header.Set(DeadlineHeader, "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tight proxied deadline: status %d, want 429 (admission shed)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	// The same spec without the header has the full -timeout to spend.
	if code, _, _, _ := postSpec(t, ts.URL, `{"problem":"chain","dims":[30,35,15,5,10,20,25]}`); code != http.StatusOK {
		t.Fatalf("unproxied request: status %d, want 200", code)
	}
	// So has one whose header is too large for a time.Duration: it is
	// ignored like a malformed one, not wrapped to a negative deadline.
	if code := postWithDeadline(t, ts.URL, `{"problem":"chain","dims":[30,35,15,5,10,20,26]}`, "10000000000000"); code != http.StatusOK {
		t.Fatalf("overflowing deadline header: status %d, want 200", code)
	}
}
