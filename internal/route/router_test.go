package route

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

// fakeReplica is a scriptable upstream: counts solves, can fail health
// probes, stall solves, or shed them.
type fakeReplica struct {
	ts       *httptest.Server
	solves   atomic.Int64
	unwell   atomic.Bool  // healthz answers 503
	stall    atomic.Int64 // per-solve delay in ms
	shed     atomic.Int64 // > 0: /solve answers 429 with this Retry-After in seconds
	lastHdrs atomic.Value // http.Header of the last /solve request
}

func newFakeReplica() *fakeReplica {
	f := &fakeReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		f.lastHdrs.Store(r.Header.Clone())
		if ra := f.shed.Load(); ra > 0 {
			w.Header().Set("Retry-After", strconv.FormatInt(ra, 10))
			w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
			http.Error(w, "serve: admission shed", http.StatusTooManyRequests)
			return
		}
		if d := f.stall.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		f.solves.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Dpserve-Cache", "miss")
		fmt.Fprintf(w, `{"problem":"fake","cost":1}`)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.unwell.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	f.ts = httptest.NewServer(mux)
	return f
}

func (f *fakeReplica) base() string { return f.ts.URL }

func chainBody(salt int) string {
	return fmt.Sprintf(`{"problem":"chain","dims":[30,35,15,5,10,20,%d]}`, 25+salt)
}

func postBody(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, string(raw)
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// Identical bodies must always land on the same replica (shard-local
// cache affinity), placed from memory after the first, and distinct keys
// must spread across the fleet.
func TestRouterHashAffinity(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base(), b.base()}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// The same body 10 times: exactly one replica sees all 10.
	for i := 0; i < 10; i++ {
		resp, body := postBody(t, ts.URL, chainBody(0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("X-Dpserve-Cache") == "" {
			t.Error("cache disposition header not passed through")
		}
	}
	na, nb := a.solves.Load(), b.solves.Load()
	if na+nb != 10 || (na != 0 && nb != 0) {
		t.Fatalf("affinity broken: replica solves %d / %d, want 10 / 0", na, nb)
	}
	if got := rt.Metrics().Decodes.Value(); got != 1 {
		t.Errorf("the same body sent 10 times was decoded %d times, want 1", got)
	}

	// Many distinct bodies: both replicas see traffic.
	for i := 1; i <= 40; i++ {
		postBody(t, ts.URL, chainBody(i))
	}
	if a.solves.Load() == na || b.solves.Load() == nb {
		t.Fatalf("distribution broken: solves %d / %d after 40 distinct keys", a.solves.Load(), b.solves.Load())
	}
}

// A malformed spec dies at the edge with 400 — no replica sees it —
// every time it is sent: a body that failed is not remembered.
func TestRouterRejectsBadSpecAtEdge(t *testing.T) {
	a := newFakeReplica()
	defer a.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Malformed JSON, a spec Validate rejects (non-finite weight) and an
	// unknown problem kind: all die at decode, before any replica is
	// chosen.
	bodies := []string{`{not json`, `{"problem":"dtw","x":[1,2],"y":[3,"NaN"]}`, `{"problem":"warp-drive"}`}
	for send := 0; send < 2; send++ {
		for i, body := range bodies {
			resp, _ := postBody(t, ts.URL, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad spec %d, send %d: status %d, want 400", i, send, resp.StatusCode)
			}
		}
	}
	if a.solves.Load() != 0 {
		t.Error("bad spec was forwarded to a replica")
	}
	want := int64(2 * len(bodies))
	if got := rt.Metrics().BadSpec.Value(); got != want {
		t.Errorf("bad_spec counter %d, want %d", got, want)
	}
	if got := rt.Metrics().Decodes.Value(); got != want {
		t.Errorf("decodes counter %d, want %d", got, want)
	}
}

// The router must propagate the remaining deadline to the replica via
// X-Deadline-Ms: configured default when the client sends nothing, the
// client's own header when present.
func TestRouterDeadlinePropagation(t *testing.T) {
	a := newFakeReplica()
	defer a.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}, Deadline: 10 * time.Second})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	postBody(t, ts.URL, chainBody(0))
	hdrs := a.lastHdrs.Load().(http.Header)
	ms, err := time.ParseDuration(hdrs.Get(serve.DeadlineHeader) + "ms")
	if err != nil || ms <= 0 || ms > 10*time.Second {
		t.Fatalf("forwarded deadline %q, want (0s, 10s]", hdrs.Get(serve.DeadlineHeader))
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve", strings.NewReader(chainBody(1)))
	req.Header.Set(serve.DeadlineHeader, "1500")
	req.Header.Set("X-Request-ID", "edge-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	hdrs = a.lastHdrs.Load().(http.Header)
	ms, err = time.ParseDuration(hdrs.Get(serve.DeadlineHeader) + "ms")
	if err != nil || ms <= 0 || ms > 1500*time.Millisecond {
		t.Fatalf("client deadline not propagated: forwarded %q, want (0, 1500]ms", hdrs.Get(serve.DeadlineHeader))
	}
	if hdrs.Get("X-Request-ID") != "edge-42" {
		t.Errorf("request ID not propagated: %q", hdrs.Get("X-Request-ID"))
	}

	// A header too large for a time.Duration is ignored like a malformed
	// one, so the router's own deadline applies.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/solve", strings.NewReader(chainBody(2)))
	req.Header.Set(serve.DeadlineHeader, "10000000000000")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overflowing deadline header: status %d, want 200", resp.StatusCode)
	}
	hdrs = a.lastHdrs.Load().(http.Header)
	ms, err = time.ParseDuration(hdrs.Get(serve.DeadlineHeader) + "ms")
	if err != nil || ms <= 0 || ms > 10*time.Second {
		t.Fatalf("overflowing deadline: forwarded %q, want (0s, 10s]", hdrs.Get(serve.DeadlineHeader))
	}
}

// Ejection and readmission follow the hysteresis thresholds: traffic
// fails over to the ring successor while the owner is ejected, and
// returns (cache affinity restored) once it is readmitted.
func TestRouterEjectionReadmissionHysteresis(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	rt := newTestRouter(t, Config{
		Replicas:       []string{a.base(), b.base()},
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     3,
		ReadmitAfter:   2,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Find a body owned by replica a.
	owned := ""
	for i := 0; i < 200; i++ {
		body := chainBody(i)
		before := a.solves.Load()
		postBody(t, ts.URL, body)
		if a.solves.Load() > before {
			owned = body
			break
		}
	}
	if owned == "" {
		t.Fatal("no key maps to replica a")
	}

	a.unwell.Store(true)
	waitFor(t, time.Second, func() bool { return rt.Metrics().Ejections.Value() >= 1 })

	// While ejected, the owned key fails over to b.
	nb := b.solves.Load()
	resp, body := postBody(t, ts.URL, owned)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d: %s", resp.StatusCode, body)
	}
	if b.solves.Load() != nb+1 {
		t.Fatalf("failover did not reach ring successor (b solves %d, want %d)", b.solves.Load(), nb+1)
	}

	a.unwell.Store(false)
	waitFor(t, time.Second, func() bool { return rt.Metrics().Readmits.Value() >= 1 })

	na := a.solves.Load()
	postBody(t, ts.URL, owned)
	if a.solves.Load() != na+1 {
		t.Fatal("traffic did not return to readmitted owner")
	}
}

// A single failed probe must NOT eject (hysteresis), and a single good
// probe must not readmit.
func TestRouterHysteresisCounters(t *testing.T) {
	a := newFakeReplica()
	defer a.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}, EjectAfter: 3, ReadmitAfter: 2,
		HealthInterval: time.Hour}) // probes driven by hand
	rep := rt.members[normalizeBases([]string{a.base()})[0]]

	rt.observeProbe(rep, false)
	rt.observeProbe(rep, false)
	if !rep.healthy.Load() {
		t.Fatal("ejected after 2 failures with EjectAfter=3")
	}
	rt.observeProbe(rep, false)
	if rep.healthy.Load() {
		t.Fatal("not ejected after 3 consecutive failures")
	}
	rt.observeProbe(rep, true)
	if rep.healthy.Load() {
		t.Fatal("readmitted after 1 success with ReadmitAfter=2")
	}
	// An interleaved failure resets the readmission streak.
	rt.observeProbe(rep, false)
	rt.observeProbe(rep, true)
	if rep.healthy.Load() {
		t.Fatal("readmission streak survived an interleaved failure")
	}
	rt.observeProbe(rep, true)
	if !rep.healthy.Load() {
		t.Fatal("not readmitted after 2 consecutive successes")
	}
}

// The work ceiling is enforced once, at the replica: the router decodes
// but does not build, so an over-ceiling spec passes through it and the
// replica's 400 reaches the client. dprouter_bad_spec_total counts only
// bodies the router cannot decode.
func TestRouterPassesWorkCeilingThrough(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	rt := newTestRouter(t, Config{Replicas: []string{replica.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// 16 node-valued stages of 4096 values: 131 KB, under every payload
	// cap, but 15·4096² transitions, far past the ceiling.
	stage := "[" + strings.TrimSuffix(strings.Repeat("1,", 4096), ",") + "]"
	body := `{"problem":"nodevalued","cost":"absdiff","values":[` +
		strings.TrimSuffix(strings.Repeat(stage+",", 16), ",") + `]}`
	for _, url := range []string{replica.URL, ts.URL} {
		resp, msg := postBody(t, url, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "work units") {
			t.Fatalf("%s: status %d %q, want 400 naming the work units", url, resp.StatusCode, msg)
		}
	}
	if got := rt.Metrics().BadSpec.Value(); got != 0 {
		t.Errorf("bad_spec counter %d, want 0: the replica rejected the spec", got)
	}
}

// A replica draining through the real dpserve drain path leaves the
// ring: its /healthz answers 503, the router ejects it within EjectAfter
// probes, and a key it owned is answered by the ring successor.
func TestRouterEjectsDrainingReplica(t *testing.T) {
	var servers [2]*serve.Server
	var bases [2]string
	for i := range servers {
		servers[i] = serve.New(serve.Config{})
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(servers[i].Close)
		bases[i] = ts.URL
	}
	rt := newTestRouter(t, Config{
		Replicas:       bases[:],
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     3,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Find a key replica 0 owns: the first candidate for its hash.
	owned := ""
	for i := 0; i < 200 && owned == ""; i++ {
		f, err := spec.Decode([]byte(chainBody(i)))
		if err != nil {
			t.Fatal(err)
		}
		key, err := f.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if rt.candidates(nil, hash64(key))[0].base == bases[0] {
			owned = chainBody(i)
		}
	}
	if owned == "" {
		t.Fatal("no key maps to replica 0")
	}

	servers[0].BeginDrain()
	healthy := func() bool {
		for _, rs := range rt.Statusz() {
			if rs.Base == bases[0] {
				return rs.Healthy
			}
		}
		t.Fatal("draining replica left the fleet view")
		return false
	}
	// EjectAfter probes at 10ms apart; the bound leaves room for a slow
	// race-detector run.
	waitFor(t, 2*time.Second, func() bool { return !healthy() })

	before := servers[1].Metrics().Requests("chain")
	resp, body := postBody(t, ts.URL, owned)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owned key after drain: status %d: %s", resp.StatusCode, body)
	}
	if got := servers[1].Metrics().Requests("chain"); got != before+1 {
		t.Errorf("surviving replica served %d requests for the owned key, want 1", got-before)
	}
	if got := rt.Metrics().Ejections.Value(); got != 1 {
		t.Errorf("ejections %d, want 1", got)
	}
}

// Transport-level failures fail over to the next ring successor within
// the same request; with every candidate down the client gets 502.
func TestRouterTransportFailover(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer b.ts.Close()
	deadBase := a.base()
	a.ts.Close() // a is in membership and nominally healthy, but unreachable

	rt := newTestRouter(t, Config{
		Replicas:       []string{deadBase, b.base()},
		Replication:    2,
		HealthInterval: time.Hour, // prober never runs: forwards must cope alone
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 20; i++ {
		resp, body := postBody(t, ts.URL, chainBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover status %d: %s", resp.StatusCode, body)
		}
	}
	if b.solves.Load() != 20 {
		t.Fatalf("live replica solved %d of 20", b.solves.Load())
	}

	b.ts.Close()
	resp, _ := postBody(t, ts.URL, chainBody(999))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead status %d, want 502", resp.StatusCode)
	}
	if rt.Metrics().ProxyErrors.Value() != 1 {
		t.Errorf("proxy_errors %d, want 1", rt.Metrics().ProxyErrors.Value())
	}
}

// Membership change drains gracefully: a request in flight against a
// replica removed from the ring finishes on that replica, and the router
// forgets the replica only after its in-flight count reaches zero.
func TestRouterMembershipDrain(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()
	rt := newTestRouter(t, Config{
		Replicas:       []string{a.base(), b.base()},
		HealthInterval: 10 * time.Millisecond,
	})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Find a key owned by a, then stall a's solves so we can hold one in
	// flight across the membership change.
	owned := ""
	for i := 0; i < 200; i++ {
		body := chainBody(i)
		before := a.solves.Load()
		postBody(t, ts.URL, body)
		if a.solves.Load() > before {
			owned = body
			break
		}
	}
	if owned == "" {
		t.Fatal("no key maps to replica a")
	}
	a.stall.Store(300)

	type result struct {
		status int
		ra     int64 // a's solve count when the response landed
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(owned))
		if err != nil {
			done <- result{0, 0}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, a.solves.Load()}
	}()

	// Remove a while the request is in flight on it.
	waitFor(t, time.Second, func() bool {
		for _, rs := range rt.Statusz() {
			if rs.Base == normalizeBases([]string{a.base()})[0] && rs.Inflight > 0 {
				return true
			}
		}
		return false
	})
	solvedBefore := a.solves.Load()
	if err := rt.SetReplicas([]string{b.base()}); err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during membership change: status %d", r.status)
	}
	if r.ra != solvedBefore+1 {
		t.Fatal("in-flight request did not finish on its old shard")
	}

	// After the drain, a disappears from the fleet view; new traffic for
	// the old key goes to b.
	waitFor(t, time.Second, func() bool { return len(rt.Statusz()) == 1 })
	a.stall.Store(0)
	nb := b.solves.Load()
	postBody(t, ts.URL, owned)
	if b.solves.Load() != nb+1 {
		t.Fatal("re-sharded key did not move to the surviving replica")
	}
}

// The membership file is polled and applied on modification.
func TestRouterReplicasFileReload(t *testing.T) {
	a, b := newFakeReplica(), newFakeReplica()
	defer a.ts.Close()
	defer b.ts.Close()

	path := filepath.Join(t.TempDir(), "replicas")
	if err := os.WriteFile(path, []byte("# fleet\n"+a.base()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rt := newTestRouter(t, Config{
		ReplicasFile:   path,
		ReloadInterval: 10 * time.Millisecond,
		HealthInterval: 10 * time.Millisecond,
	})
	if got := rt.ring.Len(); got != 1 {
		t.Fatalf("initial membership %d, want 1", got)
	}

	// Grow the fleet; mtime granularity can be coarse, so force it.
	if err := os.WriteFile(path, []byte(a.base()+","+b.base()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Second)
	os.Chtimes(path, future, future)
	waitFor(t, 2*time.Second, func() bool {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		return rt.ring.Len() == 2
	})
}

// Router drain: healthz flips to 503 and new solves are refused, while
// Close remains idempotent.
func TestRouterDrain(t *testing.T) {
	a := newFakeReplica()
	defer a.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
	rt.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain %d, want 503", resp.StatusCode)
	}
	r2, _ := postBody(t, ts.URL, chainBody(0))
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain %d, want 503", r2.StatusCode)
	}
	rt.Close()
	rt.Close()
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
