package route

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/obs"
	"systolicdp/internal/serve"
)

// The router must mint a trace at the edge and send X-Dp-Trace (trace id
// + its hop's span id) and X-Request-ID downstream; its own hop span,
// retained at /debug/dptrace, must carry the same ids.
func TestRouterTracePropagation(t *testing.T) {
	a := newFakeReplica()
	defer a.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, body := postBody(t, ts.URL, chainBody(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hdrs, _ := a.lastHdrs.Load().(http.Header)
	if hdrs == nil {
		t.Fatal("replica saw no request")
	}
	tc, ok := obs.ParseTraceContext(hdrs.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("replica got unparseable %s header %q", obs.TraceHeader, hdrs.Get(obs.TraceHeader))
	}
	reqID := hdrs.Get("X-Request-ID")
	if reqID == "" {
		t.Error("router did not propagate X-Request-ID downstream")
	}
	if resp.Header.Get("X-Request-ID") != reqID {
		t.Errorf("client saw request id %q, replica %q", resp.Header.Get("X-Request-ID"), reqID)
	}

	// The hop span at /debug/dptrace?format=wire carries the same trace
	// and exposes its span id as the replica's parent.
	wireResp, err := http.Get(ts.URL + "/debug/dptrace?format=wire")
	if err != nil {
		t.Fatal(err)
	}
	defer wireResp.Body.Close()
	var spans []obs.WireSpan
	if err := json.NewDecoder(wireResp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("router retained %d hop spans, want 1", len(spans))
	}
	hop := spans[0]
	if hop.Service != "dprouter" || hop.TraceID != tc.TraceID || hop.SpanID != tc.SpanID {
		t.Errorf("hop span %+v does not match propagated context %+v", hop, tc)
	}
	if hop.ID != reqID || hop.Status != http.StatusOK || hop.Replica != a.base() {
		t.Errorf("hop span %+v: want id %s, status 200, replica %s", hop, reqID, a.base())
	}
	var phases []string
	for _, p := range hop.Phases {
		phases = append(phases, p.Name)
	}
	if got := strings.Join(phases, ","); got != "decode_hash,candidate_pick,proxy" {
		t.Errorf("hop phases %q, want decode_hash,candidate_pick,proxy", got)
	}

	// A client that already traces stays the root: its trace id is kept.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve", strings.NewReader(chainBody(1)))
	req.Header.Set(obs.TraceHeader, "feedc0de-1234abcd")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	hdrs, _ = a.lastHdrs.Load().(http.Header)
	tc2, ok := obs.ParseTraceContext(hdrs.Get(obs.TraceHeader))
	if !ok || tc2.TraceID != "feedc0de" {
		t.Errorf("client trace id not kept: downstream context %+v", tc2)
	}
	if tc2.SpanID == "1234abcd" {
		t.Error("router forwarded the client's span id instead of its own hop's")
	}
}

// Every error response from the router must carry X-Request-ID: a 503
// minted at the edge has to be as traceable in client logs as a replica
// answer, and a replica's 429 must pass through with its Retry-After.
// One subtest per router status path.
func TestRouterRequestIDOnEveryStatusPath(t *testing.T) {
	post := func(t *testing.T, url, body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/solve", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	check := func(t *testing.T, resp *http.Response, wantStatus int) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Errorf("%d response missing X-Request-ID", wantStatus)
		}
	}

	t.Run("400 bad spec", func(t *testing.T) {
		a := newFakeReplica()
		defer a.ts.Close()
		rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		check(t, post(t, ts.URL, "{not json", nil), http.StatusBadRequest)
	})

	t.Run("429 replica shed", func(t *testing.T) {
		a := newFakeReplica()
		defer a.ts.Close()
		a.shed.Store(3)
		rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		resp := post(t, ts.URL, chainBody(0), nil)
		check(t, resp, http.StatusTooManyRequests)
		if ra := resp.Header.Get("Retry-After"); ra != "3" {
			t.Errorf("Retry-After %q, want the replica's 3", ra)
		}
		hdrs, _ := a.lastHdrs.Load().(http.Header)
		if hdrs == nil {
			t.Fatal("replica never received the request")
		}
		if id := hdrs.Get("X-Request-ID"); id != resp.Header.Get("X-Request-ID") {
			t.Errorf("client saw request id %q, replica %q", resp.Header.Get("X-Request-ID"), id)
		}
	})

	t.Run("502 all replicas failed", func(t *testing.T) {
		a := newFakeReplica()
		deadBase := a.base()
		a.ts.Close() // nominally healthy but unreachable
		rt := newTestRouter(t, Config{
			Replicas:       []string{deadBase},
			HealthInterval: time.Hour,
		})
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		check(t, post(t, ts.URL, chainBody(0), nil), http.StatusBadGateway)
	})

	t.Run("503 no healthy replica", func(t *testing.T) {
		a := newFakeReplica()
		defer a.ts.Close()
		a.unwell.Store(true)
		rt := newTestRouter(t, Config{
			Replicas:       []string{a.base()},
			HealthInterval: 10 * time.Millisecond,
			EjectAfter:     1,
		})
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		waitFor(t, time.Second, func() bool {
			rep := rt.Statusz()
			return len(rep) == 1 && !rep[0].Healthy
		})
		check(t, post(t, ts.URL, chainBody(0), nil), http.StatusServiceUnavailable)
	})

	t.Run("503 router draining", func(t *testing.T) {
		a := newFakeReplica()
		defer a.ts.Close()
		rt := newTestRouter(t, Config{Replicas: []string{a.base()}})
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		rt.BeginDrain()
		check(t, post(t, ts.URL, chainBody(0), nil), http.StatusServiceUnavailable)
	})

	t.Run("504 deadline before any answer", func(t *testing.T) {
		a := newFakeReplica()
		defer a.ts.Close()
		a.stall.Store(2000)
		rt := newTestRouter(t, Config{
			Replicas:       []string{a.base()},
			HealthInterval: time.Hour,
			Deadline:       20 * time.Millisecond,
		})
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		check(t, post(t, ts.URL, chainBody(0), nil), http.StatusGatewayTimeout)
	})
}

// End-to-end stitching: two real dpserve replicas behind the router, a
// few solves, then /debug/fleettrace must contain at least one trace id
// whose spans sit on two different process tracks (router + replica).
func TestRouterFleetTraceStitching(t *testing.T) {
	s1, s2 := serve.New(serve.Config{}), serve.New(serve.Config{})
	defer s1.Close()
	defer s2.Close()
	r1, r2 := httptest.NewServer(s1.Handler()), httptest.NewServer(s2.Handler())
	defer r1.Close()
	defer r2.Close()
	rt := newTestRouter(t, Config{Replicas: []string{r1.URL, r2.URL}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		resp, body := postBody(t, ts.URL, chainBody(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/fleettrace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	pidsByTrace := map[string]map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			tracks[e.Args["name"].(string)] = true
		}
		if e.Ph != "X" {
			continue
		}
		id, _ := e.Args["trace_id"].(string)
		if id == "" {
			continue
		}
		if pidsByTrace[id] == nil {
			pidsByTrace[id] = map[int]bool{}
		}
		pidsByTrace[id][e.Pid] = true
	}
	if !tracks["router"] || (!tracks[r1.URL] && !tracks[r2.URL]) {
		t.Fatalf("fleet trace tracks %v: want router plus at least one replica", tracks)
	}
	stitched := 0
	for _, pids := range pidsByTrace {
		if len(pids) >= 2 {
			stitched++
		}
	}
	if stitched < 4 {
		t.Errorf("only %d of 4 traces span two tracks; otherData=%v", stitched, doc.OtherData)
	}
}
