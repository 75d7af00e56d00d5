package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"systolicdp/internal/spec"
)

// A sealed response's body is what a json.Encoder with a two-space
// indent wrote for the response before responses were sealed, trailing
// newline and HTML escaping included.
func TestSealMatchesIndentedEncoder(t *testing.T) {
	for _, r := range []Response{
		{Problem: "multistage graph (4 stages), Design 1", Class: "monadic-serial", Method: "m", Hardware: "h", Cost: 12},
		{Problem: "p", Class: "c", Method: "a<b & c>d", Hardware: "h", Cost: -0.125, Path: []int{0, 3, 1}},
		{Problem: "p", Cost: math.Copysign(0, -1), Ordering: "((A1 A2) A3)"},
		{Cost: 1e21, Path: []int{}},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
		if err := r.seal("graph"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.body, want.Bytes()) {
			t.Errorf("sealed %q, encoder wrote %q", r.body, want.Bytes())
		}
	}
	if err := (&Response{Cost: math.Inf(1)}).seal("dtw"); err == nil {
		t.Error("a non-finite cost sealed")
	}
}

// A finite spec whose cost overflows to ±Inf has no JSON answer: the
// request fails with a 500 naming the value, and nothing is cached, so a
// repeat fails the same way instead of answering an empty 200.
func TestNonFiniteCostIsAnError(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"problem":"dtw","x":[1e308,1e308],"y":[-1e308,-1e308]}`
	for i := 0; i < 2; i++ {
		status, _, raw, cache := postSpec(t, ts.URL, body)
		if status != http.StatusInternalServerError || !strings.Contains(raw, "unsupported value: +Inf") || cache != "" {
			t.Errorf("request %d: status %d cache %q body %q, want a 500 naming +Inf", i, status, cache, raw)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("%d responses cached", n)
	}
	if n := s.Metrics().Errors.Value(); n != 2 {
		t.Errorf("errors counted %d, want 2", n)
	}
}

// canonicalBody returns a spec body's canonical encoding,
// json.Marshal(Canonical()), and its cache key.
func canonicalBody(t *testing.T, body string) ([]byte, string) {
	t.Helper()
	f, err := spec.Decode([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	key, err := f.Hash()
	if err != nil {
		t.Fatal(err)
	}
	c := f.Canonical()
	canon, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return canon, key
}

// The body probe finds an entry under the SHA-256 of the entry's
// canonical encoding, and allocates nothing on a hit or a miss.
func TestGetBodyAllocs(t *testing.T) {
	canon, key := canonicalBody(t, graphSpec(0))
	c := NewLRU(4)
	want := &Response{Cost: 7}
	c.Put(key, want)
	if got, ok := c.getBody(canon); !ok || got != want {
		t.Fatalf("probe of the canonical body = %v, %v; want the entry", got, ok)
	}
	other := []byte(graphSpec(0))
	if _, ok := c.getBody(other); ok {
		t.Fatal("a non-canonical body hit")
	}
	if n := testing.AllocsPerRun(100, func() { c.getBody(canon) }); n != 0 {
		t.Errorf("probe hit allocated %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.getBody(other) }); n != 0 {
		t.Errorf("probe miss allocated %v times", n)
	}
	if _, ok := NewLRU(-1).getBody(canon); ok {
		t.Error("a disabled cache hit")
	}
}

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// handlerAllocs reports the allocations of one /solve request for body
// through h, answered into a fresh recorder, with the body declared at
// its length as a client or the router sends it.
func handlerAllocs(h http.Handler, body []byte) float64 {
	var rd bodyReader
	req := httptest.NewRequest(http.MethodPost, "/solve", &rd)
	req.Header.Set("X-Request-ID", "allocs")
	return testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		req.ContentLength = int64(len(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
}

// idReadAllocs is what the crypto/rand.Read of minting one id costs its
// caller on the running release: none on Go 1.24, one on a release whose
// Read lets its argument escape.
func idReadAllocs() float64 {
	return testing.AllocsPerRun(100, func() {
		var b [16]byte
		rand.Read(b[:])
	})
}

// A replica answers a cached canonical graph body in a fixed, small
// number of allocations of its own, fewer than a decode-path hit on the
// same problem: the body is read into a pooled buffer and is neither
// decoded nor hashed. Each count is taken beyond a baseline measured on
// the running release: the recorder around a handler that writes the
// same headers and bytes, and crypto/rand.Read's cost for each of the
// two ids a request mints. On Go 1.24 a byte hit's own allocations are
// the span, its two ids and the request id's header value, 4 (12 before
// bodies were pooled, headers shared and the log guarded); a
// decode-path hit adds the decoded spec, its cache key and the span's
// context, 11 (19). Each bound adds a slack of 2 for other releases.
func TestByteHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the decode path's Hash draws its encoder from a sync.Pool")
	}
	s := New(Config{})
	defer s.Close()
	other := []byte(graphSpec(0))
	canon, _ := canonicalBody(t, graphSpec(0))
	if bytes.Equal(canon, other) {
		t.Fatal("graphSpec is already canonical")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(canon)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Dpserve-Cache") != "miss" {
		t.Fatalf("warm-up: status %d, cache %q", rec.Code, rec.Header().Get("X-Dpserve-Cache"))
	}
	answer := rec.Body.Bytes()
	requestID := []string{"allocs"}
	fixed := handlerAllocs(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := w.Header()
		h["X-Request-Id"], h["Content-Type"], h["X-Dpserve-Cache"] = requestID, ContentTypeJSON, cacheHit
		w.Write(answer)
	}), canon)
	base := fixed + 2*idReadAllocs()

	hits := s.Metrics().CacheHits.Value()
	byteHit := handlerAllocs(s.Handler(), canon) - base
	decodeHit := handlerAllocs(s.Handler(), other) - base
	if got := s.Metrics().CacheHits.Value() - hits; got != 402 {
		t.Fatalf("%d cache hits, want 402", got)
	}
	t.Logf("allocations per hit beyond the baseline's %v: %v from the bytes, %v through decode", base, byteHit, decodeHit)
	if byteHit > 4+2 {
		t.Errorf("a byte hit allocated %v times of its own, want at most 6", byteHit)
	}
	if decodeHit > 11+2 {
		t.Errorf("a decode-path hit allocated %v times of its own, want at most 13", decodeHit)
	}
	if byteHit >= decodeHit {
		t.Errorf("a byte hit allocated %v times, a decode-path hit %v", byteHit, decodeHit)
	}
}

// A zero Config's logger drops records before formatting them.
func TestZeroConfigLoggerDisabled(t *testing.T) {
	if (Config{}).withDefaults().Logger.Enabled(context.Background(), slog.LevelError) {
		t.Error("the default logger is enabled at Error")
	}
}
