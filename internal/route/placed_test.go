package route

import (
	"bytes"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"systolicdp/internal/check"
	"systolicdp/internal/obs"
	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

// A lookup allocates nothing, and the memo holds at most two
// generations however many bodies it places, while a body looked up
// once per generation stays.
func TestPlacementsAllocFreeAndBounded(t *testing.T) {
	var p placements
	sum := func(i int) *[sha256.Size]byte {
		s := sha256.Sum256([]byte(strconv.Itoa(i)))
		return &s
	}
	kept, want := sum(-1), placement{key: "kept", kind: "chain"}
	p.put(kept, want)
	for i := 0; i < 3*placedGeneration; i++ {
		p.put(sum(i), placement{key: strconv.Itoa(i), kind: "dtw"})
		if n := len(p.cur) + len(p.prev); n > 2*placedGeneration {
			t.Fatalf("after %d bodies the memo holds %d, want at most %d", i+2, n, 2*placedGeneration)
		}
		if i%placedGeneration == placedGeneration/2 {
			if got, ok := p.get(kept); !ok || got != want {
				t.Fatalf("after %d bodies the kept body reads %v, %v", i+2, got, ok)
			}
		}
	}
	if got, ok := p.get(kept); !ok || got != want {
		t.Errorf("the kept body reads %v, %v after three generations", got, ok)
	}
	if _, ok := p.get(sum(0)); ok {
		t.Error("a body from two generations back is still held")
	}
	hit, miss := sum(3*placedGeneration-1), sum(-2)
	if n := testing.AllocsPerRun(100, func() { p.get(hit) }); n != 0 {
		t.Errorf("a hit allocated %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.get(miss) }); n != 0 {
		t.Errorf("a miss allocated %v times", n)
	}
}

// A repeated body is placed from memory, so it allocates less than its
// first request, which decodes and hashes it. Forwards go to a canned
// transport, so the counts are the router's own plus the transport's.
// A repeat's count is bounded beyond a baseline measured on the running
// release: a bare round trip to the canned transport, and
// crypto/rand.Read's cost for each of the hop's two ids. On Go 1.24 the
// router's own are 20, one of them the candidate_pick note (41 when
// forwards went through http.Client and the ring was searched from a
// second digest, 21 when the status label was formatted per forward);
// the bound adds a slack of 2 for other releases.
func TestRouterRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the first request's Hash draws its encoder from a sync.Pool")
	}
	s := newSolver(cannedRouter(t))
	body, at := routedGraph(t)
	i := 0
	first := testing.AllocsPerRun(200, func() {
		freshen(body, at, i)
		i++
		if status := s.solve(body); status != http.StatusOK {
			t.Fatalf("first request: status %d", status)
		}
	})
	repeat := testing.AllocsPerRun(200, func() { s.solve(body) })
	t.Logf("allocations per request: %v for a first request, %v for a repeat", first, repeat)
	if repeat >= first {
		t.Errorf("a repeat allocated %v times, a first request %v", repeat, first)
	}
	if got := s.rt.Metrics().Decodes.Value(); got != int64(i) {
		t.Errorf("%d decodes for %d distinct bodies", got, i)
	}

	fwd := httptest.NewRequest(http.MethodPost, "http://127.0.0.1:1/solve", nil)
	bare := testing.AllocsPerRun(200, func() { cannedTransport{}.RoundTrip(fwd) })
	read := testing.AllocsPerRun(100, func() {
		var b [16]byte
		crand.Read(b[:])
	})
	if own := repeat - bare - 2*read; own > 20+2 {
		t.Errorf("a repeat allocated %v times beyond a bare round trip's %v and its ids' reads' %v, want at most 22",
			own, bare, 2*read)
	}
}

// Every kind, sent as its canonical bytes and as a reordered,
// whitespaced body, is decoded once per distinct body at the router.
// Each repeat goes to the replica its first request went to and is a
// cache hit there, and its hop span names the kind and runs the three
// router phases.
func TestRouterPlacesEveryKindFromMemory(t *testing.T) {
	var bases []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		bases = append(bases, ts.URL)
	}
	rt := newTestRouter(t, Config{Replicas: bases})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	post := func(id string, body []byte) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, router.URL+"/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, resp.StatusCode, raw)
		}
		return resp.Header.Get("X-Dpserve-Cache")
	}

	rng := rand.New(rand.NewSource(23))
	firsts := make(map[string]string)  // request id of a body's first request -> kind
	repeats := make(map[string]string) // request id of a repeat -> its first request's id
	for _, kind := range spec.Kinds() {
		in := check.GenKind(rng, kind, check.GenConfig{})
		for in.File.Validate() != nil { // ±Inf edges have no wire form
			in = check.GenKind(rng, kind, check.GenConfig{})
		}
		key, err := in.File.Hash()
		if err != nil {
			t.Fatal(err)
		}
		c := in.File.Canonical()
		canon, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		decodes := rt.Metrics().Decodes.Value()
		for _, form := range []struct {
			name string
			body []byte
		}{{"canonical", canon}, {"other", otherBody(t, canon, key)}} {
			first := fmt.Sprintf("%s-%s-0", kind, form.name)
			post(first, form.body)
			firsts[first] = kind
			for r := 1; r <= 2; r++ {
				id := fmt.Sprintf("%s-%s-%d", kind, form.name, r)
				if cache := post(id, form.body); cache != "hit" {
					t.Errorf("%s: X-Dpserve-Cache %q, want hit", id, cache)
				}
				repeats[id] = first
			}
		}
		if got := rt.Metrics().Decodes.Value() - decodes; got != 2 {
			t.Errorf("%s: the router decoded %d times for 2 distinct bodies sent 3 times each", kind, got)
		}
	}

	resp, err := http.Get(router.URL + "/debug/dptrace?format=wire")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []obs.WireSpan
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	hops := make(map[string]obs.WireSpan)
	for _, s := range spans {
		hops[s.ID] = s
	}
	for id, first := range repeats {
		hop, ok := hops[id]
		if !ok {
			t.Errorf("no hop span for %s", id)
			continue
		}
		var phases []string
		for _, p := range hop.Phases {
			phases = append(phases, p.Name)
		}
		if got := strings.Join(phases, ","); got != "decode_hash,candidate_pick,proxy" {
			t.Errorf("%s: hop phases %q", id, got)
		}
		if kind := firsts[first]; hop.Kind != kind {
			t.Errorf("%s: hop kind %q, want %q", id, hop.Kind, kind)
		}
		if want := hops[first].Replica; hop.Replica != want || want == "" {
			t.Errorf("%s: answered by %q, its first request by %q", id, hop.Replica, want)
		}
	}
}
