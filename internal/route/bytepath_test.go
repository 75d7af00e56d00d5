package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"systolicdp/internal/check"
	"systolicdp/internal/obs"
	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

// otherBody writes a canonical body another way: fields in reverse name
// order, padded with whitespace inside and between them, and the cost
// name left out when it is the kind's default. It decodes to the same
// problem under the same key, from different bytes.
func otherBody(t *testing.T, canon []byte, key string) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(canon, &fields); err != nil {
		t.Fatal(err)
	}
	write := func() []byte {
		names := make([]string, 0, len(fields))
		for name := range fields {
			names = append(names, name)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
		var b bytes.Buffer
		b.WriteString("{\n")
		for i, name := range names {
			if i > 0 {
				b.WriteString(" ,\n")
			}
			fmt.Fprintf(&b, "  %q :\t", name)
			if err := json.Indent(&b, fields[name], "  ", " "); err != nil {
				t.Fatal(err)
			}
		}
		b.WriteString("\n}\n")
		return b.Bytes()
	}
	if cost, ok := fields["cost"]; ok {
		delete(fields, "cost")
		if f, err := spec.Decode(write()); err != nil {
			t.Fatal(err)
		} else if k, err := f.Hash(); err != nil || k != key {
			fields["cost"] = cost // not the default: it stays
		}
	}
	body := write()
	f, err := spec.Decode(body)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	if k, err := f.Hash(); err != nil || k != key {
		t.Fatalf("%s: key %s, %v; want %s", body, k, err, key)
	}
	return body
}

// Every kind's answer is the same bytes whichever path serves it: the
// miss, a decode-path hit on a reordered body, or a byte hit on the
// canonical body. Bodies go to a replica directly and through a router
// over two replicas, which forwards each body as the client sent it.
func TestByteHitsMatchDecodedAnswers(t *testing.T) {
	newReplica := func() (*serve.Server, string) {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		return s, ts.URL
	}
	direct, directURL := newReplica()
	var fleet []*serve.Server
	var bases []string
	for i := 0; i < 2; i++ {
		s, base := newReplica()
		fleet, bases = append(fleet, s), append(bases, base)
	}
	rt := newTestRouter(t, Config{Replicas: bases})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	targets := []struct {
		name    string
		url     string
		servers []*serve.Server
	}{
		{"direct", directURL, []*serve.Server{direct}},
		{"routed", router.URL, fleet},
	}
	requests := func(servers []*serve.Server, kind string) int64 {
		n := int64(0)
		for _, s := range servers {
			n += s.Metrics().Requests(kind)
		}
		return n
	}
	// The headers an answer carries, less the ones that differ per
	// request by design.
	stable := func(h http.Header) http.Header {
		h = h.Clone()
		for _, name := range []string{"Date", "X-Request-Id", "X-Dpserve-Cache"} {
			h.Del(name)
		}
		return h
	}

	rng := rand.New(rand.NewSource(22))
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
		other := otherBody(t, canon, key)
		bodies := [][]byte{canon, other, canon, other, canon}
		for _, tg := range targets {
			before := requests(tg.servers, kind)
			var miss *http.Response
			var missBody []byte
			for i, body := range bodies {
				id := fmt.Sprintf("%s-%s-%d", kind, tg.name, i)
				req, err := http.NewRequest(http.MethodPost, tg.url+"/solve", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Request-ID", id)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", id, resp.StatusCode, raw)
				}
				want := "hit"
				if i == 0 {
					want, miss, missBody = "miss", resp, raw
				}
				if got := resp.Header.Get("X-Dpserve-Cache"); got != want {
					t.Errorf("%s: X-Dpserve-Cache %q, want %q", id, got, want)
				}
				if got := resp.Header.Get("X-Request-ID"); got != id {
					t.Errorf("%s: X-Request-ID %q", id, got)
				}
				if !bytes.Equal(raw, missBody) {
					t.Errorf("%s: answered %q, the miss %q", id, raw, missBody)
				}
				if got, want := stable(resp.Header), stable(miss.Header); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: headers %v, the miss's %v", id, got, want)
				}
			}
			if got := requests(tg.servers, kind) - before; got != int64(len(bodies)) {
				t.Errorf("%s %s: Requests counted %d, want %d", kind, tg.name, got, len(bodies))
			}
		}
	}

	// The direct canonical repeats were byte hits; their spans carry the
	// decode and encode phases, the kind and the cache disposition.
	resp, err := http.Get(directURL + "/debug/dptrace?format=wire")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []obs.WireSpan
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	byteHits := make(map[string]string) // span id -> kind
	for _, kind := range spec.Kinds() {
		for _, i := range []int{2, 4} {
			byteHits[fmt.Sprintf("%s-direct-%d", kind, i)] = kind
		}
	}
	for _, s := range spans {
		kind, ok := byteHits[s.ID]
		if !ok {
			continue
		}
		delete(byteHits, s.ID)
		var phases []string
		for _, p := range s.Phases {
			phases = append(phases, p.Name)
		}
		if s.Kind != kind || !s.Cached || s.Status != http.StatusOK ||
			!slices.Contains(phases, "decode") || !slices.Contains(phases, "encode") {
			t.Errorf("byte hit %s: kind %q cached %v status %d phases %v", s.ID, s.Kind, s.Cached, s.Status, phases)
		}
	}
	if len(byteHits) > 0 {
		t.Errorf("no spans for byte hits %v", byteHits)
	}
}

// A zero Config's logger drops records before formatting them.
func TestZeroConfigLoggerDisabled(t *testing.T) {
	if (Config{}).withDefaults().Logger.Enabled(context.Background(), slog.LevelError) {
		t.Error("the default logger is enabled at Error")
	}
}
