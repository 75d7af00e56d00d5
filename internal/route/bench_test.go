package route

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

// cannedTransport answers every forward with the same empty 200 hit,
// without a network, so a handler pin or benchmark sees the router's own
// work alone.
type cannedTransport struct{}

func (cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}, "X-Dpserve-Cache": {"hit"}},
		Body:       http.NoBody,
		Request:    r,
	}, nil
}

// discardWriter is a ResponseWriter that keeps its header map and the
// last status, and drops the body. Like http.Server's ResponseWriter it
// is an io.ReaderFrom that copies through a pooled buffer, so relaying a
// replica's body does not allocate a copy buffer per request.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header                 { return w.h }
func (w *discardWriter) Write(b []byte) (int, error)         { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)                { w.code = code }
func (w *discardWriter) ReadFrom(r io.Reader) (int64, error) { return io.Copy(io.Discard, r) }

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// cannedRouter is a router over two replicas that are never dialled:
// its forwards go to cannedTransport, and its prober waits an hour.
func cannedRouter(tb testing.TB) *Router {
	tb.Helper()
	rt, err := New(Config{
		Replicas:       []string{"127.0.0.1:1", "127.0.0.1:2"},
		HealthInterval: time.Hour,
		Transport:      cannedTransport{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

// solver posts bodies to a router's /solve handler through one reused
// request, body reader and writer, with a fixed request id.
type solver struct {
	rt  *Router
	rd  bodyReader
	req *http.Request
	w   discardWriter
}

func newSolver(rt *Router) *solver {
	s := &solver{rt: rt, w: discardWriter{h: make(http.Header)}}
	s.req = httptest.NewRequest(http.MethodPost, "/solve", &s.rd)
	s.req.Header.Set("X-Request-Id", "bench")
	return s
}

// solve handles one request for body, declared at its length as a
// client sending bytes does, and returns its status.
func (s *solver) solve(body []byte) int {
	s.rd.Reset(body)
	s.req.ContentLength = int64(len(body))
	s.rt.handleSolve(&s.w, s.req)
	return s.w.code
}

// routedGraph returns the canonical body of a Design-0 graph of 372
// two-digit costs, 1,311 bytes (hot-routed's mean body is 1,312), and
// the offset of a ten-digit cost that fresh copies rewrite.
func routedGraph(tb testing.TB) ([]byte, int) {
	tb.Helper()
	stage := func(rows, cols, seed int) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = float64(10 + (seed+7*i+13*j)%90)
			}
		}
		return m
	}
	f := spec.File{Problem: "graph", Costs: [][][]float64{stage(1, 6, 0)}}
	for k := 1; k <= 10; k++ {
		f.Costs = append(f.Costs, stage(6, 6, k))
	}
	f.Costs = append(f.Costs, stage(6, 1, 11))
	f.Costs[0][0][0] = 1e9
	body, err := json.Marshal(&f)
	if err != nil {
		tb.Fatal(err)
	}
	at := bytes.Index(body, []byte("1000000000"))
	if at < 0 {
		tb.Fatal("no marker cost in the body")
	}
	return body, at
}

// freshen rewrites the marker cost of a routedGraph body as 1e9+i, so
// each i gives distinct bytes of the same length.
func freshen(body []byte, at, i int) {
	var digits [20]byte
	copy(body[at:at+10], strconv.AppendInt(digits[:0], int64(1e9+i), 10))
}

// routedSeries returns the canonical body of a dtw spec whose x holds
// 4,200 three-digit samples, 17,015 bytes (hot-routed's p99 body is
// 17 KB), and whose y holds 8, so its one solve is short.
func routedSeries(tb testing.TB) []byte {
	tb.Helper()
	f := spec.File{Problem: "dtw", X: make([]float64, 4200), Y: make([]float64, 8)}
	for i := range f.X {
		f.X[i] = float64(100 + (7*i)%900)
	}
	for i := range f.Y {
		f.Y[i] = float64(100 * (i + 1))
	}
	c := f.Canonical()
	body, err := json.Marshal(&c)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// loopbackRouter is a router over one real dpserve replica on an
// httptest server, so a forward makes a real round trip on loopback.
func loopbackRouter(tb testing.TB) *Router {
	tb.Helper()
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	tb.Cleanup(s.Close)
	rt, err := New(Config{Replicas: []string{ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

// BenchmarkRouterSolve times the router's /solve handler. With its
// forwards answered by cannedTransport, "fresh" sends bytes the router
// has not seen on every iteration, "repeated" the same body each time.
// The "loopback" cases repeat one canonical body through a real replica,
// so they also time the forward's round trip, its write of the body and
// the parse of the replica's answer, which the canned transport skips:
// the replica answers each from its byte path.
func BenchmarkRouterSolve(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		s := newSolver(cannedRouter(b))
		body, at := routedGraph(b)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		status := 0
		for i := 0; i < b.N; i++ {
			freshen(body, at, i)
			status = s.solve(body)
		}
		if status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	})
	b.Run("repeated", func(b *testing.B) {
		s := newSolver(cannedRouter(b))
		body, _ := routedGraph(b)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		status := 0
		for i := 0; i < b.N; i++ {
			status = s.solve(body)
		}
		if status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	})
	graph, _ := routedGraph(b)
	for _, tc := range []struct {
		name string
		body []byte
	}{{"loopback-1.3KB", graph}, {"loopback-17KB", routedSeries(b)}} {
		b.Run(tc.name, func(b *testing.B) {
			s := newSolver(loopbackRouter(b))
			if status := s.solve(tc.body); status != http.StatusOK {
				b.Fatalf("warm-up: status %d", status)
			}
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			status := 0
			for i := 0; i < b.N; i++ {
				status = s.solve(tc.body)
			}
			if status != http.StatusOK {
				b.Fatalf("status %d", status)
			}
		})
	}
}
