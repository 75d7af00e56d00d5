package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"systolicdp/internal/core"
	"systolicdp/internal/spec"
)

// A body that declares its length is read in one allocation, a buffer
// of exactly that length, when the passed buffer is too small for it,
// and in none into a passed buffer that holds it.
func TestReadBodyAllocs(t *testing.T) {
	body := []byte(graphSpec(0))
	var rd bodyReader
	req := httptest.NewRequest(http.MethodPost, "/solve", &rd)
	req.ContentLength = int64(len(body))
	w := &discardWriter{h: make(http.Header)}
	buf := make([]byte, 3, len(body)+1)
	var got []byte
	var err error
	n := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		got, err = ReadBody(w, req, buf[:0:0])
	})
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(body) {
		t.Fatalf("read %q (cap %d), %v; want the body in a buffer of its length", got, cap(got), err)
	}
	if n != 1 {
		t.Errorf("a declared-length body took %v allocations, want 1", n)
	}

	n = testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		got, err = ReadBody(w, req, buf)
	})
	if err != nil || !bytes.Equal(got, body) || &got[0] != &buf[0] {
		t.Fatalf("read %q, %v; want the body in the passed buffer", got, err)
	}
	if n != 0 {
		t.Errorf("a declared-length body read into a passed buffer took %v allocations, want 0", n)
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// A body ReadBody does not size up front reads whole, as through
// io.ReadAll, up to MaxBody; past it the read fails with an
// *http.MaxBytesError.
func TestReadBodyUnsized(t *testing.T) {
	big := []byte(`{"problem":"chain","dims":[` + strings.Repeat("1,", 40<<10) + `1]}`)
	for _, tc := range []struct {
		name   string
		body   []byte
		length int64
	}{
		{"chunked", []byte(graphSpec(0)), -1},
		{"declared past 64 KiB", big, int64(len(big))},
	} {
		req := httptest.NewRequest(http.MethodPost, "/solve", io.NopCloser(bytes.NewReader(tc.body)))
		req.ContentLength = tc.length
		got, err := ReadBody(httptest.NewRecorder(), req, nil)
		if err != nil || !bytes.Equal(got, tc.body) {
			t.Errorf("%s: read %d bytes, %v; want the %d-byte body", tc.name, len(got), err, len(tc.body))
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/solve", io.NopCloser(io.LimitReader(zeros{}, MaxBody+1)))
	req.ContentLength = -1
	_, err := ReadBody(httptest.NewRecorder(), req, nil)
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) || tooLarge.Limit != MaxBody {
		t.Errorf("a body past the cap read with %v, want an *http.MaxBytesError at %d", err, MaxBody)
	}
}

// A body shorter than its Content-Length is a 400 naming the early end,
// read into a buffer of its declared length or not.
func TestReadBodyShort(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, length := range []int{100, 100 << 10} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /solve HTTP/1.1\r\nHost: dpserve\r\nContent-Length: %d\r\n\r\n%s",
			length, `{"problem":"chain"`)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "unexpected EOF") {
			t.Errorf("declared %d, sent 18: status %d %q, want a 400 naming the early end", length, resp.StatusCode, raw)
		}
	}
}

// Eight goroutines send one replica distinct bodies of 100 B to 17 KB at
// once: byte hits, decode-path hits, misses and bodies that fail to
// decode, every one read into a pooled buffer. Each 200 carries its own
// spec's core.Solve answer and each 400 its own error, so no request
// reads a buffer that has gone back to the pool.
func TestPooledBodiesStayWithTheirRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type probe struct {
		body []byte
		want *Response // a 200's answer: Problem, Cost, Path and Ordering
		err  string    // a 400's message
	}
	answer := func(f *spec.File) *Response {
		p, err := f.Build()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return &Response{Problem: p.Describe(), Cost: sol.Cost, Path: sol.Path, Ordering: sol.Ordering}
	}
	const senders, forms = 8, 4
	var warm [][]byte
	probes := make([][]probe, senders)
	for g := range probes {
		for k := 0; k < 4*forms; k++ {
			// 20 to 4,211 samples: bodies of 100 B to 17 KB. The first
			// sample sets each spec's cost apart from every other's.
			i := g*4*forms + k
			f := spec.File{Problem: "dtw", X: make([]float64, 20+33*i), Y: []float64{0}}
			for j := range f.X {
				f.X[j] = float64(100 + (7*j+i)%900)
			}
			f.X[0] = float64(10_000_000 * (i + 1))
			c := f.Canonical()
			canon, err := json.Marshal(&c)
			if err != nil {
				t.Fatal(err)
			}
			var pr probe
			switch k % forms {
			case 0: // a byte hit
				warm = append(warm, canon)
				pr = probe{body: canon, want: answer(&f)}
			case 1: // a decode-path hit
				warm = append(warm, canon)
				pr = probe{body: append([]byte("{ "), canon[1:]...), want: answer(&f)}
			case 2: // a miss, then hits in later rounds
				pr = probe{body: canon, want: answer(&f)}
			case 3: // a 400 at decode
				kind := fmt.Sprintf("dtw-%d", i)
				pr = probe{
					body: bytes.Replace(canon, []byte(`"dtw"`), []byte(`"`+kind+`"`), 1),
					err:  fmt.Sprintf("spec: unknown problem kind %q", kind),
				}
			}
			probes[g] = append(probes[g], pr)
		}
	}
	post := func(body []byte) (int, []byte, error) {
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	for _, body := range warm {
		if status, raw, err := post(body); status != http.StatusOK || err != nil {
			t.Fatalf("warm-up: status %d, %v: %s", status, err, raw)
		}
	}

	var wg sync.WaitGroup
	for g := range probes {
		wg.Add(1)
		go func(own []probe) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range own {
					pr := own[(k+5*round)%len(own)]
					status, raw, err := post(pr.body)
					switch {
					case err != nil:
						t.Errorf("%d-byte body: %v", len(pr.body), err)
					case pr.want == nil:
						if got := strings.TrimSpace(string(raw)); status != http.StatusBadRequest || got != pr.err {
							t.Errorf("%d-byte bad body: status %d %q, want 400 %q", len(pr.body), status, got, pr.err)
						}
					default:
						var got Response
						if status != http.StatusOK || json.Unmarshal(raw, &got) != nil {
							t.Errorf("%d-byte body: status %d %q, want a 200", len(pr.body), status, raw)
						} else if got.Problem != pr.want.Problem || got.Cost != pr.want.Cost ||
							!slices.Equal(got.Path, pr.want.Path) || got.Ordering != pr.want.Ordering {
							t.Errorf("%d-byte body answered %q cost %v, want %q cost %v",
								len(pr.body), got.Problem, got.Cost, pr.want.Problem, pr.want.Cost)
						}
					}
				}
			}
		}(probes[g])
	}
	wg.Wait()
}
