package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A body that declares its length is read in one allocation, a buffer
// of exactly that length.
func TestReadBodyAllocs(t *testing.T) {
	body := []byte(graphSpec(0))
	var rd bodyReader
	req := httptest.NewRequest(http.MethodPost, "/solve", &rd)
	req.ContentLength = int64(len(body))
	w := &discardWriter{h: make(http.Header)}
	var got []byte
	var err error
	n := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		got, err = ReadBody(w, req)
	})
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(body) {
		t.Fatalf("read %q (cap %d), %v; want the body in a buffer of its length", got, cap(got), err)
	}
	if n != 1 {
		t.Errorf("a declared-length body took %v allocations, want 1", n)
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
		got, err := ReadBody(httptest.NewRecorder(), req)
		if err != nil || !bytes.Equal(got, tc.body) {
			t.Errorf("%s: read %d bytes, %v; want the %d-byte body", tc.name, len(got), err, len(tc.body))
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/solve", io.NopCloser(io.LimitReader(zeros{}, MaxBody+1)))
	req.ContentLength = -1
	_, err := ReadBody(httptest.NewRecorder(), req)
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
