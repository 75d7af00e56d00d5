package route

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"systolicdp/internal/obs"
)

// lockedBuffer makes a bytes.Buffer safe for concurrent slog writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A replica base whose /solve URL does not parse is refused wherever
// membership is set: New and SetReplicas return an error naming it, and
// a reloaded membership file that lists it is rejected, so the router
// keeps the membership it had.
func TestRouterRefusesUnparsableBase(t *testing.T) {
	const bad = "http://bad host:1"
	rt, err := New(Config{Replicas: []string{bad, "127.0.0.1:2"}, HealthInterval: time.Hour})
	if err == nil {
		rt.Close()
	}
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("New over %q: err %v, want one naming the base", bad, err)
	}

	a := newFakeReplica()
	defer a.ts.Close()
	path := filepath.Join(t.TempDir(), "replicas")
	if err := os.WriteFile(path, []byte(a.base()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	logs := &lockedBuffer{}
	rt = newTestRouter(t, Config{
		ReplicasFile:   path,
		ReloadInterval: 10 * time.Millisecond,
		HealthInterval: time.Hour,
		Logger:         slog.New(slog.NewTextHandler(logs, nil)),
	})
	members := func() string { return strings.Join(rt.ReplicaBases(), ",") }
	if err := rt.SetReplicas([]string{a.base(), bad}); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("SetReplicas with %q: err %v, want one naming the base", bad, err)
	}
	if got := members(); got != a.base() {
		t.Errorf("membership %q after a refused SetReplicas, want %q", got, a.base())
	}

	if err := os.WriteFile(path, []byte(a.base()+"\n"+bad+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Second)
	os.Chtimes(path, future, future)
	waitFor(t, 2*time.Second, func() bool { return strings.Contains(logs.String(), "replicas file rejected") })
	if line := logs.String(); !strings.Contains(line, "bad host:1") {
		t.Errorf("the rejection does not name the base: %s", line)
	}
	if got := members(); got != a.base() {
		t.Errorf("membership %q after a rejected file, want %q", got, a.base())
	}
}

// A replica answer cut off mid-relay is logged at Warn with the request
// id and the replica, and the hop span ends once the relay has ended,
// not when the replica's head arrived.
func TestRouterLogsCutRelay(t *testing.T) {
	const stall = 100 * time.Millisecond
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		conn, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		defer conn.Close()
		// Half of the declared body, a pause, then the connection ends.
		fmt.Fprint(bw, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 20\r\n\r\n0123456789")
		bw.Flush()
		time.Sleep(stall)
	}))
	defer replica.Close()
	logs := &lockedBuffer{}
	rt := newTestRouter(t, Config{
		Replicas:       []string{replica.URL},
		HealthInterval: time.Hour,
		Logger:         slog.New(slog.NewTextHandler(logs, nil)),
	})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	req, err := http.NewRequest(http.MethodPost, router.URL+"/solve", strings.NewReader(chainBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "cut-relay")
	// The router aborts the client's connection, so the cut shows to the
	// client too: as no response at all, or as a body that ends early.
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Errorf("the client read status %d and a whole body from a cut relay", resp.StatusCode)
	}

	var hop obs.WireSpan
	waitFor(t, 2*time.Second, func() bool {
		for _, s := range rt.hops.WireSpans() {
			if s.ID == "cut-relay" {
				hop = s
				return true
			}
		}
		return false
	})
	if d := hop.Duration(); d < stall {
		t.Errorf("the hop lasted %v, ending before the relay's %v pause", d, stall)
	}
	if n := len(hop.Phases); n == 0 || hop.Phases[n-1].Name != "relay" ||
		!strings.HasPrefix(hop.Phases[n-1].Note, "err=") {
		t.Errorf("the hop's phases %+v do not end in a relay phase naming its error", hop.Phases)
	}
	var warned bool
	sc := bufio.NewScanner(strings.NewReader(logs.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "level=WARN") && strings.Contains(line, "relay failed") &&
			strings.Contains(line, "id=cut-relay") && strings.Contains(line, "replica="+replica.URL) {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no Warn line names the cut relay's request id and replica:\n%s", logs.String())
	}
}

// The proxy notes read as the fmt verbs that once built them wrote
// them.
func TestNotesMatchTheirFormats(t *testing.T) {
	refused := errors.New("dial tcp 127.0.0.1:1: connect: connection refused")
	for _, tc := range []struct {
		attempt, status int
		err             error
		want            string
	}{
		{1, 200, nil, fmt.Sprintf("attempt=%d replica=%s status=%d", 1, "http://a:1", 200)},
		{12, 429, nil, fmt.Sprintf("attempt=%d replica=%s status=%d", 12, "http://a:1", 429)},
		{2, 0, refused, fmt.Sprintf("attempt=%d replica=%s err=%v", 2, "http://a:1", refused)},
	} {
		if got := proxyNote(tc.attempt, "http://a:1", tc.status, tc.err); got != tc.want {
			t.Errorf("proxyNote = %q, want %q", got, tc.want)
		}
	}
}

// A deadline spent before the first forward is due (here on a body
// uploaded more slowly than the client's X-Deadline-Ms) answers 504 with
// a recorded hop, as a deadline that ends during a forward does.
func TestRouterDeadlineSpentBeforeFirstForward(t *testing.T) {
	a := newFakeReplica()
	defer a.ts.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.base()}, HealthInterval: time.Hour})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	body := chainBody(0)
	pr, pw := io.Pipe()
	go func() {
		time.Sleep(20 * time.Millisecond)
		io.WriteString(pw, body)
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, router.URL+"/solve", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	req.Header.Set(obs.RequestIDHeader, "spent-deadline")
	req.Header.Set("X-Deadline-Ms", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("the router dropped the connection: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d %q, want 504", resp.StatusCode, raw)
	}
	if got := a.solves.Load(); got != 0 {
		t.Errorf("the replica was sent %d requests past the deadline", got)
	}
	var found bool
	for _, s := range rt.hops.WireSpans() {
		if s.ID == "spent-deadline" {
			found = true
			if s.Status != http.StatusGatewayTimeout {
				t.Errorf("hop status %d, want 504", s.Status)
			}
		}
	}
	if !found {
		t.Error("no hop span was recorded")
	}
}
