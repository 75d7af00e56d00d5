package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chainSpec builds a distinct chain-ordering spec; salt perturbs one
// dimension so specs hash differently (no cache/singleflight coalescing).
func chainSpec(salt int) string {
	return fmt.Sprintf(`{"problem":"chain","dims":[30,35,15,%d,10,20,25]}`, 5+salt%20+1)
}

// Shed-under-ramp, race-clean and leak-free: with admission on and the
// chain rate pinned infeasibly slow, a concurrent ramp of distinct
// requests — half doomed chains, half feasible DTWs — must all return
// (429 for the doomed, 200 for the feasible), leave zero backlog, and
// leak no goroutines after Close.
func TestStressAdmissionShedUnderRamp(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{BatchWindow: -1, Timeout: time.Second, AdmitEnabled: true})
	ts := httptest.NewServer(s.Handler())
	s.admit.setRate("chain", 1) // ~57 units -> minutes of predicted work

	const ramp = 40
	var shed, solved, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < ramp; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body string
			if i%2 == 0 {
				body = chainSpec(i)
			} else {
				body = fmt.Sprintf(`{"problem":"dtw","x":[0,1,2,%d],"y":[0,1,1,2,3]}`, i)
			}
			status, _, _, _ := postSpec(t, ts.URL, body)
			switch status {
			case http.StatusTooManyRequests:
				shed.Add(1)
			case http.StatusOK:
				solved.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ramp requests stuck")
	}

	if got := shed.Load(); got != ramp/2 {
		t.Errorf("shed %d requests, want %d (every doomed chain)", got, ramp/2)
	}
	if got := solved.Load(); got != ramp/2 {
		t.Errorf("solved %d requests, want %d (every feasible dtw)", got, ramp/2)
	}
	if got := other.Load(); got != 0 {
		t.Errorf("%d requests got neither 200 nor 429", got)
	}
	if got := s.admit.BacklogSeconds(); got != 0 {
		t.Errorf("backlog after ramp = %v, want 0", got)
	}
	if got := s.metrics.AdmitShed.Value(); got != int64(ramp/2) {
		t.Errorf("dpserve_admit_shed_total = %d, want %d", got, ramp/2)
	}

	ts.Close()
	s.Close()
	if n, ok := goroutinesSettleTo(baseline, 5*time.Second); !ok {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked after shed ramp: %d > baseline %d\n%s", n, baseline, buf)
	}
}

// Deadline propagation into the batcher: a Design-1 dispatch whose
// context deadline expires during the collection window must return
// DeadlineExceeded, release both its admission reservation and its
// batcher queue slot, and be counted abandoned at the window flush.
func TestAdmissionDeadlineReachesBatcher(t *testing.T) {
	s := New(Config{
		BatchWindow:  40 * time.Millisecond,
		BatchMax:     64, // never size-triggers: only the window flush runs
		AdmitEnabled: true,
	})
	defer s.Close()

	p := specProblem(t, graphSpec(0))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := s.dispatch(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dispatch err = %v, want DeadlineExceeded", err)
	}
	// The submitter is back before the window flush: its admission
	// reservation and batcher slot must already be free.
	if got := s.admit.BacklogSeconds(); got != 0 {
		t.Errorf("backlog right after expired dispatch = %v, want 0", got)
	}
	s.batcher.mu.Lock()
	inflight := s.batcher.inflight
	s.batcher.mu.Unlock()
	if inflight != 0 {
		t.Errorf("batcher inflight right after expired dispatch = %d, want 0", inflight)
	}
	// The window flush sees the dead item and abandons it.
	deadline := time.Now().Add(2 * time.Second)
	for s.metrics.BatchAbandoned.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("window flush never counted the expired item abandoned")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.metrics.Batches.Value(); got != 0 {
		t.Errorf("abandoned-only flush spun the array: batches = %d, want 0", got)
	}
}

// Close during shedding: concurrent submitters racing the server's Close
// — some shed by admission, some rejected by the drain, some solving —
// must all return promptly with no race and no leaked goroutine.
func TestStressCloseDuringShedding(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for round := 0; round < 5; round++ {
		s := New(Config{BatchWindow: -1, Timeout: time.Second, AdmitEnabled: true})
		ts := httptest.NewServer(s.Handler())
		s.admit.setRate("chain", 1)

		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				body := chainSpec(i)
				if i%2 == 1 {
					body = fmt.Sprintf(`{"problem":"dtw","x":[0,1,%d],"y":[0,1,2]}`, i)
				}
				// Raw client: the server may die mid-exchange, which is the
				// point — submitters must not hang or trip the race detector.
				resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}(i)
		}
		close(start)
		s.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("submitters stuck racing Close")
		}
		ts.Close()
	}

	if n, ok := goroutinesSettleTo(baseline, 5*time.Second); !ok {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked racing Close: %d > baseline %d\n%s", n, baseline, buf)
	}
}
