package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A Submit whose ctx is cancelled before the window fires must not be
// solved: its slot is released at flush, it is counted as abandoned, and
// the surviving items still get correct answers.
func TestBatcherCancelBeforeFlush(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(80*time.Millisecond, 16, 100, met)
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, batchGraph(1, 5, 4))
		cancelled <- err
	}()
	live := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Submit(context.Background(), batchGraph(int64(i+2), 5, 4))
			live <- err
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // all three admitted, window open
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-live; err != nil {
			t.Errorf("surviving request failed: %v", err)
		}
	}
	if got := met.BatchAbandoned.Value(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	if got := met.Batched.Value(); got != 2 {
		t.Errorf("batched = %d, want 2 (cancelled item must not be solved)", got)
	}
	if got := met.BatchOccupancy.With("graph-stream").Sum(); got != 2 {
		t.Errorf("occupancy sum = %v, want 2", got)
	}
	b.mu.Lock()
	inflight := b.inflight
	b.mu.Unlock()
	if inflight != 0 {
		t.Errorf("inflight after flush = %d, want 0 (slot leak)", inflight)
	}
}

// A batch whose every item was cancelled never runs the array.
func TestBatcherAllCancelledSkipsSolve(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(60*time.Millisecond, 16, 2, met)
	defer b.Close()

	errs := make(chan error, 2)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Submit(ctx, batchGraph(int64(i+1), 5, 4))
			errs <- err
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	// Slots come back eagerly, before the window flush even fires.
	b.mu.Lock()
	inflight := b.inflight
	b.mu.Unlock()
	if inflight != 0 {
		t.Errorf("inflight = %d after cancelled submitters returned, want 0 (eager release)", inflight)
	}
	// Wait for the window flush, then verify the array never spun up.
	deadline := time.After(2 * time.Second)
	for met.BatchAbandoned.Value() != 2 {
		select {
		case <-deadline:
			t.Fatalf("flush never counted the abandoned items: abandoned = %d", met.BatchAbandoned.Value())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := met.Batches.Value(); got != 0 {
		t.Errorf("flush ran the array for an all-cancelled batch (batches = %d)", got)
	}
	// The freed slots admit new work immediately.
	if _, err := b.Submit(context.Background(), batchGraph(9, 5, 4)); err != nil {
		t.Errorf("post-release Submit failed: %v", err)
	}
}

// Cancellation racing the flush itself must be safe (run under -race) and
// never lose a slot, whichever side of the ctx.Err() check each item
// lands on.
func TestBatcherCancelDuringFlush(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(time.Millisecond, 4, 100, met)
	defer b.Close()

	const rounds = 20
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := context.Background()
				if i%2 == 0 {
					c = ctx
				}
				b.Submit(c, batchGraph(int64(i+1), 5, 4))
			}(i)
		}
		time.Sleep(time.Duration(r%3) * time.Millisecond)
		cancel()
		wg.Wait()
	}
	deadline := time.After(2 * time.Second)
	for {
		b.mu.Lock()
		inflight := b.inflight
		b.mu.Unlock()
		if inflight == 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("inflight = %d after all rounds, want 0", inflight)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Client cancellation and server deadline are different failures.
func TestStatusForSeparatesCancelFromDeadline(t *testing.T) {
	if got := statusFor(context.Canceled); got != StatusClientClosedRequest {
		t.Errorf("statusFor(Canceled) = %d, want %d", got, StatusClientClosedRequest)
	}
	if got := statusFor(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Errorf("statusFor(DeadlineExceeded) = %d, want 504", got)
	}
	if got := statusFor(fmt.Errorf("wrap: %w", context.Canceled)); got != StatusClientClosedRequest {
		t.Errorf("statusFor(wrapped Canceled) = %d, want %d", got, StatusClientClosedRequest)
	}
}

// A client that disconnects mid-solve yields 499 handling: ClientCancel
// counts it, Timeouts does not.
func TestServeClientCancel499(t *testing.T) {
	// The long window parks the request in the batcher until the client
	// gives up.
	s := New(Config{BatchWindow: 10 * time.Second, BatchMax: 64})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(graphSpec(0)))
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.handleSolve(rec, req)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond) // request parked in the batcher
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after client cancellation")
	}
	if rec.Code != StatusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if got := s.Metrics().ClientCancel.Value(); got != 1 {
		t.Errorf("client cancels = %d, want 1", got)
	}
	if got := s.Metrics().Timeouts.Value(); got != 0 {
		t.Errorf("timeouts = %d, want 0 (client disconnect is not a server timeout)", got)
	}
	var sb strings.Builder
	s.Metrics().Write(&sb)
	if !strings.Contains(sb.String(), "dpserve_client_cancel_total 1") {
		t.Errorf("/metrics missing client-cancel counter:\n%s", sb.String())
	}
}

// A waiter coalesced onto a lead that answers ErrBusy retries the solve
// path once instead of inheriting the rejection, and error shares never
// count toward FlightShare.
func TestFlightTransientNotShared(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()

	release := make(chan struct{})
	leadErr := make(chan error, 1)
	go func() {
		_, err := s.flightSolve(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
			<-release
			return nil, ErrBusy
		})
		leadErr <- err
	}()
	// Wait until the lead's flight is registered so the waiter coalesces.
	waitForFlight(t, s, "k")

	var waiterSolves atomic.Int64
	waiterDone := make(chan error, 1)
	var waiterResp *Response
	go func() {
		r, err := s.flightSolve(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
			waiterSolves.Add(1)
			return &Response{Cost: 42}, nil
		})
		waiterResp = r
		waiterDone <- err
	}()
	time.Sleep(30 * time.Millisecond) // waiter joined the lead's flight
	close(release)

	if err := <-leadErr; !errors.Is(err, ErrBusy) {
		t.Fatalf("lead err = %v, want ErrBusy", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want nil (retried past the lead's ErrBusy)", err)
	}
	if waiterResp == nil || waiterResp.Cost != 42 {
		t.Errorf("waiter resp = %+v, want Cost 42 from its own retry", waiterResp)
	}
	if got := waiterSolves.Load(); got != 1 {
		t.Errorf("waiter solve ran %d times, want 1 (exactly one retry)", got)
	}
	if got := s.Metrics().FlightShare.Value(); got != 0 {
		t.Errorf("FlightShare = %d, want 0 (no successful share happened)", got)
	}
}

// Non-transient lead errors ARE shared (re-solving a deterministic
// failure helps nobody) but still never count as successful shares.
func TestFlightSolverErrorSharedUncounted(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()

	boom := errors.New("solver exploded")
	release := make(chan struct{})
	leadErr := make(chan error, 1)
	go func() {
		_, err := s.flightSolve(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
			<-release
			return nil, boom
		})
		leadErr <- err
	}()
	waitForFlight(t, s, "k")
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.flightSolve(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
			t.Error("waiter re-solved a non-transient failure")
			return nil, nil
		})
		waiterDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(release)
	if err := <-leadErr; !errors.Is(err, boom) {
		t.Fatalf("lead err = %v, want %v", err, boom)
	}
	if err := <-waiterDone; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want shared %v", err, boom)
	}
	if got := s.Metrics().FlightShare.Value(); got != 0 {
		t.Errorf("FlightShare = %d, want 0 (error shares are not successes)", got)
	}
}

// waitForFlight polls until a singleflight call for key is registered.
func waitForFlight(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		s.flight.mu.Lock()
		_, ok := s.flight.calls[key]
		s.flight.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-deadline:
			t.Fatal("flight never registered")
		case <-time.After(time.Millisecond):
		}
	}
}

// failWriter accepts headers but fails body writes, like a peer that
// reset the connection between the header flush and the body.
type failWriter struct {
	h      http.Header
	status int
}

func (f *failWriter) Header() http.Header { return f.h }
func (f *failWriter) WriteHeader(s int) {
	if f.status == 0 {
		f.status = s
	}
}
func (f *failWriter) Write([]byte) (int, error) {
	if f.status == 0 {
		f.status = http.StatusOK
	}
	return 0, errors.New("connection reset by peer")
}

// A failed response write is recorded as an error, not logged as success.
func TestServeEncodeErrorCounted(t *testing.T) {
	s := New(Config{BatchWindow: -1})
	defer s.Close()

	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{"problem":"chain","dims":[5,6,7]}`))
	w := &failWriter{h: make(http.Header)}
	s.handleSolve(w, req)
	if got := s.Metrics().Errors.Value(); got != 1 {
		t.Errorf("errors = %d, want 1 (half-written response)", got)
	}
}
