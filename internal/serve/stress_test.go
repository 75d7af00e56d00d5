package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Stress the cache and singleflight together under the race detector:
// many goroutines interleave LRU.Get/Put with flight.do on a small,
// colliding key space, including leaders that fail or panic. The
// assertions are (a) no data race, (b) no lost wakeup — every do returns
// — and (c) fn's result is delivered intact.
func TestStressCacheFlightCollidingKeys(t *testing.T) {
	lru := NewLRU(8)
	fl := newFlight()
	keys := []string{"a", "b", "c", "d"}

	const workers = 16
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				key := keys[rng.Intn(len(keys))]
				switch rng.Intn(4) {
				case 0:
					lru.Get(key)
				case 1:
					lru.Put(key, &Response{Cost: float64(i)})
				case 2:
					resp, _, err := fl.do(context.Background(), key, time.Now().Add(time.Minute), func() (*Response, error) {
						if rng.Intn(8) == 0 {
							return nil, fmt.Errorf("transient")
						}
						r := &Response{Cost: 42}
						lru.Put(key, r)
						return r, nil
					})
					if err == nil && resp.Cost != 42 {
						t.Errorf("flight returned cost %v, want 42", resp.Cost)
					}
				default:
					// Panicking leaders must neither wedge the key nor
					// leak a waiter; waiters see an error.
					fl.do(context.Background(), key, time.Now().Add(time.Minute), func() (*Response, error) {
						panic("stress panic")
					})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress workers stuck: lost wakeup in flight/cache interleaving")
	}
}

// goroutineBaseline samples the goroutine count after a settle loop so
// leak checks don't flake on runtime bookkeeping goroutines.
func goroutinesSettleTo(baseline int, d time.Duration) (int, bool) {
	deadline := time.Now().Add(d)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Server shutdown must not leak goroutines: after serving a burst of
// requests (batched solves, singleflight waits, cached hits) and
// closing, the goroutine count returns to its pre-server baseline.
func TestServerShutdownGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{BatchWindow: 10 * time.Millisecond, BatchMax: 8})
	ts := httptest.NewServer(s.Handler())

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A mix of identical (coalesced) and distinct specs.
			postSpec(t, ts.URL, graphSpec(i%3))
		}(i)
	}
	wg.Wait()

	ts.Close()
	s.Close()

	if n, ok := goroutinesSettleTo(baseline, 5*time.Second); !ok {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked after shutdown: %d > baseline %d\n%s", n, baseline, buf)
	}
}

// Batcher drain must not leak its flush goroutines or strand submitters:
// Close flushes everything, and afterwards the goroutine count settles
// back to baseline while every submitter has returned.
func TestBatcherDrainGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	b := NewBatcher(50*time.Millisecond, 64, 100, NewMetrics())
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), batchGraph(int64(i+1), 4, 3)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	// Close while the window is still open: drain must flush the pending
	// batch rather than strand the six submitters.
	time.Sleep(10 * time.Millisecond)
	b.Close()
	wg.Wait()

	if _, err := b.Submit(context.Background(), batchGraph(9, 4, 3)); err != ErrShutdown {
		t.Errorf("post-close submit err = %v, want ErrShutdown", err)
	}
	if n, ok := goroutinesSettleTo(baseline, 5*time.Second); !ok {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s", n, baseline, buf)
	}
}

// The flight panic path under race: concurrent waiters on a panicking
// leader all get errors and the process survives (pre-fix this crashed
// the binary, post-fix it must also be race-clean).
func TestStressFlightPanicConcurrent(t *testing.T) {
	fl := newFlight()
	var wg sync.WaitGroup
	for round := 0; round < 20; round++ {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := fl.do(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
					panic("round boom")
				})
				if err != nil && !strings.Contains(err.Error(), "panic") {
					t.Errorf("err = %v, want panic-derived", err)
				}
			}()
		}
	}
	wg.Wait()
}
