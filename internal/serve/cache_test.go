package serve

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", &Response{Cost: 1})
	c.Put("b", &Response{Cost: 2})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	// "a" was just touched, so inserting "c" evicts "b".
	c.Put("c", &Response{Cost: 3})
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be cached")
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", &Response{Cost: 1})
	c.Put("a", &Response{Cost: 9})
	if r, _ := c.Get("a"); r.Cost != 9 {
		t.Errorf("cost %v, want 9", r.Cost)
	}
	if c.Len() != 1 {
		t.Errorf("len %d, want 1", c.Len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := NewLRU(-1)
	c.Put("a", &Response{})
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache should never hit")
	}
}

// Concurrent identical keys run fn exactly once; everyone gets the result.
func TestFlightCoalesces(t *testing.T) {
	f := newFlight()
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, shared, err := f.do(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
				calls.Add(1)
				<-release
				return &Response{Cost: 42}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Cost != 42 {
				t.Errorf("cost %v", resp.Cost)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Give all callers time to join the flight before releasing fn.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Errorf("%d callers shared, want %d", got, n-1)
	}
}

// A waiter whose context expires abandons the flight without failing it.
func TestFlightWaiterTimeout(t *testing.T) {
	f := newFlight()
	release := make(chan struct{})
	go f.do(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
		<-release
		return &Response{Cost: 7}, nil
	})
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, _, err := f.do(ctx, "k", time.Now().Add(time.Minute), nil); err != context.DeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	close(release)
	// The original flight still completes for a fresh waiter that joins
	// before fn finishes or starts a new call after.
	resp, _, err := f.do(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
		return &Response{Cost: 7}, nil
	})
	if err != nil || resp.Cost != 7 {
		t.Errorf("resp %v err %v", resp, err)
	}
}

// Regression: a panicking fn used to strand every waiter forever (done
// was only closed after the map delete, which the panic skipped) and
// permanently wedge the key. Now the panic surfaces as an error and the
// key is immediately reusable.
func TestFlightPanicUnwedgesKeyAndWaiters(t *testing.T) {
	f := newFlight()
	started := make(chan struct{})
	boom := make(chan struct{})
	var wg sync.WaitGroup
	const waiters = 3
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.do(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
				close(started)
				<-boom
				panic("solver exploded")
			})
		}(i)
	}
	<-started
	close(boom)

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters still stranded after fn panicked")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Errorf("waiter %d err = %v, want panic-derived error", i, err)
		}
	}

	// The key must not be wedged: a fresh call runs a fresh fn.
	resp, shared, err := f.do(context.Background(), "k", time.Now().Add(time.Minute), func() (*Response, error) {
		return &Response{Cost: 11}, nil
	})
	if err != nil || shared || resp.Cost != 11 {
		t.Errorf("post-panic call: resp %+v shared %v err %v, want fresh successful run", resp, shared, err)
	}
}
