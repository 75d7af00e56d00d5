package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"systolicdp/internal/spec"
)

// LRU is a bounded least-recently-used cache from canonical spec hash to
// solved response. A zero or negative capacity disables caching.
type LRU struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *lruEntry
	items map[string]*list.Element
}

type lruEntry struct {
	key  string
	resp *Response
}

// NewLRU builds a cache holding at most max responses.
func NewLRU(max int) *LRU {
	return &LRU{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached response for key, promoting it to most recent.
func (c *LRU) Get(key string) (*Response, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.promote(c.items[key])
}

// getBody looks a request body up under its own cache key,
// spec.AppendKey of its bytes. A body that finds an entry is that
// entry's canonical encoding, so the entry answers it. The key is built
// on the stack and the map indexed with string(key), so the probe
// allocates nothing.
func (c *LRU) getBody(body []byte) (*Response, bool) {
	if c.max <= 0 {
		return nil, false
	}
	var buf [spec.KeySize]byte
	key := spec.AppendKey(buf[:0], body)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.promote(c.items[string(key)])
}

// promote makes a found entry the most recent; c.mu is held.
func (c *LRU) promote(el *list.Element) (*Response, bool) {
	if el == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).resp, true
}

// Put stores a response, evicting the least-recently-used entry if full.
func (c *LRU) Put(key string, resp *Response) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, resp: resp})
	if c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached responses.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight deduplicates concurrent identical work: the first request for a
// key starts fn in its own goroutine; later requests for the same key wait
// on the same result. fn runs detached from any single request's context,
// so a waiter abandoning early (ctx done) never fails the others.
type flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	resp *Response
	err  error
}

func newFlight() *flight {
	return &flight{calls: make(map[string]*flightCall)}
}

// do returns fn's result for key, coalescing concurrent callers. shared
// reports whether this caller joined an already-in-flight solve. The
// caller waits until ctx is done or deadline passes, whichever is first;
// fn runs on past either.
func (f *flight) do(ctx context.Context, key string, deadline time.Time, fn func() (*Response, error)) (resp *Response, shared bool, err error) {
	f.mu.Lock()
	c, ok := f.calls[key]
	if !ok {
		c = &flightCall{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()
		go func() {
			// LIFO defers: the recover runs first so a panicking fn still
			// reaches the cleanup below — the key is always unwedged and
			// done is always closed, even when fn never returns normally.
			defer func() {
				f.mu.Lock()
				delete(f.calls, key)
				f.mu.Unlock()
				close(c.done)
			}()
			defer func() {
				if r := recover(); r != nil {
					c.resp, c.err = nil, fmt.Errorf("serve: solve panicked: %v", r)
				}
			}()
			c.resp, c.err = fn()
		}()
	} else {
		f.mu.Unlock()
	}
	expired := time.NewTimer(time.Until(deadline))
	defer expired.Stop()
	select {
	case <-c.done:
		return c.resp, ok, c.err
	case <-ctx.Done():
		return nil, ok, ctx.Err()
	case <-expired.C:
		return nil, ok, context.DeadlineExceeded
	}
}
