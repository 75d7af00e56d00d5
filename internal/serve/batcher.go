package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"systolicdp/internal/core"
	"systolicdp/internal/obs"
)

// Batcher micro-batches concurrent Design-1 graph requests: problems of
// one shape that arrive within one collection window are flushed together
// to their batch kernel, which solves each member by its direct sweep.
// The members share no work, so a batch buys only the window's wait; the
// batcher stays while perfbench still reads its batch wait and occupancy. The bucketing is keyed by kernel kind and shape
// (core.BatchKernels), and the Design-1 kernel is the only one.
type Batcher struct {
	window   time.Duration // collection window after the first arrival
	maxBatch int           // flush immediately at this many instances
	maxQueue int           // total waiting instances before backpressure

	// kernels is the per-kind batch solver set, in lookup priority order.
	kernels []core.BatchKernel

	mu       sync.Mutex
	pending  map[batchKey]*batch
	inflight int
	closed   bool
	wg       sync.WaitGroup // outstanding flush goroutines

	metrics *Metrics
	admit   *Admitter // calibration sink for measured batch rates; may be nil

	// solveBatch is the batch solve entry point; tests override it to
	// exercise the flush failure paths. Nil means the kernel's own Solve.
	solveBatch func(k core.BatchKernel, ps []core.Problem) ([]*core.Solution, error)

	// testPreFlush is a test seam that runs in Submit between releasing
	// b.mu and spawning the size-triggered flush goroutine — the window in
	// which Close used to be able to slip past an admitted flush. Nil
	// outside tests.
	testPreFlush func()
}

// batchKey identifies one bucket of co-batchable problems: the kernel's
// execution-path kind plus its kernel-specific shape string. The shape is
// the FULL compatibility profile (for graphs, every stage matrix's
// dimensions — not just the first), so two problems share a bucket only
// when the kernel can actually run them in one sweep.
type batchKey struct{ kind, shape string }

type batch struct {
	key    batchKey
	kernel core.BatchKernel
	items  []*batchItem
	timer  *time.Timer
}

type batchItem struct {
	problem  core.Problem
	ctx      context.Context  // the submitter's context; cancelled items are dropped at flush
	ch       chan batchResult // buffered; flush never blocks on delivery
	enqueued time.Time
	span     *obs.ReqSpan // request-lifecycle span; nil-safe
	released bool         // admission slot freed; guarded by Batcher.mu
}

type batchResult struct {
	sol *core.Solution
	err error
}

// NewBatcher builds a micro-batcher. window <= 0 degenerates to immediate
// per-request flushes; maxBatch < 1 is treated as 1.
func NewBatcher(window time.Duration, maxBatch, maxQueue int, m *Metrics) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxQueue < 1 {
		maxQueue = 1
	}
	if m == nil {
		m = NewMetrics()
	}
	return &Batcher{
		window:   window,
		maxBatch: maxBatch,
		maxQueue: maxQueue,
		kernels:  core.BatchKernels(),
		pending:  make(map[batchKey]*batch),
		metrics:  m,
	}
}

// Kernel returns the batch kernel owning p and p's shape bucket, or
// ok=false when no kernel accepts it (the problem stays on the general
// pool). The server's dispatch uses this to route p.
func (b *Batcher) Kernel(p core.Problem) (core.BatchKernel, string, bool) {
	for _, k := range b.kernels {
		if shape, ok := k.Shape(p); ok {
			return k, shape, true
		}
	}
	return nil, "", false
}

// Submit enqueues one batchable problem and blocks until its batch
// flushes (or ctx is done). Returns ErrBusy when maxQueue instances are
// already waiting and ErrShutdown after Close.
func (b *Batcher) Submit(ctx context.Context, p core.Problem) (*core.Solution, error) {
	kernel, shape, ok := b.Kernel(p)
	if !ok {
		return nil, fmt.Errorf("serve: no batch kernel accepts %T", p)
	}
	key := batchKey{kind: kernel.Kind(), shape: shape}
	item := &batchItem{
		problem:  p,
		ctx:      ctx,
		ch:       make(chan batchResult, 1),
		enqueued: time.Now(),
		span:     obs.SpanFrom(ctx),
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrShutdown
	}
	if b.inflight >= b.maxQueue {
		b.mu.Unlock()
		return nil, ErrBusy
	}
	b.inflight++
	bt, found := b.pending[key]
	if !found {
		bt = &batch{key: key, kernel: kernel}
		b.pending[key] = bt
		if b.window > 0 && b.maxBatch > 1 {
			bt.timer = time.AfterFunc(b.window, func() { b.flushKey(key, bt) })
		}
	}
	bt.items = append(bt.items, item)
	full := len(bt.items) >= b.maxBatch || b.window <= 0
	if full {
		b.detachLocked(key, bt)
		b.wg.Add(1) // registered under b.mu — see runFlush
	}
	b.mu.Unlock()
	if full {
		if b.testPreFlush != nil {
			b.testPreFlush()
		}
		b.runFlush(bt)
	}

	select {
	case r := <-item.ch:
		return r.sol, r.err
	case <-ctx.Done():
		// Free the admission slot now rather than at the window flush: a
		// burst of cancellations must not hold maxQueue hostage (spurious
		// 429s) for the rest of the collection window. The flush will
		// still see ctx.Err() and skip the item; releaseSlot is idempotent
		// so the two paths cannot double-free.
		b.releaseSlot(item)
		return nil, ctx.Err()
	}
}

// releaseSlot frees item's admission slot exactly once, whichever of the
// cancelling submitter or the flush gets there first.
func (b *Batcher) releaseSlot(it *batchItem) {
	b.mu.Lock()
	if !it.released {
		it.released = true
		b.inflight--
	}
	b.mu.Unlock()
}

// detachLocked removes bt from the pending map and stops its timer.
// Callers hold b.mu.
func (b *Batcher) detachLocked(key batchKey, bt *batch) {
	if b.pending[key] == bt {
		delete(b.pending, key)
	}
	if bt.timer != nil {
		bt.timer.Stop()
	}
}

// flushKey is the timer path: flush bt if it is still pending.
func (b *Batcher) flushKey(key batchKey, bt *batch) {
	b.mu.Lock()
	if b.pending[key] != bt {
		b.mu.Unlock()
		return // already flushed on the size trigger
	}
	b.detachLocked(key, bt)
	b.wg.Add(1)
	b.mu.Unlock()
	b.runFlush(bt)
}

// runFlush runs one flush registered with the WaitGroup. The wg.Add(1)
// MUST have happened under b.mu, before the closed flag could have been
// observed unset: doing it here (after the mutex is released) races
// Close — Close can set closed, find no pending work, and reach wg.Wait
// before the Add lands, which is the documented WaitGroup misuse and
// lets a flush outlive Close.
func (b *Batcher) runFlush(bt *batch) {
	go func() {
		defer b.wg.Done()
		b.flush(bt)
	}()
}

// flush runs one batch kernel call and delivers each instance's
// result. Items whose submitter already gave up (ctx done) are dropped at
// assembly: their slots are released immediately, they consume no kernel
// cycles, and no spans are recorded for them — the submitter has long
// since returned ctx.Err(). A batch whose items ALL abandoned skips the
// kernel entirely. Stage accounting for live items: each item's
// queue_wait is its enqueue -> flush start; the flush's batch_assembly is
// the oldest item's wait (what the batching window added to tail
// latency); solve is the shared kernel run.
func (b *Batcher) flush(bt *batch) {
	flushStart := time.Now()
	live := make([]*batchItem, 0, len(bt.items))
	for _, it := range bt.items {
		if it.ctx.Err() != nil {
			continue
		}
		live = append(live, it)
	}
	if abandoned := len(bt.items) - len(live); abandoned > 0 {
		b.metrics.BatchAbandoned.Add(int64(abandoned))
		for _, it := range bt.items {
			if it.ctx.Err() != nil {
				b.releaseSlot(it) // usually a no-op: the submitter released eagerly
			}
		}
	}
	if len(live) == 0 {
		return // nothing left to solve: the kernel never spins up
	}
	ps := make([]core.Problem, len(live))
	earliest := flushStart
	for i, it := range live {
		ps[i] = it.problem
		if it.enqueued.Before(earliest) {
			earliest = it.enqueued
		}
	}
	solveStart := time.Now()
	// The batch run executes in a detached goroutine: a panic here would
	// take down the whole process and strand every waiting submitter, so
	// it is converted to a per-item error instead.
	sols, err := func() (sols []*core.Solution, err error) {
		defer func() {
			if r := recover(); r != nil {
				sols, err = nil, fmt.Errorf("serve: batch solve panicked: %v", r)
			}
		}()
		solve := b.solveBatch
		if solve == nil {
			solve = core.BatchKernel.Solve
		}
		return solve(bt.kernel, ps)
	}()
	solveEnd := time.Now()
	b.metrics.Batches.Inc()
	b.metrics.Batched.Add(int64(len(live)))
	b.metrics.BatchOccupancy.With(bt.key.kind).Observe(float64(len(live)))
	b.metrics.BatchAssemblySeconds.Observe(flushStart.Sub(earliest).Seconds())
	if b.admit != nil && err == nil {
		// Calibrate the admission model with the batch's summed closed-form
		// units over its wall time, under the members' own kind, so a
		// batched request and an unbatched one feed and use one rate.
		kind, units := ps[0].Work()
		for _, p := range ps[1:] {
			_, u := p.Work()
			units += u
		}
		b.admit.Observe(kind, units, solveEnd.Sub(solveStart).Seconds())
	}
	for _, it := range live {
		b.releaseSlot(it)
	}
	for i, it := range live {
		b.metrics.QueueWaitSeconds.Observe(flushStart.Sub(it.enqueued).Seconds())
		it.span.Observe("queue_wait", it.enqueued, flushStart)
		it.span.Observe("batch_assembly", flushStart, solveStart)
		it.span.Observe("solve", solveStart, solveEnd)
		if err != nil {
			it.ch <- batchResult{err: err}
		} else {
			it.ch <- batchResult{sol: sols[i]}
		}
	}
}

// SetAdmitter points batch-solve rate observations at the admission
// controller's calibration. Call before serving.
func (b *Batcher) SetAdmitter(a *Admitter) { b.admit = a }

// Close flushes every pending batch, waits for outstanding flushes, and
// rejects subsequent Submits with ErrShutdown.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	remaining := make([]*batch, 0, len(b.pending))
	for key, bt := range b.pending {
		b.detachLocked(key, bt)
		remaining = append(remaining, bt)
	}
	b.wg.Add(len(remaining))
	b.mu.Unlock()
	for _, bt := range remaining {
		b.runFlush(bt)
	}
	b.wg.Wait()
}
