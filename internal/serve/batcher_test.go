package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"systolicdp/internal/core"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
)

func batchGraph(seed int64, stages, m int) *core.MultistageProblem {
	rng := rand.New(rand.NewSource(seed))
	inner := multistage.RandomUniform(rng, stages, m, 1, 10)
	return &core.MultistageProblem{Graph: multistage.SingleSourceSink(semiring.MinPlus{}, inner), Design: 1}
}

// Instances arriving inside one window flush together; each waiter gets
// its own instance's solution.
func TestBatcherFlushOnWindow(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(60*time.Millisecond, 16, 100, met)
	defer b.Close()

	const n = 3
	gs := make([]*core.MultistageProblem, n)
	for i := range gs {
		gs[i] = batchGraph(int64(i+1), 5, 4)
	}
	var wg sync.WaitGroup
	sols := make([]*core.Solution, n)
	for i := range gs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sol, err := b.Submit(context.Background(), gs[i])
			if err != nil {
				t.Error(err)
				return
			}
			sols[i] = sol
		}(i)
	}
	wg.Wait()
	if got := met.Batches.Value(); got != 1 {
		t.Errorf("flushes = %d, want 1 (window batch)", got)
	}
	if got := met.Batched.Value(); got != n {
		t.Errorf("batched instances = %d, want %d", got, n)
	}
	for i, g := range gs {
		want, err := core.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sols[i].Cost-want.Cost) > 1e-9 {
			t.Errorf("instance %d: batched cost %v, want %v", i, sols[i].Cost, want.Cost)
		}
	}
}

// Hitting maxBatch flushes immediately, long before the window elapses.
func TestBatcherFlushOnFull(t *testing.T) {
	met := NewMetrics()
	const maxBatch = 4
	b := NewBatcher(5*time.Second, maxBatch, 100, met)
	defer b.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < maxBatch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), batchGraph(int64(i+1), 5, 4)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("size-triggered flush took %v; should not wait for the window", elapsed)
	}
	if got := met.Batches.Value(); got != 1 {
		t.Errorf("flushes = %d, want 1", got)
	}
	if got := met.BatchOccupancy.With("graph-stream").Sum(); got != maxBatch {
		t.Errorf("occupancy sum = %v, want %v", got, maxBatch)
	}
}

// Different graph shapes never share a stream; they flush as separate
// batches.
func TestBatcherShardsByShape(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(40*time.Millisecond, 16, 100, met)
	defer b.Close()

	var wg sync.WaitGroup
	for _, g := range []*core.MultistageProblem{batchGraph(1, 5, 4), batchGraph(2, 5, 3)} {
		wg.Add(1)
		go func(g *core.MultistageProblem) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if got := met.Batches.Value(); got != 2 {
		t.Errorf("flushes = %d, want 2 (one per shape)", got)
	}
}

// Over-admission is rejected with ErrBusy while the window is still open.
func TestBatcherBackpressure(t *testing.T) {
	b := NewBatcher(200*time.Millisecond, 64, 2, NewMetrics())
	defer b.Close()

	results := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Submit(context.Background(), batchGraph(int64(i+1), 5, 4))
			results <- err
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // both admitted, window still open
	if _, err := b.Submit(context.Background(), batchGraph(9, 5, 4)); err != ErrBusy {
		t.Errorf("over-admission err = %v, want ErrBusy", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
}

// Close flushes pending work instead of stranding waiters, then rejects
// new submissions.
func TestBatcherCloseDrains(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(10*time.Second, 16, 100, met) // window too long to fire
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), batchGraph(1, 5, 4))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drained request failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not flush the pending batch")
	}
	if _, err := b.Submit(context.Background(), batchGraph(2, 5, 4)); err != ErrShutdown {
		t.Errorf("post-Close err = %v, want ErrShutdown", err)
	}
}

// A caller whose context expires before the flush is unblocked by ctx.
func TestBatcherSubmitTimeout(t *testing.T) {
	b := NewBatcher(5*time.Second, 16, 100, NewMetrics())
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(ctx, batchGraph(1, 5, 4)); err != context.DeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

// Regression (deterministic): Submit used to call wg.Add(1) for a
// size-triggered flush AFTER releasing b.mu, so Close could set closed,
// find nothing pending, and return from wg.Wait before the Add landed —
// a WaitGroup misuse that let the flush outlive Close. The testPreFlush
// seam parks the submitter exactly in that window; Close must block
// until the admitted flush completes.
func TestBatcherCloseWaitsForAdmittedFlush(t *testing.T) {
	b := NewBatcher(time.Hour, 1, 100, NewMetrics())
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	b.testPreFlush = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	subErr := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), batchGraph(1, 4, 3))
		subErr <- err
	}()
	<-entered // the submitter holds a slot; its flush is not yet spawned

	closeDone := make(chan struct{})
	go func() {
		b.Close()
		close(closeDone)
	}()
	time.Sleep(20 * time.Millisecond) // let Close reach wg.Wait
	select {
	case <-closeDone:
		t.Fatal("Close returned while an admitted flush had not run: the flush escaped wg.Wait")
	default:
	}
	close(release)
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the flush was released")
	}
	if err := <-subErr; err != nil {
		t.Errorf("admitted submit err = %v, want its flushed solution", err)
	}
	b.mu.Lock()
	inflight := b.inflight
	b.mu.Unlock()
	if inflight != 0 {
		t.Errorf("inflight = %d after Close, want 0", inflight)
	}
}

// The same race, probabilistically: loop Submit-vs-Close churn under
// -race. Every admitted flush must complete before Close returns
// (observable as inflight == 0 at that instant: an escaped flush would
// not yet have released its slots).
func TestBatcherCloseSubmitRace(t *testing.T) {
	for round := 0; round < 200; round++ {
		// maxBatch 1 makes every Submit take the size-trigger path.
		b := NewBatcher(time.Hour, 1, 100, NewMetrics())
		const subs = 4
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := b.Submit(context.Background(), batchGraph(int64(i+1), 4, 3))
				if err != nil && err != ErrShutdown {
					t.Errorf("round %d submit %d: %v", round, i, err)
				}
			}(i)
		}
		b.Close()
		b.mu.Lock()
		inflight := b.inflight
		b.mu.Unlock()
		if inflight != 0 {
			t.Fatalf("round %d: inflight = %d immediately after Close; a flush escaped Close's wg.Wait", round, inflight)
		}
		wg.Wait()
	}
}

// Regression: a submitter that returned on ctx.Done used to stay counted
// in inflight until the window flush, so a burst of cancellations caused
// spurious 429s for up to a full batch window. The slot must come back
// the moment Submit returns.
func TestBatcherCancelledReleasesSlotEagerly(t *testing.T) {
	const quota = 3
	// Window far longer than the test: if release waited for the flush,
	// the final Submit below would see ErrBusy.
	b := NewBatcher(time.Hour, 64, quota, NewMetrics())
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, quota)
	for i := 0; i < quota; i++ {
		go func(i int) {
			_, err := b.Submit(ctx, batchGraph(int64(i+1), 4, 3))
			errs <- err
		}(i)
	}
	// Wait until all three hold slots, then cancel them.
	deadline := time.After(2 * time.Second)
	for {
		b.mu.Lock()
		n := b.inflight
		b.mu.Unlock()
		if n == quota {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("submitters never admitted: inflight = %d", n)
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := b.Submit(context.Background(), batchGraph(9, 4, 3)); err != ErrBusy {
		t.Fatalf("pre-cancel over-quota err = %v, want ErrBusy", err)
	}
	cancel()
	for i := 0; i < quota; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled submit err = %v, want context.Canceled", err)
		}
	}
	// All cancelled submitters have returned: their slots must already be
	// free, with the window still hours from flushing.
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), batchGraph(10, 4, 3))
		done <- err
	}()
	b.mu.Lock()
	inflight := b.inflight
	b.mu.Unlock()
	if inflight >= quota {
		t.Errorf("inflight = %d after all submitters cancelled, want < %d (eager release)", inflight, quota)
	}
	// The new Submit was admitted (it is waiting on its window, not
	// rejected): give it a moment to either fail fast or park.
	select {
	case err := <-done:
		t.Fatalf("post-cancel Submit returned early: %v (want admission + window wait)", err)
	case <-time.After(100 * time.Millisecond):
	}
}

// Regression: a panic during the batch solve ran in a detached flush
// goroutine and crashed the whole process, stranding every submitter. It
// must be delivered to each live item as an error, with the inflight
// slots released so the batcher keeps serving.
func TestBatcherFlushPanicDeliversErrors(t *testing.T) {
	met := NewMetrics()
	b := NewBatcher(20*time.Millisecond, 16, 4, met)
	defer b.Close()
	b.solveBatch = func(core.BatchKernel, []core.Problem) ([]*core.Solution, *core.BatchStats, error) {
		panic("engine blew up")
	}

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), batchGraph(int64(i+1), 4, 3))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Errorf("submitter %d err = %v, want panic-derived error", i, err)
		}
	}

	// Slots were released and the batcher still works with a healthy engine.
	b.solveBatch = nil
	g := batchGraph(99, 4, 3)
	sol, err := b.Submit(context.Background(), g)
	if err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	want, err := core.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != want.Cost {
		t.Errorf("post-panic cost %v, want %v", sol.Cost, want.Cost)
	}
}
