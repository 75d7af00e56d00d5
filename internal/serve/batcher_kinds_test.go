package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"systolicdp/internal/core"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
)

// stagedGraph builds a Design-1 problem over explicit stage sizes, so
// tests can construct shape collisions deliberately.
func stagedGraph(seed int64, stageSizes []int) *core.MultistageProblem {
	rng := rand.New(rand.NewSource(seed))
	inner := multistage.Random(rng, stageSizes, 1, 10)
	return &core.MultistageProblem{Graph: multistage.SingleSourceSink(semiring.MinPlus{}, inner), Design: 1}
}

type batchCase struct {
	kind string
	mk   func(salt int) core.Problem
}

// batchCases pairs every registered batch kernel with a maker of
// batchable instances of its kind; salt perturbs values, not shapes, so
// instances co-bucket. A kernel without a maker fails the test, so no
// kernel goes untested by the per-kind tests below.
func batchCases(t *testing.T) []batchCase {
	t.Helper()
	makers := map[string]func(salt int) core.Problem{
		"graph-stream": func(s int) core.Problem { return batchGraph(int64(s+1), 5, 4) },
	}
	var cases []batchCase
	for _, k := range core.BatchKernels() {
		mk, ok := makers[k.Kind()]
		if !ok {
			t.Fatalf("batch kernel %q has no instance maker in batchCases", k.Kind())
		}
		cases = append(cases, batchCase{k.Kind(), mk})
	}
	return cases
}

// Regression test for the shape-key bug: the old bucket key was
// {m, matrixCount, Ms[0].Rows}, taking the row count from the FIRST
// stage matrix only. A non-uniform Design-1 graph (one narrow middle
// stage) can agree with a valid uniform graph on all three — while its
// middle matrix is not m×m, which Design 1 cannot run (pipearray.NewStream
// rejected the batch; the kernel's per-member Solve now refuses it in
// Validate). Under the old key the two co-bucketed and the whole batch
// failed, so the VALID request errored collaterally. The full per-matrix
// profile key puts them in different buckets, flushed apart: the valid
// graph solves, the invalid one fails alone.
func TestBatcherShapeKeyUsesFullProfile(t *testing.T) {
	good := batchGraph(1, 5, 4)                 // uniform: every matrix m×m
	bad := stagedGraph(2, []int{4, 4, 3, 4, 4}) // 4x3 middle matrix, same m/k/rows
	for _, p := range []*core.MultistageProblem{good, bad} {
		if _, ok := (core.GraphStreamKernel{}).Shape(p); !ok {
			t.Fatalf("graph rejected by kernel shape: %v", p.Describe())
		}
	}

	// Precondition guard: the two problems must actually collide under
	// the old key, or this test stops testing the regression.
	spG, err := core.StreamProblemFromGraph(good.Graph)
	if err != nil {
		t.Fatal(err)
	}
	spB, err := core.StreamProblemFromGraph(bad.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(spG.V) != len(spB.V) || len(spG.Ms) != len(spB.Ms) || spG.Ms[0].Rows != spB.Ms[0].Rows {
		t.Fatalf("test graphs no longer collide under the old {m,k,rows} key: v=%d/%d k=%d/%d rows=%d/%d",
			len(spG.V), len(spB.V), len(spG.Ms), len(spB.Ms), spG.Ms[0].Rows, spB.Ms[0].Rows)
	}
	var kern core.GraphStreamKernel
	shapeG, _ := kern.Shape(good)
	shapeB, _ := kern.Shape(bad)
	if shapeG == shapeB {
		t.Fatalf("full-profile shapes identical for different middle stages: %q", shapeG)
	}

	met := NewMetrics()
	batcher := NewBatcher(60*time.Millisecond, 16, 100, met)
	defer batcher.Close()

	var wg sync.WaitGroup
	var goodSol *core.Solution
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodSol, goodErr = batcher.Submit(context.Background(), good)
	}()
	go func() {
		defer wg.Done()
		_, badErr = batcher.Submit(context.Background(), bad)
	}()
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("valid graph failed collaterally from a colliding bucket: %v", goodErr)
	}
	want, err := core.Solve(good)
	if err != nil {
		t.Fatal(err)
	}
	if goodSol.Cost != want.Cost {
		t.Errorf("valid graph: batched cost %v, want %v", goodSol.Cost, want.Cost)
	}
	if badErr == nil {
		t.Error("non-uniform graph solved as Design 1 — expected its own bucket to fail")
	}
	// Two buckets, two flushes: the shapes never shared a kernel run.
	if got := met.Batches.Value(); got != 2 {
		t.Errorf("flushes = %d, want 2 (one per shape bucket)", got)
	}
}

// Every batch kernel round-trips through the batcher: co-windowed
// same-shape instances of each kind flush as ONE kernel run, every
// waiter gets its own instance's answer, answers are bitwise equal to the
// sequential solver's, and occupancy is recorded under the kernel's kind.
func TestBatcherAllKindsRoundTrip(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.kind, func(t *testing.T) {
			met := NewMetrics()
			b := NewBatcher(60*time.Millisecond, 16, 100, met)
			defer b.Close()

			const n = 3
			ps := make([]core.Problem, n)
			for i := range ps {
				ps[i] = tc.mk(i)
			}
			var wg sync.WaitGroup
			sols := make([]*core.Solution, n)
			for i := range ps {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sol, err := b.Submit(context.Background(), ps[i])
					if err != nil {
						t.Error(err)
						return
					}
					sols[i] = sol
				}(i)
			}
			wg.Wait()
			if got := met.Batches.Value(); got != 1 {
				t.Errorf("flushes = %d, want 1 (same shape, one window)", got)
			}
			h := met.BatchOccupancy.With(tc.kind)
			if h.Count() != 1 || h.Sum() != n {
				t.Errorf("occupancy under %q = (count %d, sum %v), want (1, %d)", tc.kind, h.Count(), h.Sum(), n)
			}
			for i := range ps {
				want, err := core.Solve(ps[i])
				if err != nil {
					t.Fatal(err)
				}
				if sols[i] == nil || sols[i].Cost != want.Cost {
					t.Errorf("instance %d: batched cost %+v, want bitwise %v", i, sols[i], want.Cost)
				}
				if want.Ordering != "" && sols[i].Ordering != want.Ordering {
					t.Errorf("instance %d: ordering %q, want %q", i, sols[i].Ordering, want.Ordering)
				}
			}
		})
	}
}

// Cancellation safety holds for every batch kernel (run under -race): a
// cancelled submitter frees its admission slot eagerly, the flush drops
// it without solving it, and survivors in the same bucket still get
// answers bitwise equal to the sequential solver's.
func TestBatcherCancelPerKind(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.kind, func(t *testing.T) {
			met := NewMetrics()
			b := NewBatcher(80*time.Millisecond, 16, 100, met)
			defer b.Close()

			ctx, cancel := context.WithCancel(context.Background())
			cancelled := make(chan error, 1)
			go func() {
				_, err := b.Submit(ctx, tc.mk(0))
				cancelled <- err
			}()
			type res struct {
				sol *core.Solution
				err error
				p   core.Problem
			}
			live := make(chan res, 2)
			for i := 0; i < 2; i++ {
				go func(i int) {
					p := tc.mk(i + 1)
					sol, err := b.Submit(context.Background(), p)
					live <- res{sol, err, p}
				}(i)
			}
			time.Sleep(20 * time.Millisecond) // all three admitted, window open
			cancel()
			if err := <-cancelled; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Submit returned %v, want context.Canceled", err)
			}
			// Eager release: the slot is back before the window flush fires.
			b.mu.Lock()
			inflight := b.inflight
			b.mu.Unlock()
			if inflight != 2 {
				t.Errorf("inflight after eager cancel = %d, want 2 (survivors only)", inflight)
			}
			for i := 0; i < 2; i++ {
				r := <-live
				if r.err != nil {
					t.Errorf("surviving request failed: %v", r.err)
					continue
				}
				want, err := core.Solve(r.p)
				if err != nil {
					t.Fatal(err)
				}
				if r.sol.Cost != want.Cost {
					t.Errorf("survivor cost %v, want %v", r.sol.Cost, want.Cost)
				}
			}
			if got := met.BatchAbandoned.Value(); got != 1 {
				t.Errorf("abandoned = %d, want 1", got)
			}
			if got := met.BatchOccupancy.With(tc.kind).Sum(); got != 2 {
				t.Errorf("occupancy sum = %v, want 2 (cancelled item not solved)", got)
			}
			b.mu.Lock()
			inflight = b.inflight
			b.mu.Unlock()
			if inflight != 0 {
				t.Errorf("inflight after flush = %d, want 0 (slot leak)", inflight)
			}
		})
	}
}

// An all-cancelled bucket never runs its kernel, for every batch kernel.
func TestBatcherAllCancelledSkipsKernelPerKind(t *testing.T) {
	for _, tc := range batchCases(t) {
		t.Run(tc.kind, func(t *testing.T) {
			met := NewMetrics()
			b := NewBatcher(60*time.Millisecond, 16, 4, met)
			defer b.Close()

			errs := make(chan error, 2)
			ctx, cancel := context.WithCancel(context.Background())
			for i := 0; i < 2; i++ {
				go func(i int) {
					_, err := b.Submit(ctx, tc.mk(i))
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
			deadline := time.After(2 * time.Second)
			for met.BatchAbandoned.Value() != 2 {
				select {
				case <-deadline:
					t.Fatalf("flush never counted abandoned items: %d", met.BatchAbandoned.Value())
				case <-time.After(5 * time.Millisecond):
				}
			}
			if got := met.Batches.Value(); got != 0 {
				t.Errorf("kernel ran for an all-cancelled %s batch (batches = %d)", tc.kind, got)
			}
			if got := met.BatchOccupancy.With(tc.kind).Count(); got != 0 {
				t.Errorf("occupancy observed for a skipped %s flush", tc.kind)
			}
		})
	}
}
