package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
)

func testGraph(seed int64, stages, m int) *multistage.Graph {
	rng := rand.New(rand.NewSource(seed))
	inner := multistage.RandomUniform(rng, stages, m, 1, 10)
	return multistage.SingleSourceSink(semiring.MinPlus{}, inner)
}

// A streamed batch must agree with per-instance Design-1 solves.
func TestSolveGraphBatchMatchesSingle(t *testing.T) {
	var gs []*multistage.Graph
	for seed := int64(1); seed <= 4; seed++ {
		gs = append(gs, testGraph(seed, 5, 4))
	}
	batch, err := SolveGraphBatch(gs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(gs) {
		t.Fatalf("got %d solutions, want %d", len(batch), len(gs))
	}
	for i, g := range gs {
		single, err := Solve(&MultistageProblem{Graph: g, Design: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batch[i].Cost-single.Cost) > 1e-9 {
			t.Errorf("graph %d: batch cost %v, single cost %v", i, batch[i].Cost, single.Cost)
		}
	}
}

func TestSolveGraphBatchRejectsMixedShapes(t *testing.T) {
	gs := []*multistage.Graph{testGraph(1, 5, 4), testGraph(2, 5, 3)}
	if _, err := SolveGraphBatch(gs); err == nil {
		t.Fatal("mixed-shape batch should fail")
	}
	if _, err := SolveGraphBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
}

func TestSolveCtx(t *testing.T) {
	g := testGraph(7, 5, 4)
	p := &MultistageProblem{Graph: g, Design: 1}

	sol, err := SolveCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Solve(p)
	if sol.Cost != want.Cost {
		t.Errorf("SolveCtx cost %v, want %v", sol.Cost, want.Cost)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, p); err != context.Canceled {
		t.Errorf("cancelled SolveCtx err = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if _, err := SolveCtx(ctx2, p); err != context.DeadlineExceeded {
		t.Errorf("expired SolveCtx err = %v, want context.DeadlineExceeded", err)
	}
}

func TestDTWProblemViaSolve(t *testing.T) {
	p := &DTWProblem{X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 1, 2, 3}}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Errorf("warping identical shapes should cost 0, got %v", sol.Cost)
	}
	if sol.Class.String() != "monadic-serial" {
		t.Errorf("class %v", sol.Class)
	}
}

// panicProblem explodes as soon as Solve touches it.
type panicProblem struct{}

func (panicProblem) Classify() Class         { panic("malformed problem state") }
func (panicProblem) Describe() string        { return "panic stub" }
func (panicProblem) Work() (string, float64) { return "panic", 1 }

// Regression: a panic inside the detached solve goroutine used to crash
// the whole process, since no caller can recover a panic on a goroutine
// it did not start; it must surface as an ordinary error instead.
func TestSolveCtxRecoversPanic(t *testing.T) {
	sol, err := SolveCtx(context.Background(), panicProblem{})
	if sol != nil || err == nil {
		t.Fatalf("SolveCtx = (%v, %v), want nil solution and panic-derived error", sol, err)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("err = %v, want mention of panic", err)
	}
}
