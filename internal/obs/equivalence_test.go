package obs

import (
	"math/rand"
	"reflect"
	"testing"

	"systolicdp/internal/bcastarray"
	"systolicdp/internal/fbarray"
	"systolicdp/internal/multistage"
	"systolicdp/internal/pipearray"
	"systolicdp/internal/semiring"
)

// These are the runner-equivalence tests on the real designs, at odd and
// even PE counts. For the same array, the lock-step and goroutine runners
// must produce identical per-PE busy-span totals in the exported trace,
// and those totals must equal the engine's own Result busy counts
// (Design*RunnerBusyEquivalence); the goroutine runner, the arrays'
// parallel engine, must also reach the same answer as the sequential
// lock-step schedule (Design*ParallelEngineEquivalence).

// graphInstance draws a single-source/sink graph with m nodes in each of
// its three inner stages and returns its final vector and the graph.
func graphInstance(t *testing.T, seed int64, m int) ([]float64, *multistage.Graph) {
	t.Helper()
	mp := semiring.MinPlus{}
	rng := rand.New(rand.NewSource(seed))
	inner := multistage.RandomUniform(rng, 3, m, 1, 10)
	g := multistage.SingleSourceSink(mp, inner)
	mats := g.Matrices()
	return mats[len(mats)-1].Col(0), g
}

func TestDesign1RunnerBusyEquivalence(t *testing.T) {
	for _, m := range []int{3, 4} {
		v, g := graphInstance(t, 7, m)
		mats := g.Matrices()
		build := func() *pipearray.Array {
			arr, err := pipearray.New(mats[:len(mats)-1], v)
			if err != nil {
				t.Fatal(err)
			}
			return arr
		}

		arr := build()
		lock := NewCycleRecorder(arr.M, arr.ObservedCycles())
		_, resLock, err := arr.RunObserved(false, lock.WireTrace(), lock.PETrace())
		if err != nil {
			t.Fatal(err)
		}
		goro := NewCycleRecorder(arr.M, arr.ObservedCycles())
		_, resGoro, err := build().RunObserved(true, nil, goro.PETrace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lock.BusyTotals(), goro.BusyTotals()) {
			t.Errorf("m=%d: design 1 busy-span totals differ: lockstep %v goroutines %v", m, lock.BusyTotals(), goro.BusyTotals())
		}
		if !reflect.DeepEqual(lock.BusyTotals(), resLock.Busy) || !reflect.DeepEqual(goro.BusyTotals(), resGoro.Busy) {
			t.Errorf("m=%d: recorder totals diverge from engine Result busy counts", m)
		}
		// Wire trace on the goroutine runner must be rejected loudly.
		if _, _, err := build().RunObserved(true, lock.WireTrace(), nil); err == nil {
			t.Error("goroutine runner accepted a wire trace")
		}
	}
}

func TestDesign2RunnerBusyEquivalence(t *testing.T) {
	for _, m := range []int{3, 4} {
		v, g := graphInstance(t, 11, m)
		mats := g.Matrices()
		arr, err := bcastarray.New(mats[:len(mats)-1], v)
		if err != nil {
			t.Fatal(err)
		}
		lock := NewCycleRecorder(arr.M, arr.ObservedCycles())
		_, busyLock := arr.RunLockstepObserved(lock.PETrace())
		goro := NewCycleRecorder(arr.M, arr.ObservedCycles())
		_, busyGoro := arr.RunGoroutinesObserved(goro.PETrace())
		if !reflect.DeepEqual(lock.BusyTotals(), goro.BusyTotals()) {
			t.Errorf("m=%d: design 2 busy-span totals differ: lockstep %v goroutines %v", m, lock.BusyTotals(), goro.BusyTotals())
		}
		if !reflect.DeepEqual(lock.BusyTotals(), busyLock) || !reflect.DeepEqual(goro.BusyTotals(), busyGoro) {
			t.Errorf("m=%d: recorder totals diverge from runner busy counts", m)
		}
	}
}

func TestDesign3RunnerBusyEquivalence(t *testing.T) {
	for _, m := range []int{3, 4} {
		rng := rand.New(rand.NewSource(5))
		p := multistage.RandomNodeValued(rng, 4, m, 0, 10)
		build := func() *fbarray.Array {
			arr, err := fbarray.New(p)
			if err != nil {
				t.Fatal(err)
			}
			return arr
		}
		arr := build()
		lock := NewCycleRecorder(arr.M, arr.ObservedCycles())
		resLock, err := arr.RunObserved(false, lock.WireTrace(), lock.PETrace())
		if err != nil {
			t.Fatal(err)
		}
		goro := NewCycleRecorder(arr.M, arr.ObservedCycles())
		resGoro, err := build().RunObserved(true, nil, goro.PETrace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lock.BusyTotals(), goro.BusyTotals()) {
			t.Errorf("m=%d: design 3 busy-span totals differ: lockstep %v goroutines %v", m, lock.BusyTotals(), goro.BusyTotals())
		}
		if !reflect.DeepEqual(lock.BusyTotals(), resLock.Busy) || !reflect.DeepEqual(goro.BusyTotals(), resGoro.Busy) {
			t.Errorf("m=%d: recorder totals diverge from engine Result busy counts", m)
		}
		if resLock.Cost != resGoro.Cost {
			t.Errorf("m=%d: costs diverge under observation: %v vs %v", m, resLock.Cost, resGoro.Cost)
		}
	}
}

func TestDesign1ParallelEngineEquivalence(t *testing.T) {
	for _, m := range []int{3, 4} {
		v, g := graphInstance(t, 7, m)
		mats := g.Matrices()
		build := func() *pipearray.Array {
			arr, err := pipearray.New(mats[:len(mats)-1], v)
			if err != nil {
				t.Fatal(err)
			}
			return arr
		}
		seq := build()
		seqRec := NewCycleRecorder(seq.M, seq.ObservedCycles())
		seqOut, seqRes, err := seq.RunObserved(false, nil, seqRec.PETrace())
		if err != nil {
			t.Fatal(err)
		}
		goroOut, goroRes, err := build().RunObserved(true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqOut, goroOut) {
			t.Errorf("m=%d: outputs %v, want %v", m, goroOut, seqOut)
		}
		if seqRes.Cycles != goroRes.Cycles || !reflect.DeepEqual(seqRes.Busy, goroRes.Busy) {
			t.Errorf("m=%d: goroutine runner took %d cycles with busy %v, lock-step %d with busy %v",
				m, goroRes.Cycles, goroRes.Busy, seqRes.Cycles, seqRes.Busy)
		}
		if !reflect.DeepEqual(seqRec.BusyTotals(), goroRes.Busy) {
			t.Errorf("m=%d: goroutine busy %v, want traced lock-step totals %v", m, goroRes.Busy, seqRec.BusyTotals())
		}
	}
}

func TestDesign2ParallelEngineEquivalence(t *testing.T) {
	for _, m := range []int{3, 4} {
		v, g := graphInstance(t, 11, m)
		mats := g.Matrices()
		arr, err := bcastarray.New(mats[:len(mats)-1], v)
		if err != nil {
			t.Fatal(err)
		}
		seqRec := NewCycleRecorder(arr.M, arr.ObservedCycles())
		seqOut, seqBusy := arr.RunLockstepObserved(seqRec.PETrace())
		goroOut, goroBusy := arr.RunGoroutinesObserved(nil)
		if !reflect.DeepEqual(seqOut, goroOut) {
			t.Errorf("m=%d: outputs %v, want %v", m, goroOut, seqOut)
		}
		if !reflect.DeepEqual(seqBusy, goroBusy) {
			t.Errorf("m=%d: busy %v, want %v", m, goroBusy, seqBusy)
		}
		if !reflect.DeepEqual(seqRec.BusyTotals(), goroBusy) {
			t.Errorf("m=%d: goroutine busy %v, want traced lock-step totals %v", m, goroBusy, seqRec.BusyTotals())
		}
	}
}

func TestDesign3ParallelEngineEquivalence(t *testing.T) {
	for _, m := range []int{3, 4} {
		rng := rand.New(rand.NewSource(5))
		p := multistage.RandomNodeValued(rng, 4, m, 0, 10)
		build := func() *fbarray.Array {
			arr, err := fbarray.New(p)
			if err != nil {
				t.Fatal(err)
			}
			return arr
		}
		seq := build()
		seqRec := NewCycleRecorder(seq.M, seq.ObservedCycles())
		seqRes, err := seq.RunObserved(false, nil, seqRec.PETrace())
		if err != nil {
			t.Fatal(err)
		}
		goroRes, err := build().RunObserved(true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqRes, goroRes) {
			t.Errorf("m=%d: goroutine Result %+v, want %+v", m, goroRes, seqRes)
		}
		if !reflect.DeepEqual(seqRec.BusyTotals(), goroRes.Busy) {
			t.Errorf("m=%d: goroutine busy %v, want traced lock-step totals %v", m, goroRes.Busy, seqRec.BusyTotals())
		}
	}
}
