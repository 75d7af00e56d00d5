package arena

import (
	"sync"
	"testing"
)

type ws struct {
	buf   []float64
	stamp int64
}

func TestGrowHelpers(t *testing.T) {
	f := Floats(nil, 8)
	if len(f) != 8 {
		t.Fatalf("Floats len = %d", len(f))
	}
	f2 := Floats(f, 4)
	if &f2[0] != &f[0] {
		t.Fatalf("Floats reallocated when capacity sufficed")
	}
	i := Ints(nil, 3)
	if len(Ints(i, 9)) != 9 {
		t.Fatalf("Ints did not grow")
	}
}

// solveInto simulates a kernel writing its workspace then maybe
// panicking midway: on the failure path the workspace holds a poisoned
// half-written state and must NOT reach the pool.
func solveInto(w *ws, id int64, poison bool) {
	for i := range w.buf {
		w.buf[i] = float64(id)
	}
	w.stamp = id
	if poison {
		panic("kernel failure after partial write")
	}
}

// TestPoisonedWorkspaceDropped is the arena-recycling poisoning audit:
// it interleaves panicking solves with clean solves on one shared
// sync.Pool under the race detector, following the package's checkout
// pattern (Put only on the clean path). Every workspace observed after
// a Get must be internally consistent — a poisoned buffer that reached
// the pool would surface as a torn (stamp, buf) pair or as a data race
// between the panicking goroutine and the reuser.
func TestPoisonedWorkspaceDropped(t *testing.T) {
	pool := sync.Pool{New: func() any { return &ws{buf: make([]float64, 256)} }}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				id := int64(g*1000 + iter)
				poison := iter%3 == 0
				func() {
					defer func() { recover() }() // the serving tier's panic boundary
					w := pool.Get().(*ws)
					solveInto(w, id, poison)
					// Clean completion only: a panic above skips the Put and
					// the poisoned workspace is dropped to the GC.
					pool.Put(w)
				}()
				// Reuse path: whatever the pool hands out must be wholly
				// written by a single completed solve.
				w := pool.Get().(*ws)
				stamp := w.stamp
				for i, v := range w.buf {
					if v != float64(stamp) && stamp != 0 {
						t.Errorf("poisoned workspace recycled: buf[%d]=%v, stamp=%d", i, v, stamp)
						return
					}
				}
				pool.Put(w)
			}
		}(g)
	}
	wg.Wait()
}
