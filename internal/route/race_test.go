package route

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goroutinesSettleTo polls until the goroutine count returns to the
// baseline (runtime bookkeeping and netpoll goroutines settle lazily).
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

// The router's three concurrent activities — request forwarding,
// membership reloads, and prober-driven ejection/readmission — must
// interleave without races, and shutting the router down mid-storm must
// strand no goroutine. Run under -race (CI does).
func TestRouterConcurrentForwardReloadEject(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const nReplicas = 4
	reps := make([]*fakeReplica, nReplicas)
	bases := make([]string, nReplicas)
	for i := range reps {
		reps[i] = newFakeReplica()
		bases[i] = reps[i].base()
		defer reps[i].ts.Close()
	}

	rt, err := New(Config{
		Replicas:       bases,
		Replication:    2,
		HealthInterval: 5 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Forwarders: distinct keys, constantly.
	var ok200, other atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				resp, err := http.Post(ts.URL+"/solve", "application/json",
					strings.NewReader(chainBody(w*10_000+i)))
				if err != nil {
					continue
				}
				drainBody(resp)
				if resp.StatusCode == http.StatusOK {
					ok200.Add(1)
				} else {
					other.Add(1)
				}
			}
		}(w)
	}

	// Membership churn: flip between the full fleet and a subset.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				rt.SetReplicas(bases[:3])
			} else {
				rt.SetReplicas(bases)
			}
			time.Sleep(7 * time.Millisecond)
		}
	}()

	// Health churn: one replica flaps, driving ejection/readmission
	// through the prober while forwards race it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			reps[1].unwell.Store(i%2 == 0)
			time.Sleep(11 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no request succeeded during the churn storm")
	}
	// Requests racing a flapping replica may fail over or 502/503; what
	// they must never do is hang or corrupt state. Shut down and assert
	// every goroutine is accounted for (the fake replicas close first so
	// only router-owned goroutines can be the leak).
	ts.Close()
	rt.Close()
	for _, rep := range reps {
		rep.ts.Close()
	}
	if n, leaked := goroutinesSettleTo(baseline, 5*time.Second); !leaked {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked after router shutdown: %d > baseline %d\n%s", n, baseline, buf)
	}
}

// Close during active traffic must wait for in-flight forwards, refuse
// new ones, and leave nothing behind — even when called from several
// goroutines at once.
func TestRouterCloseRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a := newFakeReplica()
	a.stall.Store(20)
	defer a.ts.Close()

	rt, err := New(Config{Replicas: []string{a.base()}, HealthInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(chainBody(i)))
			if err == nil {
				drainBody(resp)
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	var closers sync.WaitGroup
	for i := 0; i < 4; i++ {
		closers.Add(1)
		go func() { defer closers.Done(); rt.Close() }()
	}
	closers.Wait()
	wg.Wait()
	ts.Close()
	a.ts.Close()
	if n, settled := goroutinesSettleTo(baseline, 5*time.Second); !settled {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked racing Close: %d > baseline %d\n%s", n, baseline, buf)
	}
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
