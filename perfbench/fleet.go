package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"systolicdp/internal/core"
	"systolicdp/internal/route"
	"systolicdp/internal/serve"
)

// The replica defaults (serve.Config's zero value) the traced run's
// replay needs: the result cache's size and the per-solve budget.
const (
	replicaCache   = 1024
	replicaTimeout = 30 * time.Second
)

// maxTracedRPS sizes the replicas' span rings in the traced run so one
// holds every request of the window.
const maxTracedRPS = 20000

// fleet is the system under test, in this process, on loopback: the
// workload's dpserve replicas and, for a routed workload, a dprouter in
// front of them. A traced fleet is the same fleet with each replica's
// span ring sized to hold the window and its Handler, and the router's,
// timed by the tracer.
type fleet struct {
	url      string // where clients send /solve
	servers  []*serve.Server
	router   *route.Router
	https    []*http.Server
	serving  sync.WaitGroup
	spanRing int // the replicas' Config.TraceSpans
}

func startFleet(w *workload, t *tracer, seconds float64) (*fleet, error) {
	fl := &fleet{}
	cfg := serve.Config{}
	parent := lRequest
	if w.routed {
		parent = lRoute
	}
	if t != nil {
		cfg.TraceSpans = int(seconds*maxTracedRPS) + len(w.warm)
	}
	fl.spanRing = cfg.TraceSpans
	var bases []string
	for i := 0; i < w.replicas; i++ {
		s := serve.New(cfg)
		fl.servers = append(fl.servers, s)
		h := s.Handler()
		if t != nil {
			h = t.around(lHandler, parent, h)
		}
		base, err := fl.listen(h)
		if err != nil {
			fl.close()
			return nil, err
		}
		bases = append(bases, base)
	}
	fl.url = bases[0] + "/solve"
	if !w.routed {
		return fl, nil
	}
	rt, err := route.New(route.Config{Replicas: bases, Policy: route.PolicyHash})
	if err != nil {
		fl.close()
		return nil, err
	}
	fl.router = rt
	h := rt.Handler()
	if t != nil {
		h = t.around(lRoute, lRequest, h)
	}
	base, err := fl.listen(h)
	if err != nil {
		fl.close()
		return nil, err
	}
	fl.url = base + "/solve"
	return fl, nil
}

func (fl *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	fl.https = append(fl.https, hs)
	fl.serving.Add(1)
	go func() {
		defer fl.serving.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router, then the replicas, and waits for every HTTP
// server to return.
func (fl *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(fl.https) - 1; i >= 0; i-- {
		fl.https[i].Shutdown(ctx)
		if i == len(fl.https)-1 && fl.router != nil {
			fl.router.Close()
		}
	}
	for _, s := range fl.servers {
		s.Close()
	}
	fl.serving.Wait()
}

// serverSpans hands every replica's own request spans to the tracer.
func (fl *fleet) serverSpans(t *tracer) error {
	for _, s := range fl.servers {
		if err := t.serverSpans(s.Handler(), fl.spanRing); err != nil {
			return err
		}
	}
	return nil
}

// occupancy sums the batch-occupancy histograms of every replica: the
// problems flushed and the flushes that carried them.
func (fl *fleet) occupancy() (problems float64, flushes int64) {
	for _, s := range fl.servers {
		for _, k := range core.BatchKernels() {
			h := s.Metrics().BatchOccupancy.With(k.Kind())
			problems += h.Sum()
			flushes += h.Count()
		}
	}
	return problems, flushes
}

// kernelRuns counts the solves every replica started: cache misses.
func (fl *fleet) kernelRuns() int64 {
	n := int64(0)
	for _, s := range fl.servers {
		n += s.Metrics().CacheMisses.Value()
	}
	return n
}
