package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"systolicdp/internal/obs"
	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

// layer names one span of the traced run. The client, router and handler
// spans are timed by this package around the public entry points; the
// decode to encode phases are the ones the replica records itself; hash
// to cache_put are replayed after the window (see replay).
type layer uint8

const (
	lRequest   layer = iota // load.request: the client's HTTP call
	lClient                 // load.client: client work outside the HTTP call
	lRoute                  // route.hop: Router.Handler
	lHandler                // serve.handler: Server.Handler
	lDecode                 // spec.decode: the replica's decode phase, body read and spec.Decode
	lQueueWait              // the replica's queue_wait phase: pool hand-off, or waiting for a batch flush
	lAssembly               // the replica's batch_assembly phase
	lSolve                  // kernel: the replica's solve phase, one kernel run
	lEncode                 // serve.encode: the replica's encode phase
	lHash                   // spec.hash: File.Hash
	lCacheGet               // serve.cache_get: LRU.Get
	lBuild                  // spec.build: File.Build
	lAdmit                  // serve.admit: EstimateCost, Batcher.Kernel, Admitter.Admit and Reservation.Release
	lCachePut               // serve.cache_put: LRU.Put
	numLayers
	noParent = numLayers
)

var layerNames = [numLayers]string{
	"load.request", "load.client", "route.hop", "serve.handler", "spec.decode", "serve.queue_wait",
	"serve.batch_assembly", "kernel", "serve.encode", "spec.hash", "serve.cache_get", "spec.build",
	"serve.admit", "serve.cache_put",
}

// phaseLayers maps the phases a replica records on its request spans
// (obs.ReqSpan) to layers.
var phaseLayers = map[string]layer{
	"decode": lDecode, "queue_wait": lQueueWait, "batch_assembly": lAssembly, "solve": lSolve, "encode": lEncode,
}

// span is one timed call. Spans of one request share req, the
// X-Request-ID the client sends; the router forwards it and the replica
// names its own request span after it. parent is the layer whose span
// encloses this one.
type span struct {
	req        uint64
	layer      layer
	parent     layer
	kind       int8    // problem kind on kernel spans
	pool       int32   // pool index on load.request spans
	start, end int64   // ns since the tracer's epoch
	units      float64 // serve.EstimateCost units on serve.admit spans
}

// tracer keeps every span of the measured window in memory. The client
// and wrapper spans are recorded only while armed, so set-up traffic
// stays out.
type tracer struct {
	epoch time.Time
	armed atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<19)}
}

func (t *tracer) now() int64            { return int64(time.Since(t.epoch)) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) record(s span) {
	if t.armed.Load() {
		t.add(s)
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// requestID reads the request id the client set.
func requestID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get("X-Request-ID"), 10, 64)
	return id
}

// around times h's /solve calls as one span of layer l.
func (t *tracer) around(l, parent layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/solve" {
			t.record(span{req: requestID(r), layer: l, parent: parent, start: start, end: t.now()})
		}
	})
}

// serverSpans reads the request spans a replica recorded itself, from
// its /debug/dptrace?format=wire endpoint, and adds the phases of every
// window request as spans under its handler span. capacity is the
// replica's Config.TraceSpans: a full ring may have dropped window spans.
func (t *tracer) serverSpans(h http.Handler, capacity int) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/dptrace?format=wire", nil))
	var ws []obs.WireSpan
	if err := json.Unmarshal(rec.Body.Bytes(), &ws); err != nil {
		return fmt.Errorf("replica trace: %w", err)
	}
	if len(ws) >= capacity {
		return fmt.Errorf("replica trace: %d spans fill the %d-span ring; raise maxTracedRPS", len(ws), capacity)
	}
	for _, s := range ws {
		id, err := strconv.ParseUint(s.ID, 10, 64)
		if err != nil || id >= warmIDBase {
			continue // set-up traffic
		}
		kind := int8(kindIndex(s.Kind))
		for _, p := range s.Phases {
			l, ok := phaseLayers[p.Name]
			if !ok {
				continue
			}
			start := t.at(time.Unix(0, s.StartNs+p.OffsetNs))
			t.add(span{req: id, layer: l, parent: lHandler, kind: kind, start: start, end: start + p.DurNs})
		}
	}
	return nil
}

// replay times the calls Server.solveSpec and dispatch make between
// decode and the kernel that the replica does not record itself:
// File.Hash and LRU.Get and, on a miss, File.Build, admission and
// LRU.Put. It makes them for every request of the window, in request
// order, on the same inputs, after the window and on one goroutine,
// against a cache of the replica's size warmed the way set-up warms the
// replicas'. These are the only layers timed outside serving.
func (t *tracer) replay(w *workload) error {
	var sent []span
	for _, s := range t.spans {
		if s.layer == lRequest {
			sent = append(sent, s)
		}
	}
	sort.Slice(sent, func(i, j int) bool { return sent[i].req < sent[j].req })
	decode := func(in input) (*spec.File, string, error) {
		f, err := spec.Decode(in.body)
		if err != nil {
			return nil, "", err
		}
		key, err := f.Hash()
		return f, key, err
	}
	cache := serve.NewLRU(replicaCache)
	for _, in := range w.warm {
		_, key, err := decode(in)
		if err != nil {
			return err
		}
		cache.Put(key, &serve.Response{})
	}
	batcher := serve.NewBatcher(0, 1, 1, nil) // only Kernel is called
	defer batcher.Close()
	admit := serve.NewAdmitter(false, 0, runtime.NumCPU())
	files := make([]*spec.File, len(w.pool))
	for _, s := range sent {
		f := files[s.pool]
		if f == nil {
			var err error
			if f, _, err = decode(w.pool[s.pool]); err != nil {
				return err
			}
			files[s.pool] = f
		}
		timed := func(l layer, start int64, units float64) {
			t.add(span{req: s.req, layer: l, parent: lHandler, units: units, start: start, end: t.now()})
		}
		start := t.now()
		key, err := f.Hash()
		timed(lHash, start, 0)
		if err != nil {
			return err
		}
		start = t.now()
		_, hit := cache.Get(key)
		timed(lCacheGet, start, 0)
		if hit {
			continue
		}
		start = t.now()
		p, err := f.Build()
		timed(lBuild, start, 0)
		if err != nil {
			return err
		}
		start = t.now()
		kind, units := serve.EstimateCost(p)
		if k, _, ok := batcher.Kernel(p); ok {
			kind = k.Kind()
		}
		res, err := admit.Admit(kind, units, replicaTimeout)
		res.Release()
		timed(lAdmit, start, units)
		if err != nil {
			return err
		}
		start = t.now()
		cache.Put(key, &serve.Response{})
		timed(lCachePut, start, 0)
	}
	return nil
}

// reqView is one request's traced time, summed per layer.
type reqView struct {
	dur   [numLayers]int64
	seen  [numLayers]bool
	kind  int8
	units float64
	run   [2]int64 // start and end of the kernel run that solved it
}

// complete reports whether every tier's spans of the request are there.
func (v *reqView) complete(routed bool) bool {
	return v.seen[lRequest] && v.seen[lHandler] && v.seen[lDecode] && v.seen[lHash] && (v.seen[lRoute] || !routed)
}

func (t *tracer) views() map[uint64]*reqView {
	views := make(map[uint64]*reqView)
	for _, s := range t.spans {
		v := views[s.req]
		if v == nil {
			v = &reqView{kind: -1}
			views[s.req] = v
		}
		v.dur[s.layer] += s.end - s.start
		v.seen[s.layer] = true
		switch s.layer {
		case lSolve:
			v.kind, v.run = s.kind, [2]int64{s.start, s.end}
		case lAdmit:
			v.units = s.units
		}
	}
	return views
}

type share struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

// shareLayers are the parts request time splits into; their shares sum
// to one. load.transport is the client's HTTP call outside every server
// handler: both HTTP stacks and the loopback hop.
var shareLayers = []string{
	"load.transport", "route.hop", "serve.handler", "spec.decode", "spec.hash", "serve.cache_get",
	"spec.build", "serve.admit", "serve.batch_wait", "kernel", "serve.cache_put", "serve.encode",
}

// selfTimes splits one complete request into shareLayers order. members
// is how many problems the kernel run that solved it carried (0 without
// a kernel run). A request's kernel time is its share of that run; the
// rest of a batched request's time in the batcher is batch wait. A pool
// request's queue wait is the pool hand-off, part of the handler's glue.
func (v *reqView) selfTimes(members int) []int64 {
	outer, routeSelf := lHandler, int64(0)
	if v.seen[lRoute] {
		outer, routeSelf = lRoute, v.dur[lRoute]-v.dur[lHandler]
	}
	kernel := int64(0)
	if members > 0 {
		kernel = v.dur[lSolve] / int64(members)
	}
	batchWait := int64(0)
	if v.seen[lAssembly] {
		batchWait = v.dur[lQueueWait] + v.dur[lAssembly] + v.dur[lSolve] - kernel
	}
	handlerSelf := v.dur[lHandler] - batchWait - kernel
	for _, l := range []layer{lDecode, lHash, lCacheGet, lBuild, lAdmit, lCachePut, lEncode} {
		handlerSelf -= v.dur[l]
	}
	return []int64{
		v.dur[lRequest] - v.dur[outer], routeSelf, handlerSelf,
		v.dur[lDecode], v.dur[lHash], v.dur[lCacheGet], v.dur[lBuild], v.dur[lAdmit],
		batchWait, kernel, v.dur[lCachePut], v.dur[lEncode],
	}
}

func medianNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n%2 == 1 {
		return float64(xs[n/2])
	}
	return float64(xs[n/2-1]+xs[n/2]) / 2
}

// perLayer turns the traced window into the per-layer metrics, the share
// of request time each layer took, and the acceptance checks.
func perLayer(views map[uint64]*reqView, routed bool, hitRatio, occupancy float64) (map[string]metric, []share, map[string]float64) {
	const us = 1e3
	// Problems solved by one kernel run share its start and end.
	type run struct {
		kind       int8
		start, end int64
	}
	members := map[run]int{}
	for _, v := range views {
		if v.seen[lSolve] {
			members[run{v.kind, v.run[0], v.run[1]}]++
		}
	}
	type list = []int64
	by := map[string]list{}
	kernelNs := make([]list, len(kinds))
	kernelUnits := make([]float64, len(kinds))
	kernelSum := make([]int64, len(kinds))
	totals := make([]int64, len(shareLayers))
	var requestTotal int64
	var batchedLat, batchedWait list
	complete := 0
	for _, v := range views {
		if v.seen[lClient] {
			by["load.client"] = append(by["load.client"], v.dur[lClient])
		}
		if !v.complete(routed) {
			continue
		}
		complete++
		n := 0
		if v.seen[lSolve] {
			n = members[run{v.kind, v.run[0], v.run[1]}]
		}
		self := v.selfTimes(n)
		for i, d := range self {
			totals[i] += d
		}
		requestTotal += v.dur[lRequest]
		if routed {
			by["route.hop"] = append(by["route.hop"], self[1])
		}
		by["serve.handler"] = append(by["serve.handler"], self[2])
		for _, l := range []layer{lDecode, lHash, lCacheGet, lBuild, lAdmit, lCachePut, lEncode} {
			if v.seen[l] {
				by[layerNames[l]] = append(by[layerNames[l]], v.dur[l])
			}
		}
		if v.seen[lAssembly] {
			by["serve.batch_wait"] = append(by["serve.batch_wait"], self[8])
			batchedLat = append(batchedLat, v.dur[lRequest])
			batchedWait = append(batchedWait, self[8])
		}
		if n > 0 && v.kind >= 0 {
			kernelNs[v.kind] = append(kernelNs[v.kind], self[9])
			kernelSum[v.kind] += self[9]
			kernelUnits[v.kind] += v.units
		}
	}
	ms := map[string]metric{
		"serve.cache_hit_ratio": {hitRatio, "ratio"},
		"serve.batch_occupancy": {occupancy, "problems"},
	}
	for _, name := range []string{"route.hop", "serve.handler", "serve.cache_get", "serve.cache_put", "serve.admit",
		"serve.batch_wait", "serve.encode", "spec.decode", "spec.hash", "spec.build", "load.client"} {
		ms[name+"_us"] = metric{medianNs(by[name]) / us, "us"}
	}
	kernelRuns := 0
	for i, k := range kinds {
		rate := 0.0
		if kernelSum[i] > 0 {
			rate = kernelUnits[i] / float64(kernelSum[i])
		}
		kernelRuns += len(kernelNs[i])
		ms["kernel."+k+".solve_us"] = metric{medianNs(kernelNs[i]) / us, "us"}
		ms["kernel."+k+".units_per_ns"] = metric{rate, "units/ns"}
	}
	shares := make([]share, len(shareLayers))
	for i, name := range shareLayers {
		shares[i] = share{name, 0}
		if requestTotal > 0 {
			shares[i].Share = float64(totals[i]) / float64(requestTotal)
		}
	}
	checks := map[string]float64{
		"traced_requests": float64(complete),
		"kernel_runs":     float64(kernelRuns),
		"kernel_share":    shares[9].Share,
	}
	if p50 := medianNs(batchedLat); p50 > 0 {
		checks["batch_wait_p50_over_batched_latency_p50"] = medianNs(batchedWait) / p50
	}
	return ms, shares, checks
}
