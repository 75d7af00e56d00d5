package serve

import (
	"fmt"
	"io"
	"runtime"

	"systolicdp/internal/promtext"
)

// The metric primitives are the shared internal/promtext registry types;
// the aliases keep this package's historical API (serve.Counter in
// internal/route, NewHistogram in tests) while both tiers render one
// strictly-tested exposition dialect.
type (
	// Counter is a monotone event count.
	Counter = promtext.Counter
	// Histogram is a fixed-bucket cumulative histogram.
	Histogram = promtext.Histogram
)

// NewHistogram builds a histogram over ascending bucket bounds.
func NewHistogram(bounds ...float64) *Histogram { return promtext.NewHistogram(bounds...) }

// Metrics is the server's instrumentation: plain stdlib counters and
// histograms from internal/promtext, exported as Prometheus text format
// by the /metrics handler.
type Metrics struct {
	requests *promtext.CounterVec // by problem kind

	CacheHits      Counter
	CacheMisses    Counter // flight leaders that actually solved (not coalesced waiters)
	FlightShare    Counter // requests coalesced onto another request's solve
	FlightWait     Counter // waits on an in-flight solve, successful or not
	Rejected       Counter // 429s from a full queue
	Timeouts       Counter // server-side deadline expiries (504s)
	ClientCancel   Counter // client disconnects before a result (499s)
	Errors         Counter // solver / bad-spec failures
	Batches        Counter // micro-batch flushes
	Batched        Counter // requests that went through a micro-batch
	BatchAbandoned Counter // cancelled items dropped at flush assembly
	AdmitShed      Counter // requests shed by cycle-model admission control (429 + Retry-After)

	BatchOccupancy *promtext.HistogramVec // instances per flush, labeled by execution-path kind
	SolveSeconds   *Histogram             // end-to-end solve latency

	// Per-stage latency histograms: where a request's time actually went.
	QueueWaitSeconds     *Histogram // solve-slot wait, or enqueue -> batch flush
	BatchAssemblySeconds *Histogram // first batch arrival -> flush (per flush)

	QueueDepth          func() int     // sampled at render time; nil reads as 0
	AdmitBacklogSeconds func() float64 // admission controller's estimated backlog; nil reads as 0
}

// NewMetrics builds the metric set with the server's bucket layout.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:             promtext.NewCounterVec("problem"),
		BatchOccupancy:       promtext.NewHistogramVec("kind", 1, 2, 4, 8, 16, 32, 64),
		SolveSeconds:         NewHistogram(0.0001, 0.001, 0.01, 0.1, 1, 10),
		QueueWaitSeconds:     NewHistogram(0.00001, 0.0001, 0.001, 0.01, 0.1, 1),
		BatchAssemblySeconds: NewHistogram(0.00001, 0.0001, 0.001, 0.01, 0.1, 1),
	}
}

// Request counts one request of the given problem kind.
func (m *Metrics) Request(kind string) { m.requests.With(kind).Inc() }

// Requests returns the count for one problem kind.
func (m *Metrics) Requests(kind string) int64 { return m.requests.Value(kind) }

// Write renders all metrics in Prometheus text exposition format, in a
// deterministic order.
func (m *Metrics) Write(w io.Writer) {
	m.requests.Write(w, "dpserve_requests_total")
	promtext.WriteCounter(w, "dpserve_cache_hits_total", m.CacheHits.Value())
	promtext.WriteCounter(w, "dpserve_cache_misses_total", m.CacheMisses.Value())
	promtext.WriteCounter(w, "dpserve_singleflight_shared_total", m.FlightShare.Value())
	promtext.WriteCounter(w, "dpserve_flight_wait_total", m.FlightWait.Value())
	promtext.WriteCounter(w, "dpserve_rejected_total", m.Rejected.Value())
	promtext.WriteCounter(w, "dpserve_timeouts_total", m.Timeouts.Value())
	promtext.WriteCounter(w, "dpserve_client_cancel_total", m.ClientCancel.Value())
	promtext.WriteCounter(w, "dpserve_errors_total", m.Errors.Value())
	promtext.WriteCounter(w, "dpserve_batches_total", m.Batches.Value())
	promtext.WriteCounter(w, "dpserve_batched_requests_total", m.Batched.Value())
	promtext.WriteCounter(w, "dpserve_batch_abandoned_total", m.BatchAbandoned.Value())
	promtext.WriteCounter(w, "dpserve_admit_shed_total", m.AdmitShed.Value())
	m.BatchOccupancy.Write(w, "dpserve_batch_occupancy")
	m.SolveSeconds.Write(w, "dpserve_solve_latency_seconds")
	m.QueueWaitSeconds.Write(w, "dpserve_queue_wait_seconds")
	m.BatchAssemblySeconds.Write(w, "dpserve_batch_assembly_seconds")
	// Server-side quantile estimates live in their OWN family: emitting
	// them as dpserve_solve_latency_seconds{quantile=...} would reuse the
	// histogram's family name, which strict Prometheus parsers reject as a
	// duplicate family (a histogram owns _bucket/_sum/_count and nothing
	// else).
	fmt.Fprintf(w, "# TYPE dpserve_solve_latency_quantile_seconds gauge\n")
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "dpserve_solve_latency_quantile_seconds{quantile=\"%g\"} %g\n", q, m.SolveSeconds.Quantile(q))
	}
	depth := 0
	if m.QueueDepth != nil {
		depth = m.QueueDepth()
	}
	promtext.WriteGauge(w, "dpserve_queue_depth", float64(depth))
	backlog := 0.0
	if m.AdmitBacklogSeconds != nil {
		backlog = m.AdmitBacklogSeconds()
	}
	promtext.WriteGauge(w, "dpserve_admit_backlog_seconds", backlog)
}

// WriteRuntime appends Go-runtime gauges (goroutines, heap bytes, GC
// cycles). It lives outside Write so Metrics.Write stays deterministic
// for a fixed observation set; the /metrics handler emits both.
func WriteRuntime(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	promtext.WriteGauge(w, "dpserve_goroutines", float64(runtime.NumGoroutine()))
	promtext.WriteGauge(w, "dpserve_heap_alloc_bytes", float64(ms.HeapAlloc))
	promtext.WriteCounter(w, "dpserve_gc_cycles_total", int64(ms.NumGC))
}
