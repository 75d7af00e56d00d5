// Package serve is the long-lived solving service around the library: an
// HTTP/JSON endpoint whose wire format is the internal/spec File and
// whose dispatch is core.Solve. It exists because the one-shot CLIs pay a
// full pipeline fill per invocation, while the paper's Design 1 amortizes
// fill across streamed instances — a property only a long-lived process
// with concurrent traffic can exploit.
//
// Architecture:
//
//   - a worker pool sharded by problem class: Design-1 multistage graphs
//     go to the micro-batcher, where same-shape instances stream through
//     the pipelined array back to back and share one pipeline fill;
//     every other kind goes to a bounded general pool. Only Design 1 is
//     batched because only its batch shares work: the other kinds'
//     kernels would sweep each instance separately anyway, and their
//     measured batch occupancy stayed at 1.0–1.2, so batching them only
//     added the collection window to their latency;
//   - an LRU result cache keyed by the canonical spec hash, with
//     singleflight deduplication so identical in-flight requests solve
//     once;
//   - robustness: per-request timeouts, bounded queues with 429
//     backpressure, graceful shutdown that drains in-flight work;
//   - observability: /healthz and a Prometheus-text /metrics endpoint.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"systolicdp/internal/core"
	"systolicdp/internal/obs"
	"systolicdp/internal/spec"
)

// Sentinel errors mapped to HTTP statuses by the handler.
var (
	// ErrBusy means a bounded queue is full; clients get 429.
	ErrBusy = errors.New("serve: queue full")
	// ErrShutdown means the server is draining; clients get 503.
	ErrShutdown = errors.New("serve: shutting down")
)

// Config parameterizes a Server. Zero values select the defaults noted on
// each field.
type Config struct {
	Workers     int           // general-pool workers; default runtime.NumCPU()
	QueueSize   int           // bounded general queue; default 256
	BatchWindow time.Duration // micro-batch collection window; default 2ms
	BatchMax    int           // flush at this many instances; default 16; <=1 disables batching
	CacheSize   int           // LRU entries; default 1024; <0 disables caching
	Timeout     time.Duration // per-solve budget; default 30s
	TraceSpans  int           // request spans retained for /debug/dptrace; default 256
	EnablePprof bool          // mount net/http/pprof under /debug/pprof/
	Logger      *slog.Logger  // structured request logs; nil discards

	// AdmitEnabled turns on cycle-model admission control: requests whose
	// predicted completion (estimated cost at the calibrated service rate,
	// plus the admitted backlog) exceeds their deadline are shed up front
	// with 429 + Retry-After instead of timing out mid-queue. Off, the
	// model still calibrates and exports its backlog gauge but never
	// sheds.
	AdmitEnabled bool
	// AdmitHeadroom is the safety factor on the predicted completion time
	// (shed iff predicted*headroom > deadline); default 1.2. Values > 1
	// shed earlier, absorbing model optimism.
	AdmitHeadroom float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax == 0 {
		c.BatchMax = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 256
	}
	if c.AdmitHeadroom <= 0 {
		c.AdmitHeadroom = 1.2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Response is the JSON solution shape — the same fields dpsolve -json
// prints, so a served answer is byte-comparable with the CLI's.
type Response struct {
	Problem  string  `json:"problem"`
	Class    string  `json:"class"`
	Method   string  `json:"method"`
	Hardware string  `json:"hardware"`
	Cost     float64 `json:"cost"`
	Path     []int   `json:"path,omitempty"`
	Ordering string  `json:"ordering,omitempty"`
}

// job is one general-pool work item.
type job struct {
	problem  core.Problem
	ctx      context.Context
	done     chan jobResult
	enqueued time.Time
	span     *obs.ReqSpan // request-lifecycle span; nil-safe
	kind     string       // admission cost-model kind
	cycles   float64      // admission cost-model work units
}

type jobResult struct {
	sol *core.Solution
	err error
}

// Server is the solving service. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg      Config
	metrics  *Metrics
	cache    *LRU
	flight   *flight
	batcher  *Batcher
	admit    *Admitter
	spans    *obs.SpanRecorder
	logger   *slog.Logger
	jobs     chan *job
	stop     chan struct{} // closed to tell idle workers to exit
	wg       sync.WaitGroup
	submitMu sync.RWMutex // excludes submits racing Close's drain
	draining atomic.Bool  // refuse new work; set by BeginDrain and Close
	closed   atomic.Bool  // full-teardown latch; set only by Close
	mux      *http.ServeMux
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		cache:   NewLRU(cfg.CacheSize),
		flight:  newFlight(),
		spans:   obs.NewSpanRecorder(cfg.TraceSpans),
		logger:  cfg.Logger,
		jobs:    make(chan *job, cfg.QueueSize),
		stop:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	s.admit = NewAdmitter(cfg.AdmitEnabled, cfg.AdmitHeadroom, cfg.Workers)
	s.batcher = NewBatcher(cfg.BatchWindow, cfg.BatchMax, cfg.QueueSize, s.metrics)
	s.batcher.SetAdmitter(s.admit)
	s.metrics.QueueDepth = func() int { return len(s.jobs) }
	s.metrics.AdmitBacklogSeconds = s.admit.BacklogSeconds
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/dptrace", s.handleTrace)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", httppprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler tree (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's instrumentation (tests, embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// worker drains the general queue; after stop closes it finishes whatever
// is still queued, then exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.jobs:
			s.runJob(j)
		case <-s.stop:
			for {
				select {
				case j := <-s.jobs:
					s.runJob(j)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) runJob(j *job) {
	// A job whose context is already done is dead work: the submitter
	// returned ctx.Err() long ago, so picking it up would only burn the
	// worker under exactly the overload that made it expire. Skip it —
	// counted, not solved, with no queue-wait/solve stage accounting.
	if err := j.ctx.Err(); err != nil {
		s.metrics.ExpiredSkipped.Inc()
		j.done <- jobResult{nil, err}
		return
	}
	start := time.Now()
	s.metrics.QueueWaitSeconds.Observe(start.Sub(j.enqueued).Seconds())
	j.span.Observe("queue_wait", j.enqueued, start)
	sol, err := core.SolveCtx(j.ctx, j.problem)
	end := time.Now()
	j.span.Observe("solve", start, end)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		// Pure solve duration (queue wait excluded) calibrates the
		// admission model's per-kind service rate. Timed-out solves count
		// too: they burned their whole budget without finishing, so
		// cycles/elapsed under-reports the true rate — exactly the
		// conservative correction needed, since skipping them would teach
		// the model only from fast survivors and leave it optimistic under
		// the overload it exists to manage.
		s.admit.Observe(j.kind, j.cycles, end.Sub(start).Seconds())
	}
	j.done <- jobResult{sol, err}
}

// submit queues a job for the general pool with backpressure. The read
// lock guarantees no job lands in the queue after Close's final drain.
func (s *Server) submit(j *job) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.draining.Load() {
		return ErrShutdown
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		return ErrBusy
	}
}

// dispatch routes a problem to its shard — the Design-1 micro-batcher or
// the general pool — and waits for the solution under ctx. Admission
// runs first: the request is priced with the closed-form cycle model
// against its deadline, and shed with an OverloadError (429 +
// Retry-After upstream) when the predicted completion cannot make it.
// The reservation holds the request's predicted seconds in the backlog
// until the work finishes on any path — success, error, or abandonment.
func (s *Server) dispatch(ctx context.Context, p core.Problem) (*core.Solution, error) {
	kind, cycles := EstimateCost(p)
	// EstimateCost already prices the Design-1 stream, the one batched
	// kind, under its kernel's own kind ("graph-stream"), so admission and
	// calibration use one rate key whichever path the problem takes.
	batched := false
	if s.cfg.BatchMax > 1 {
		_, _, batched = s.batcher.Kernel(p)
	}
	deadline := s.cfg.Timeout
	if dl, ok := ctx.Deadline(); ok {
		deadline = time.Until(dl)
	}
	res, err := s.admit.Admit(kind, cycles, deadline)
	if err != nil {
		s.metrics.AdmitShed.Inc()
		return nil, err
	}
	defer res.Release()
	if batched {
		return s.batcher.Submit(ctx, p)
	}
	j := &job{
		problem:  p,
		ctx:      ctx,
		done:     make(chan jobResult, 1),
		enqueued: time.Now(),
		span:     obs.SpanFrom(ctx),
		kind:     kind,
		cycles:   cycles,
	}
	if err := s.submit(j); err != nil {
		return nil, err
	}
	select {
	case r := <-j.done:
		return r.sol, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// solveSpec is the full cache → singleflight → dispatch path for one
// decoded spec. It is the unit the handler and benchmarks share. cached
// reports whether the response came straight from the LRU.
func (s *Server) solveSpec(ctx context.Context, f *spec.File) (resp *Response, cached bool, status int, err error) {
	key, err := f.Hash()
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Inc()
		return resp, true, http.StatusOK, nil
	}

	fn := func() (*Response, error) {
		// Counted here — inside the flight leader — not at the LRU miss
		// above: coalesced waiters fall through the cache check too, and
		// counting them would inflate the miss rate under dedup-heavy
		// load. Waiters are visible as dpserve_flight_wait_total instead.
		s.metrics.CacheMisses.Inc()
		p, err := f.Build()
		if err != nil {
			return nil, badSpec{err}
		}
		// The solve context is detached from the request (singleflight may
		// outlive its first caller), so the request span is re-attached
		// explicitly for stage accounting. The detached budget is the
		// server's -timeout clamped to the leader's remaining deadline
		// (X-Deadline-Ms from a routing tier, or a client disconnect
		// deadline): work the edge has already given up on must not be
		// admitted or solved at full budget here.
		budget := s.cfg.Timeout
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem < budget {
				budget = rem
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		sctx = obs.WithSpan(sctx, obs.SpanFrom(ctx))
		start := time.Now()
		sol, err := s.dispatch(sctx, p)
		if err != nil {
			return nil, err
		}
		s.metrics.SolveSeconds.Observe(time.Since(start).Seconds())
		rec := core.Recommend(sol.Class)
		r := &Response{
			Problem:  p.Describe(),
			Class:    sol.Class.String(),
			Method:   rec.Method,
			Hardware: rec.Requirements,
			Cost:     sol.Cost,
			Path:     sol.Path,
			Ordering: sol.Ordering,
		}
		s.cache.Put(key, r)
		return r, nil
	}
	resp, err = s.flightSolve(ctx, key, fn)
	if err != nil {
		return nil, false, statusFor(err), err
	}
	return resp, false, http.StatusOK, nil
}

// flightSolve runs fn through the singleflight group. A waiter that
// inherits the lead caller's transient answer (ErrBusy / ErrShutdown)
// retries the solve path once: the lead's queue-full or draining verdict
// reflects conditions at *its* submit instant, and inheriting it would
// turn one full queue into N rejections of deduplicated requests. Only
// successful coalescing counts toward FlightShare.
func (s *Server) flightSolve(ctx context.Context, key string, fn func() (*Response, error)) (*Response, error) {
	resp, shared, err := s.flight.do(ctx, key, fn)
	if shared {
		s.metrics.FlightWait.Inc()
	}
	if shared && (errors.Is(err, ErrBusy) || errors.Is(err, ErrShutdown)) {
		resp, shared, err = s.flight.do(ctx, key, fn)
		if shared {
			s.metrics.FlightWait.Inc()
		}
	}
	if shared && err == nil {
		s.metrics.FlightShare.Inc()
	}
	return resp, err
}

// badSpec marks spec-construction failures so statusFor maps them to 400.
type badSpec struct{ err error }

func (b badSpec) Error() string { return b.err.Error() }
func (b badSpec) Unwrap() error { return b.err }

// DeadlineHeader carries the client's remaining deadline in integer
// milliseconds across a proxy hop. A routing tier sets it from the edge
// deadline so a replica never admits or keeps solving work the client
// has already abandoned; dpserve honors it by clamping the request
// context and the detached solve budget to the smaller of the header and
// the server's own -timeout.
const DeadlineHeader = "X-Deadline-Ms"

// StatusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client went away before a response existed. It is kept
// distinct from 504 so dashboards don't blame server capacity for client
// disconnects.
const StatusClientClosedRequest = 499

func statusFor(err error) int {
	switch {
	case errors.As(err, &badSpec{}):
		return http.StatusBadRequest
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// A cancelled request context means the *client* abandoned the
		// exchange (server deadlines surface as DeadlineExceeded), so this
		// must not count against server timeouts.
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// handleSolve answers POST /solve: body is a spec.File, response the
// Response JSON. Errors map to 400 (bad spec), 429 (backpressure), 503
// (draining), 504 (timeout), 500 (solver failure). Every request gets a
// lifecycle span (decode/queue_wait/batch_assembly/solve/encode) retained
// for /debug/dptrace, an X-Request-ID (propagated from the client or
// generated), and one structured log line.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a spec.File JSON body", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)

	span := obs.NewReqSpan(reqID, "", start)
	// Join the distributed trace the router started, or root a fresh one
	// for direct traffic so every request is stitchable by trace id.
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		span.SetTrace(tc.TraceID, tc.SpanID)
	} else {
		span.SetTrace(obs.NewTraceContext().TraceID, "")
	}
	fail := func(status int, err error) {
		span.Finish(time.Now(), status, false)
		s.spans.Add(span)
		s.logger.Warn("solve failed",
			"id", reqID, "status", status, "err", err,
			"duration", time.Since(start))
		http.Error(w, err.Error(), status)
	}

	if s.draining.Load() {
		fail(http.StatusServiceUnavailable, ErrShutdown)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	f, err := spec.Decode(body)
	span.Observe("decode", start, time.Now())
	if err != nil {
		s.metrics.Errors.Inc()
		fail(http.StatusBadRequest, err)
		return
	}
	span.SetKind(f.Problem)
	s.metrics.Request(f.Problem)

	ctx := r.Context()
	// A proxied request carries the edge's remaining deadline; honor it by
	// shrinking the request context (never growing it past -timeout, which
	// solveSpec applies as the ceiling on the detached solve budget).
	if ms := r.Header.Get(DeadlineHeader); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
			defer cancel()
		}
	}
	ctx = obs.WithSpan(ctx, span)
	resp, cached, status, err := s.solveSpec(ctx, f)
	if err != nil {
		var ovl *OverloadError
		if errors.As(err, &ovl) {
			// Admission sheds carry the model's earliest useful retry time;
			// the header is whole seconds rounded up, never below 1.
			w.Header().Set("Retry-After",
				strconv.Itoa(int((ovl.RetryAfter+time.Second-1)/time.Second)))
		}
		switch status {
		case http.StatusTooManyRequests:
			s.metrics.Rejected.Inc()
		case http.StatusGatewayTimeout:
			s.metrics.Timeouts.Inc()
		case StatusClientClosedRequest:
			s.metrics.ClientCancel.Inc()
		default:
			s.metrics.Errors.Inc()
		}
		fail(status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Dpserve-Cache", "hit")
	} else {
		w.Header().Set("X-Dpserve-Cache", "miss")
	}
	encStart := time.Now()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	encErr := enc.Encode(resp)
	end := time.Now()
	span.Observe("encode", encStart, end)
	span.Finish(end, status, cached)
	s.spans.Add(span)
	if encErr != nil {
		// Headers are already on the wire, so the status cannot be
		// rewritten — but a half-written body is not a success and must not
		// be logged as one.
		s.metrics.Errors.Inc()
		s.logger.Warn("solve response write failed",
			"id", reqID, "problem", f.Problem, "err", encErr,
			"duration", end.Sub(start))
		return
	}
	s.logger.Info("solve",
		"id", reqID, "problem", f.Problem, "status", status,
		"cached", cached, "duration", end.Sub(start))
}

// handleHealthz reports liveness: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the metric set plus Go-runtime gauges as
// Prometheus text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Write(w)
	WriteRuntime(w)
}

// handleTrace serves the retained request-lifecycle spans. The default
// form is a Perfetto trace-event JSON document (load it in
// ui.perfetto.dev, or summarize with cmd/dptrace); ?format=wire returns
// the raw obs.WireSpan list the fleet trace collector pulls.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "wire" {
		json.NewEncoder(w).Encode(s.spans.WireSpans())
		return
	}
	s.spans.Trace().Write(w)
}

// BeginDrain flips the server into draining mode without stopping it:
// /healthz starts answering 503 immediately (so load balancers and the
// dprouter health checker eject this replica), new /solve requests are
// refused with 503, and in-flight work keeps running to completion.
// This is the first step of a graceful shutdown — signal unhealthiness
// first, give the routing tier time to stop sending, then Close. Before
// this existed the drain window was invisible: /healthz said 200 right
// up until the listener died, so an LB's next probe still routed traffic
// into a dying replica. Idempotent.
func (s *Server) BeginDrain() {
	s.submitMu.Lock()
	s.draining.Store(true)
	s.submitMu.Unlock()
}

// Draining reports whether drain has begun (BeginDrain or Close).
func (s *Server) Draining() bool { return s.draining.Load() }

// Close gracefully shuts the server down: new requests are rejected with
// 503, pending micro-batches flush, queued general-pool jobs run to
// completion, and all workers exit before Close returns.
func (s *Server) Close() {
	s.submitMu.Lock()
	already := s.closed.Swap(true)
	s.draining.Store(true)
	s.submitMu.Unlock()
	if already {
		return
	}
	s.batcher.Close()
	close(s.stop)
	s.wg.Wait()
}
