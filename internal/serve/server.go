// Package serve is the long-lived solving service around the library: an
// HTTP/JSON endpoint whose wire format is the internal/spec File and
// whose dispatch is core.Solve. It exists because the one-shot CLIs pay a
// full pipeline fill per invocation, while the paper's Design 1 amortizes
// fill across streamed instances — a property only a long-lived process
// with concurrent traffic can exploit.
//
// Architecture:
//
//   - dispatch by problem class: Design-1 multistage graphs go to the
//     micro-batcher, where same-shape instances stream through the
//     pipelined array back to back and share one pipeline fill; every
//     other kind is solved on its singleflight goroutine once it holds
//     one of Workers slots, so at most Workers such solves run at once,
//     a late one included, and at most QueueSize callers wait for a
//     slot. Only Design 1 is batched because only its batch shares work:
//     the other kinds' kernels would sweep each instance separately
//     anyway, and their measured batch occupancy stayed at 1.0–1.2, so
//     batching them only added the collection window to their latency;
//   - an LRU result cache keyed by the canonical spec hash, with
//     singleflight deduplication so identical in-flight requests solve
//     once; each answer is encoded once, and a body that is a cached
//     spec's canonical encoding is answered with the stored bytes
//     before it is decoded. A body declared at up to 64 KiB is read
//     into a pooled buffer, returned once the byte probe has answered
//     or the decode has returned;
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
	"math"
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
	Workers     int           // concurrent non-batched solves; default runtime.NumCPU()
	QueueSize   int           // callers waiting for a solve slot; default 256
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
		c.Logger = obs.DiscardLogger()
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

	// body is the encoding every answer writes and kind the problem
	// kind of the spec answered; seal sets both before the response is
	// cached or shared.
	body []byte
	kind string
}

// seal encodes r once, as a json.Encoder with a two-space indent writes
// it, trailing newline included, and records the problem kind it
// answers.
func (r *Response) seal(kind string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode response: %w", err)
	}
	r.body, r.kind = append(b, '\n'), kind
	return nil
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
	slots    chan struct{}  // one entry per running non-batched solve; cap Workers
	waiting  atomic.Int64   // callers waiting for a slot; at most QueueSize
	solving  sync.WaitGroup // non-batched dispatches Close waits for
	submitMu sync.RWMutex   // excludes solves racing Close's drain
	draining atomic.Bool    // refuse new work; set by BeginDrain and Close
	closed   atomic.Bool    // full-teardown latch; set only by Close
	mux      *http.ServeMux
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		cache:   NewLRU(cfg.CacheSize),
		flight:  newFlight(),
		spans:   obs.NewSpanRecorder(obs.ServeTier, cfg.TraceSpans),
		logger:  cfg.Logger,
		slots:   make(chan struct{}, cfg.Workers),
		mux:     http.NewServeMux(),
	}
	s.admit = NewAdmitter(cfg.AdmitEnabled, cfg.AdmitHeadroom, cfg.Workers)
	s.batcher = NewBatcher(cfg.BatchWindow, cfg.BatchMax, cfg.QueueSize, s.metrics)
	s.batcher.SetAdmitter(s.admit)
	s.metrics.QueueDepth = func() int { return int(s.waiting.Load()) }
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
	return s
}

// Handler returns the HTTP handler tree (for http.Server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's instrumentation (tests, embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// dispatch routes a problem to its shard — the Design-1 micro-batcher or
// a solve slot — and returns its solution. Admission runs first: the
// request is priced with the closed-form cycle model against its
// deadline, and shed with an OverloadError (429 + Retry-After upstream)
// when the predicted completion cannot make it. The reservation holds
// the request's predicted seconds in the backlog until the work finishes
// on any path — success, error, panic, or abandonment.
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
	return s.solve(ctx, p, kind, cycles)
}

// solve waits under ctx for one of the Workers slots, then runs p on the
// calling goroutine and frees the slot when the kernel returns. A solve
// that has started runs to its end, however late, so at most Workers
// run at once. A caller that finds every slot taken waits, up to
// QueueSize of them, and past that gets ErrBusy. A ctx that is done
// before the slot is taken never solves and records no queue wait. The
// read lock orders each solving.Add before Close's Wait.
func (s *Server) solve(ctx context.Context, p core.Problem, kind string, cycles float64) (*core.Solution, error) {
	s.submitMu.RLock()
	if s.draining.Load() {
		s.submitMu.RUnlock()
		return nil, ErrShutdown
	}
	s.solving.Add(1)
	s.submitMu.RUnlock()
	defer s.solving.Done()

	enqueued := time.Now()
	select {
	case s.slots <- struct{}{}:
	default:
		if s.waiting.Add(1) > int64(s.cfg.QueueSize) {
			s.waiting.Add(-1)
			return nil, ErrBusy
		}
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-ctx.Done():
			s.waiting.Add(-1)
			return nil, ctx.Err()
		}
	}
	defer func() { <-s.slots }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	span := obs.SpanFrom(ctx)
	s.metrics.QueueWaitSeconds.Observe(start.Sub(enqueued).Seconds())
	span.Observe("queue_wait", enqueued, start)
	sol, err := core.Solve(p)
	end := time.Now()
	span.Observe("solve", start, end)
	if err == nil {
		// The solve's own duration, queue wait excluded, calibrates the
		// admission model's per-kind service rate.
		s.admit.Observe(kind, cycles, end.Sub(start).Seconds())
	}
	return sol, err
}

// solveSpec is the full cache → singleflight → dispatch path for one
// decoded spec. It is the unit the handler and benchmarks share. cached
// reports whether the response came straight from the LRU. The response
// is sealed: its body holds the bytes to write.
func (s *Server) solveSpec(ctx context.Context, f *spec.File) (resp *Response, cached bool, status int, err error) {
	key, err := f.Hash()
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	if resp, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Inc()
		return resp, true, http.StatusOK, nil
	}

	// A miss's budget is the server's -timeout clamped to the request's
	// remaining deadline (X-Deadline-Ms from a routing tier, or a client
	// disconnect deadline): work the edge has already given up on must not
	// be admitted or solved at full budget here. It ends the detached solve
	// context and bounds each caller's wait, so a request answers 504 on
	// time while a solve that has started runs on; a retry joins that
	// flight, or finds its answer cached.
	deadline := time.Now().Add(s.cfg.Timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
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
		// explicitly for stage accounting.
		sctx, cancel := context.WithDeadline(context.Background(), deadline)
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
		if err := r.seal(f.Problem); err != nil {
			return nil, err
		}
		s.cache.Put(key, r)
		return r, nil
	}
	resp, err = s.flightSolve(ctx, key, deadline, fn)
	if err != nil {
		return nil, false, statusFor(err), err
	}
	return resp, false, http.StatusOK, nil
}

// flightSolve runs fn through the singleflight group, waiting until
// deadline at most. A waiter that inherits the lead caller's transient
// answer (ErrBusy / ErrShutdown) retries the solve path once, under the
// same deadline: the lead's queue-full or draining verdict reflects
// conditions at *its* submit instant, and inheriting it would turn one
// full queue into N rejections of deduplicated requests. Only successful
// coalescing counts toward FlightShare.
func (s *Server) flightSolve(ctx context.Context, key string, deadline time.Time, fn func() (*Response, error)) (*Response, error) {
	resp, shared, err := s.flight.do(ctx, key, deadline, fn)
	if shared {
		s.metrics.FlightWait.Inc()
	}
	if shared && (errors.Is(err, ErrBusy) || errors.Is(err, ErrShutdown)) {
		resp, shared, err = s.flight.do(ctx, key, deadline, fn)
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

// ParseDeadline reads a DeadlineHeader value. It reports false for an
// empty, malformed or non-positive value, and for one too large for a
// time.Duration, so the caller keeps its own default.
func ParseDeadline(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// MaxBody is the largest request body either tier reads, in bytes.
const MaxBody = 64 << 20

// MaxSizedBody is the largest Content-Length a tier reads into one
// buffer of that length, allocated up front, so a request that declares
// a length and sends only headers makes a tier hold at most 64 KiB.
const MaxSizedBody = 64 << 10

// ReadBody reads a request body of at most MaxBody bytes. A body that
// declares a Content-Length of at most MaxSizedBody is read into one
// buffer of that length: buf's, when its capacity holds the body, else
// a new one. Any other body, chunked or declared longer, is read through
// http.MaxBytesReader, so a body past MaxBody fails with an
// *http.MaxBytesError. A body shorter than its Content-Length fails with
// io.ErrUnexpectedEOF either way.
//
// The router passes no buffer and keeps each body it forwards unpooled:
// the RoundTripper contract lets a Transport close, and so still read, a
// request body after RoundTrip has returned, so only the body's Close
// could tell the router when the buffer is free. A body with such a
// Close hook is not one of the readers net/http knows to be in memory (a
// *bytes.Reader behind io.NopCloser is), and the Transport would then
// write the request head in a write of its own. A replica, done with its
// body once the cache's byte probe or spec.Decode has returned, passes a
// buffer from its pool instead.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= MaxSizedBody {
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		body := buf[:n]
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
}

// pooledBody is a request body buffer of bodyPool.
type pooledBody struct{ b []byte }

// bodyPool holds the buffers a replica reads bodies into. A buffer too
// small for a body is replaced by the body's own when that holds at most
// MaxSizedBody, so the pooled buffers grow to the bodies a replica is
// sent, up to that size.
var bodyPool = sync.Pool{New: func() any { return new(pooledBody) }}

// ContentTypeJSON is the Content-Type value of every JSON body either
// tier sends. net/http only reads a header's value slices, so requests
// and responses share this one; nothing may write to it.
var ContentTypeJSON = []string{"application/json"}

// X-Dpserve-Cache values a replica shares across responses, as
// ContentTypeJSON is shared.
var (
	cacheHit  = []string{"hit"}
	cacheMiss = []string{"miss"}
)

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
// (draining), 504 (timeout), 500 (solver failure). A body that is a
// cached entry's canonical encoding is answered from its bytes alone,
// without a decode; any other body is decoded and takes solveSpec's
// path. Every request gets a lifecycle span
// (decode/queue_wait/batch_assembly/solve/encode) retained for
// /debug/dptrace, an X-Request-Id (propagated from the client or
// generated), and one structured log line.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a spec.File JSON body", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)

	span := obs.NewReqSpan(reqID, "", start)
	// Join the distributed trace the router started, or root a fresh one
	// for direct traffic so every request is stitchable by trace id.
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		span.SetTrace(tc.TraceID, tc.SpanID)
	} else {
		span.SetTrace(obs.NewTraceID(), "")
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
	buf := bodyPool.Get().(*pooledBody)
	body, err := ReadBody(w, r, buf.b)
	if err != nil {
		bodyPool.Put(buf)
		fail(http.StatusBadRequest, err)
		return
	}
	if c := cap(body); c > cap(buf.b) && c <= MaxSizedBody {
		buf.b = body[:0]
	}
	// respond writes a sealed response: its stored bytes, whichever path
	// produced it.
	respond := func(resp *Response, cached bool) {
		h := w.Header()
		h["Content-Type"] = ContentTypeJSON
		if cached {
			h["X-Dpserve-Cache"] = cacheHit
		} else {
			h["X-Dpserve-Cache"] = cacheMiss
		}
		encStart := time.Now()
		_, werr := w.Write(resp.body)
		end := time.Now()
		span.Observe("encode", encStart, end)
		span.Finish(end, http.StatusOK, cached)
		s.spans.Add(span)
		if werr != nil {
			// Headers are already on the wire, so the status cannot be
			// rewritten — but a half-written body is not a success and must not
			// be logged as one.
			s.metrics.Errors.Inc()
			s.logger.Warn("solve response write failed",
				"id", reqID, "problem", resp.kind, "err", werr,
				"duration", end.Sub(start))
			return
		}
		// Boxing the arguments allocates, so a logger that drops Info
		// records is asked first.
		if s.logger.Enabled(r.Context(), slog.LevelInfo) {
			s.logger.Info("solve",
				"id", reqID, "problem", resp.kind, "status", http.StatusOK,
				"cached", cached, "duration", end.Sub(start))
		}
	}
	if resp, ok := s.cache.getBody(body); ok {
		bodyPool.Put(buf)
		span.Observe("decode", start, time.Now())
		span.SetKind(resp.kind)
		s.metrics.Request(resp.kind)
		s.metrics.CacheHits.Inc()
		respond(resp, true)
		return
	}
	f, err := spec.Decode(body)
	// Decode copies what it keeps, and its errors copy what they quote,
	// so the buffer is free once it returns.
	bodyPool.Put(buf)
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
	if d, ok := ParseDeadline(r.Header.Get(DeadlineHeader)); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
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
	respond(resp, cached)
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
// 503, pending micro-batches flush, and Close returns once every solve
// that was waiting for a slot or running has ended.
func (s *Server) Close() {
	s.submitMu.Lock()
	already := s.closed.Swap(true)
	s.draining.Store(true)
	s.submitMu.Unlock()
	if already {
		return
	}
	s.batcher.Close()
	s.solving.Wait()
}
