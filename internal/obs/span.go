package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// ServePid is the trace-event process id used for request-lifecycle
// traces (cycle-level array traces use ArrayPid).
const ServePid = 2

// Phase is one stage of a request's lifecycle, stored as an offset from
// the span's start so export needs no clock. Note carries an optional
// free-form annotation (the router uses it for per-attempt failover
// detail: replica, status, error).
type Phase struct {
	Name     string
	Offset   time.Duration
	Duration time.Duration
	Note     string
}

// ReqSpan is the lifecycle of one served request: decode -> queue-wait ->
// batch-assembly -> solve -> encode (whichever stages the request's route
// actually passes through). Phases may be recorded from the handler
// goroutine and from worker/batcher goroutines; the span locks. All
// mutable fields — including the problem kind, which the batcher path can
// race against export — live under the mutex.
type ReqSpan struct {
	ID    string
	Start time.Time

	mu       sync.Mutex
	kind     string // problem kind ("graph", "chain", ...)
	traceID  string // distributed trace id; empty when untraced
	spanID   string // this span's id within the trace
	parentID string // the router hop span that caused this request, if any
	phases   []Phase
	end      time.Time
	status   int
	cached   bool
}

// NewReqSpan opens a span for one request with a freshly minted span id.
func NewReqSpan(id, kind string, start time.Time) *ReqSpan {
	return &ReqSpan{ID: id, kind: kind, spanID: NewSpanID(), Start: start}
}

// SetKind records the problem kind once it is known (after decode).
// Safe to call even after the span has escaped to other goroutines: Kind
// is read under the span mutex everywhere (the batcher's flush goroutine
// used to be able to race a late SetKind against export).
func (s *ReqSpan) SetKind(kind string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.kind = kind
	s.mu.Unlock()
}

// Kind reads the problem kind.
func (s *ReqSpan) Kind() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kind
}

// SetTrace links the span into a distributed trace: traceID groups all
// hops of one request across the fleet, parentID is the upstream span
// (the router hop) that caused this one. The span keeps its own minted
// span id.
func (s *ReqSpan) SetTrace(traceID, parentID string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.traceID, s.parentID = traceID, parentID
	s.mu.Unlock()
}

// Observe records one phase by its wall-clock endpoints.
func (s *ReqSpan) Observe(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phases = append(s.phases, Phase{Name: name, Offset: start.Sub(s.Start), Duration: end.Sub(start)})
	s.mu.Unlock()
}

// Finish closes the span with the response status and cache disposition.
func (s *ReqSpan) Finish(end time.Time, status int, cached bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.end, s.status, s.cached = end, status, cached
	s.mu.Unlock()
}

// spanSnapshot is a consistent copy of a span's mutable state.
type spanSnapshot struct {
	kind                      string
	traceID, spanID, parentID string
	phases                    []Phase
	end                       time.Time
	status                    int
	cached                    bool
}

// snapshot returns a consistent copy for export.
func (s *ReqSpan) snapshot() spanSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return spanSnapshot{
		kind:    s.kind,
		traceID: s.traceID, spanID: s.spanID, parentID: s.parentID,
		phases: append([]Phase(nil), s.phases...),
		end:    s.end, status: s.status, cached: s.cached,
	}
}

// spanKey is the context key for the active request span.
type spanKey struct{}

// WithSpan attaches a request span to ctx so downstream stages (worker
// pool, micro-batcher) can record their phases.
func WithSpan(ctx context.Context, s *ReqSpan) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the request span attached to ctx, or nil. All ReqSpan
// methods are nil-safe, so callers need not check.
func SpanFrom(ctx context.Context) *ReqSpan {
	s, _ := ctx.Value(spanKey{}).(*ReqSpan)
	return s
}

// NewRequestID generates a 16-hex-char request id (propagated as
// X-Request-ID when the client did not supply one).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a time-based id rather than propagate an error into every request.
		return fmt.Sprintf("t-%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// SpanRecorder keeps the last cap request spans in a ring buffer for the
// /debug/dptrace endpoint: enough history to inspect recent latency
// structure without unbounded growth.
type SpanRecorder struct {
	mu    sync.Mutex
	ring  []*ReqSpan
	next  int
	count int
}

// NewSpanRecorder builds a ring of the given capacity (min 1).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRecorder{ring: make([]*ReqSpan, capacity)}
}

// Add records a finished span, evicting the oldest when full.
func (r *SpanRecorder) Add(s *ReqSpan) {
	r.mu.Lock()
	r.ring[r.next] = s
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	r.mu.Unlock()
}

// Len returns the number of retained spans.
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Snapshot returns retained spans oldest-first.
func (r *SpanRecorder) Snapshot() []*ReqSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ReqSpan, 0, r.count)
	start := r.next - r.count
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Trace exports the retained spans as a Perfetto-loadable trace: one
// thread track per request (named by request id), a whole-request span,
// and one sub-span per lifecycle phase. Timestamps are microseconds since
// the oldest retained span's start.
func (r *SpanRecorder) Trace() *Trace {
	spans := r.Snapshot()
	tr := NewTrace()
	tr.OtherData["service"] = "dpserve"
	tr.OtherData["spans"] = fmt.Sprintf("%d", len(spans))
	tr.NameProcess(ServePid, "dpserve requests")
	if len(spans) == 0 {
		return tr
	}
	base := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(base) {
			base = s.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i, s := range spans {
		tid := i + 1
		snap := s.snapshot()
		tr.NameThread(ServePid, tid, fmt.Sprintf("req %s", s.ID))
		total := snap.end.Sub(s.Start)
		if snap.end.IsZero() {
			total = 0
		}
		args := map[string]any{
			"id": s.ID, "problem": snap.kind, "status": snap.status, "cached": snap.cached,
		}
		if snap.traceID != "" {
			args["trace_id"] = snap.traceID
			args["span_id"] = snap.spanID
			if snap.parentID != "" {
				args["parent_id"] = snap.parentID
			}
		}
		tr.Span(ServePid, tid, "request", snap.kind, us(s.Start.Sub(base)), us(total), args)
		for _, p := range snap.phases {
			tr.Span(ServePid, tid, p.Name, "stage", us(s.Start.Sub(base)+p.Offset), us(p.Duration), nil)
		}
	}
	return tr
}
