package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Trace-event process ids of the two request tiers' span exports
// (cycle-level array traces use ArrayPid).
const (
	ServePid  = 2 // dpserve request spans
	RouterPid = 3 // dprouter hop spans
)

// Tier names one process tier in its span exports: the service on every
// wire span, and the Perfetto process, thread prefix and whole-span
// slice name of its /debug/dptrace document.
type Tier struct {
	service string
	pid     int
	process string
	thread  string
	root    string
}

var (
	// ServeTier exports dpserve's request spans.
	ServeTier = Tier{service: "dpserve", pid: ServePid, process: "dpserve requests", thread: "req", root: "request"}
	// RouterTier exports dprouter's hop spans.
	RouterTier = Tier{service: "dprouter", pid: RouterPid, process: "dprouter hops", thread: "hop", root: "hop"}
)

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

// ReqSpan is the lifecycle of one request through one tier. On a
// replica: decode -> queue-wait -> batch-assembly -> solve -> encode
// (whichever stages the request's route actually passes through). On
// the router: decode_hash -> candidate_pick -> one annotated proxy phase
// per forward attempt, so failover is legible on the timeline; the hop's
// Context is what the router sends downstream as the parent of the
// replica's span. Phases may be recorded from the handler goroutine and
// from worker/batcher goroutines; the span locks. All mutable fields —
// including the problem kind, which the batcher path can race against
// export — live under the mutex. The first inlinePhases phases are kept
// in the span itself, so a hit at either tier records its phases
// without growing a slice.
type ReqSpan struct {
	ID    string
	Start time.Time

	mu       sync.Mutex
	kind     string // problem kind ("graph", "chain", ...)
	traceID  string // distributed trace id; empty when untraced
	spanID   string // this span's id within the trace
	parentID string // the router hop span that caused this request, if any
	phases   []Phase
	inline   [inlinePhases]Phase // phases' array until it outgrows it
	end      time.Time
	status   int
	cached   bool
	replica  string // router hops: the upstream that answered, if any
}

// inlinePhases is how many phases a span holds without a separate
// allocation: a replica's unbatched miss records four (decode,
// queue_wait, solve, encode), and a router hop whose first forward
// answers three (decode_hash, candidate_pick, proxy).
const inlinePhases = 4

// NewReqSpan opens a span for one request with a freshly minted span id.
func NewReqSpan(id, kind string, start time.Time) *ReqSpan {
	s := &ReqSpan{ID: id, kind: kind, spanID: NewSpanID(), Start: start}
	s.phases = s.inline[:0]
	return s
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
// (the router hop) that caused this one, empty at the trace's root. The
// span keeps its own minted span id.
func (s *ReqSpan) SetTrace(traceID, parentID string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.traceID, s.parentID = traceID, parentID
	s.mu.Unlock()
}

// Context returns the trace context this span propagates downstream: the
// trace id plus the span's own id as the parent.
func (s *ReqSpan) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return TraceContext{TraceID: s.traceID, SpanID: s.spanID}
}

// Observe records one phase by its wall-clock endpoints.
func (s *ReqSpan) Observe(name string, start, end time.Time) {
	s.ObserveNote(name, "", start, end)
}

// ObserveNote records one annotated phase (the router's candidate_pick
// and proxy attempts carry their detail in the note).
func (s *ReqSpan) ObserveNote(name, note string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.phases = append(s.phases, Phase{Name: name, Offset: start.Sub(s.Start), Duration: end.Sub(start), Note: note})
	s.mu.Unlock()
}

// SetReplica records the upstream that produced a router hop's answer.
func (s *ReqSpan) SetReplica(replica string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.replica = replica
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

// RequestIDHeader carries a request's id: the client's, or one a tier
// minted with NewRequestID. It is spelled in canonical header form, the
// form Go writes on the wire, so reading or setting it does not
// canonicalize the name again.
const RequestIDHeader = "X-Request-Id"

// NewRequestID generates a 16-hex-char request id (propagated as
// RequestIDHeader when the client did not supply one).
func NewRequestID() string { return newHex(8) }

// SpanRecorder keeps one tier's last cap spans in a ring buffer for its
// /debug/dptrace endpoint: enough history to inspect recent latency
// structure without unbounded growth.
type SpanRecorder struct {
	tier  Tier
	mu    sync.Mutex
	ring  []*ReqSpan
	next  int
	count int
}

// NewSpanRecorder builds a ring of the given capacity (min 1) whose
// exports carry tier's names.
func NewSpanRecorder(tier Tier, capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRecorder{tier: tier, ring: make([]*ReqSpan, capacity)}
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
	spans := r.WireSpans()
	tr := NewTrace()
	tr.OtherData["service"] = r.tier.service
	tr.OtherData["spans"] = fmt.Sprintf("%d", len(spans))
	tr.NameProcess(r.tier.pid, r.tier.process)
	var base int64
	for i, w := range spans {
		if i == 0 || w.StartNs < base {
			base = w.StartNs
		}
	}
	for i, w := range spans {
		tid := i + 1
		tr.NameThread(r.tier.pid, tid, r.tier.thread+" "+w.ID)
		args := map[string]any{"id": w.ID, "problem": w.Kind, "status": w.Status}
		if w.Cached {
			args["cached"] = true
		}
		if w.TraceID != "" {
			args["trace_id"] = w.TraceID
			args["span_id"] = w.SpanID
			if w.ParentID != "" {
				args["parent_id"] = w.ParentID
			}
		}
		tr.spanWithPhases(r.tier.pid, tid, r.tier.root, w, base, args)
	}
	return tr
}

// spanWithPhases appends one wire span's whole-span slice, named root,
// and a "stage" slice per phase (with its note, if any), timestamped in
// microseconds since base (unix ns).
func (t *Trace) spanWithPhases(pid, tid int, root string, w WireSpan, base int64, args map[string]any) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	t.Span(pid, tid, root, w.Kind, us(w.StartNs-base), us(int64(w.Duration())), args)
	for _, p := range w.Phases {
		var pargs map[string]any
		if p.Note != "" {
			pargs = map[string]any{"note": p.Note}
		}
		t.Span(pid, tid, p.Name, "stage", us(w.StartNs-base+p.OffsetNs), us(p.DurNs), pargs)
	}
}
