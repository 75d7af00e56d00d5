package obs

import (
	"fmt"
	"sync"
	"time"
)

// RouterPid is the trace-event process id used for router hop spans.
const RouterPid = 3

// HopSpan is the router tier's span model: the lifecycle of one request
// hop through dprouter. Its phases are the router's decision points —
// decode_hash (body read + spec decode + canonical hash), candidate_pick
// (ring placement), then one proxy phase per forward attempt, annotated
// with the replica, the outcome, and the attempt number so failover is
// legible on the timeline. The hop's span id is what the router sends
// downstream as the parent of the replica's request span.
type HopSpan struct {
	ID    string // request id
	Start time.Time

	mu      sync.Mutex
	traceID string
	spanID  string
	kind    string // problem kind, once decoded
	phases  []Phase
	end     time.Time
	status  int
	replica string // upstream that produced the final answer, if any
}

// NewHopSpan opens a hop span with a freshly minted span id.
func NewHopSpan(id string, start time.Time) *HopSpan {
	return &HopSpan{ID: id, spanID: NewSpanID(), Start: start}
}

// SetTrace sets the trace this hop belongs to (minted at the edge or
// inherited from the client's own TraceHeader).
func (h *HopSpan) SetTrace(traceID string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.traceID = traceID
	h.mu.Unlock()
}

// Context returns the trace context this hop propagates downstream: the
// trace id plus the hop's own span id as the parent.
func (h *HopSpan) Context() TraceContext {
	if h == nil {
		return TraceContext{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return TraceContext{TraceID: h.traceID, SpanID: h.spanID}
}

// SetKind records the decoded problem kind.
func (h *HopSpan) SetKind(kind string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.kind = kind
	h.mu.Unlock()
}

// Observe records one phase by its wall-clock endpoints.
func (h *HopSpan) Observe(name string, start, end time.Time) {
	h.ObserveNote(name, "", start, end)
}

// ObserveNote records one annotated phase (proxy attempts carry the
// replica/outcome/attempt detail in the note).
func (h *HopSpan) ObserveNote(name, note string, start, end time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.phases = append(h.phases, Phase{Name: name, Offset: start.Sub(h.Start), Duration: end.Sub(start), Note: note})
	h.mu.Unlock()
}

// Finish closes the hop with the client-visible status and the replica
// that answered ("" when no forward succeeded).
func (h *HopSpan) Finish(end time.Time, status int, replica string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.end, h.status, h.replica = end, status, replica
	h.mu.Unlock()
}

// snapshot returns a consistent copy for export.
func (h *HopSpan) snapshot() spanSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return spanSnapshot{
		kind:    h.kind,
		traceID: h.traceID, spanID: h.spanID,
		phases: append([]Phase(nil), h.phases...),
		end:    h.end, status: h.status,
	}
}

// Replica reports the upstream that produced the final answer.
func (h *HopSpan) Replica() string {
	if h == nil {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.replica
}

// HopRecorder keeps the last cap hop spans in a ring buffer for the
// router's /debug/dptrace endpoint.
type HopRecorder struct {
	mu    sync.Mutex
	ring  []*HopSpan
	next  int
	count int
}

// NewHopRecorder builds a ring of the given capacity (min 1).
func NewHopRecorder(capacity int) *HopRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &HopRecorder{ring: make([]*HopSpan, capacity)}
}

// Add records a finished hop, evicting the oldest when full.
func (r *HopRecorder) Add(h *HopSpan) {
	r.mu.Lock()
	r.ring[r.next] = h
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	r.mu.Unlock()
}

// Snapshot returns retained hops oldest-first.
func (r *HopRecorder) Snapshot() []*HopSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*HopSpan, 0, r.count)
	start := r.next - r.count
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Trace exports the retained hops as a Perfetto-loadable trace, one
// thread track per hop, mirroring SpanRecorder.Trace for the serve tier.
func (r *HopRecorder) Trace() *Trace {
	hops := r.Snapshot()
	tr := NewTrace()
	tr.OtherData["service"] = "dprouter"
	tr.OtherData["spans"] = fmt.Sprintf("%d", len(hops))
	tr.NameProcess(RouterPid, "dprouter hops")
	if len(hops) == 0 {
		return tr
	}
	base := hops[0].Start
	for _, h := range hops {
		if h.Start.Before(base) {
			base = h.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i, h := range hops {
		tid := i + 1
		snap := h.snapshot()
		tr.NameThread(RouterPid, tid, fmt.Sprintf("hop %s", h.ID))
		total := snap.end.Sub(h.Start)
		if snap.end.IsZero() {
			total = 0
		}
		args := map[string]any{
			"id": h.ID, "problem": snap.kind, "status": snap.status,
		}
		if snap.traceID != "" {
			args["trace_id"] = snap.traceID
			args["span_id"] = snap.spanID
		}
		tr.Span(RouterPid, tid, "hop", snap.kind, us(h.Start.Sub(base)), us(total), args)
		for _, p := range snap.phases {
			var pargs map[string]any
			if p.Note != "" {
				pargs = map[string]any{"note": p.Note}
			}
			tr.Span(RouterPid, tid, p.Name, "stage", us(h.Start.Sub(base)+p.Offset), us(p.Duration), pargs)
		}
	}
	return tr
}
