package obs

import "time"

// WireSpan is the cross-process span exchange form: what each process
// serves at /debug/dptrace?format=wire and what the trace collector
// pulls to stitch a fleet-wide timeline. Timestamps are absolute unix
// nanoseconds (processes on one fleet share a clock to well under the
// millisecond phase granularity; the collector re-bases everything to
// the earliest span it sees). The schema is part of the observability
// contract — obs.Collector and cmd/dptrace decode exactly this shape —
// so fields are additive-only.
type WireSpan struct {
	Service  string      `json:"service"`             // producing tier: "dpserve" or "dprouter"
	Source   string      `json:"source,omitempty"`    // collector-assigned endpoint name (not set by producers)
	TraceID  string      `json:"trace_id,omitempty"`  // distributed trace linkage
	SpanID   string      `json:"span_id,omitempty"`   //
	ParentID string      `json:"parent_id,omitempty"` //
	ID       string      `json:"id"`                  // request id (X-Request-ID)
	Kind     string      `json:"kind,omitempty"`      // problem kind
	StartNs  int64       `json:"start_unix_ns"`
	EndNs    int64       `json:"end_unix_ns,omitempty"` // 0 while the span is still open
	Status   int         `json:"status,omitempty"`
	Cached   bool        `json:"cached,omitempty"`
	Replica  string      `json:"replica,omitempty"` // hop spans: upstream that answered
	Phases   []WirePhase `json:"phases,omitempty"`
}

// WirePhase is one lifecycle phase in wire form, offsets relative to the
// span start.
type WirePhase struct {
	Name     string `json:"name"`
	OffsetNs int64  `json:"offset_ns"`
	DurNs    int64  `json:"dur_ns"`
	Note     string `json:"note,omitempty"`
}

// Duration is the span's end-to-end latency (0 while open).
func (w WireSpan) Duration() time.Duration {
	if w.EndNs == 0 {
		return 0
	}
	return time.Duration(w.EndNs - w.StartNs)
}

func wirePhases(ps []Phase) []WirePhase {
	if len(ps) == 0 {
		return nil
	}
	out := make([]WirePhase, len(ps))
	for i, p := range ps {
		out[i] = WirePhase{Name: p.Name, OffsetNs: p.Offset.Nanoseconds(), DurNs: p.Duration.Nanoseconds(), Note: p.Note}
	}
	return out
}

func wireEnd(end time.Time) int64 {
	if end.IsZero() {
		return 0
	}
	return end.UnixNano()
}

// wire exports the span in wire form under the given service name.
func (s *ReqSpan) wire(service string) WireSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WireSpan{
		Service: service,
		TraceID: s.traceID, SpanID: s.spanID, ParentID: s.parentID,
		ID: s.ID, Kind: s.kind,
		StartNs: s.Start.UnixNano(), EndNs: wireEnd(s.end),
		Status: s.status, Cached: s.cached, Replica: s.replica,
		Phases: wirePhases(s.phases),
	}
}

// WireSpans exports the retained spans oldest-first.
func (r *SpanRecorder) WireSpans() []WireSpan {
	spans := r.Snapshot()
	out := make([]WireSpan, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.wire(r.tier.service))
	}
	return out
}
