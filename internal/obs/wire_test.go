package obs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestWireSpanJSONRoundTrip is the wire-schema contract test: a span
// exported to wire form must survive marshal -> unmarshal exactly, since
// the collector decodes precisely this shape from remote processes.
func TestWireSpanJSONRoundTrip(t *testing.T) {
	base := time.Unix(1000, 0)
	s := NewReqSpan("req1", "graph", base)
	s.SetTrace("cafe01", "beef02")
	s.Observe("decode", base, base.Add(10*time.Microsecond))
	s.Observe("solve", base.Add(10*time.Microsecond), base.Add(200*time.Microsecond))
	s.Finish(base.Add(220*time.Microsecond), 200, true)

	w := s.wire(ServeTier.service)
	if w.Service != "dpserve" || w.TraceID != "cafe01" || w.ParentID != "beef02" {
		t.Fatalf("wire span linkage wrong: %+v", w)
	}
	if w.SpanID == "" {
		t.Fatal("wire span lost its own span id")
	}
	if w.Duration() != 220*time.Microsecond {
		t.Errorf("wire duration %v, want 220us", w.Duration())
	}

	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var got WireSpan
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Errorf("wire span did not survive JSON:\n got %+v\nwant %+v", got, w)
	}
}

func TestWireSpanOpenAndHop(t *testing.T) {
	base := time.Unix(2000, 0)
	// Open request span: EndNs stays 0 so consumers can tell in-flight apart.
	open := NewReqSpan("req2", "chain", base).wire(ServeTier.service)
	if open.EndNs != 0 || open.Duration() != 0 {
		t.Errorf("open span exported end %d dur %v, want 0", open.EndNs, open.Duration())
	}

	h := NewReqSpan("req3", "", base)
	h.SetTrace("abc123", "")
	h.SetKind("graph")
	h.ObserveNote("proxy", "attempt=1 replica=http://a status=200", base, base.Add(time.Millisecond))
	h.SetReplica("http://a")
	h.Finish(base.Add(time.Millisecond), 200, false)
	w := h.wire(RouterTier.service)
	if w.Service != "dprouter" || w.Replica != "http://a" || w.TraceID != "abc123" {
		t.Fatalf("hop wire span wrong: %+v", w)
	}
	if len(w.Phases) != 1 || w.Phases[0].Note == "" {
		t.Fatalf("hop wire span lost its annotated phase: %+v", w.Phases)
	}

	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var got WireSpan
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Errorf("hop wire span did not survive JSON:\n got %+v\nwant %+v", got, w)
	}
}

func TestRecorderWireSpans(t *testing.T) {
	r := NewSpanRecorder(ServeTier, 4)
	base := time.Unix(3000, 0)
	for i, id := range []string{"a", "b"} {
		s := NewReqSpan(id, "graph", base.Add(time.Duration(i)*time.Millisecond))
		s.Finish(s.Start.Add(time.Millisecond), 200, false)
		r.Add(s)
	}
	ws := r.WireSpans()
	if len(ws) != 2 || ws[0].ID != "a" || ws[1].ID != "b" {
		t.Fatalf("recorder wire export wrong: %+v", ws)
	}

	hr := NewSpanRecorder(RouterTier, 4)
	h := NewReqSpan("c", "", base)
	h.Finish(base.Add(time.Millisecond), 502, false)
	hr.Add(h)
	hws := hr.WireSpans()
	if len(hws) != 1 || hws[0].ID != "c" || hws[0].Status != 502 {
		t.Fatalf("hop recorder wire export wrong: %+v", hws)
	}
}
