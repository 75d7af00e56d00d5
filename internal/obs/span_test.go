package obs

import (
	"context"
	"testing"
	"time"
)

func TestSpanContextPlumbing(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Error("empty context yielded a span")
	}
	s := NewReqSpan("abc", "graph", time.Unix(0, 0))
	ctx := WithSpan(context.Background(), s)
	if SpanFrom(ctx) != s {
		t.Error("span not recovered from context")
	}
	// nil-safe methods: must not panic.
	var nilSpan *ReqSpan
	nilSpan.Observe("solve", time.Now(), time.Now())
	nilSpan.Finish(time.Now(), 200, false)
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Errorf("request ids collide: %s", a)
	}
	if len(a) != 16 {
		t.Errorf("request id %q not 16 hex chars", a)
	}
}

func TestSpanRecorderRing(t *testing.T) {
	r := NewSpanRecorder(ServeTier, 2)
	base := time.Unix(1000, 0)
	for i, id := range []string{"a", "b", "c"} {
		s := NewReqSpan(id, "graph", base.Add(time.Duration(i)*time.Millisecond))
		s.Finish(s.Start.Add(time.Millisecond), 200, false)
		r.Add(s)
	}
	if r.Len() != 2 {
		t.Fatalf("ring len %d, want 2", r.Len())
	}
	snap := r.Snapshot()
	if snap[0].ID != "b" || snap[1].ID != "c" {
		t.Errorf("ring kept %s,%s; want b,c", snap[0].ID, snap[1].ID)
	}
}

func TestSpanTraceExport(t *testing.T) {
	r := NewSpanRecorder(ServeTier, 8)
	base := time.Unix(1000, 0)
	s := NewReqSpan("req1", "chain", base)
	s.Observe("decode", base, base.Add(10*time.Microsecond))
	s.Observe("queue_wait", base.Add(10*time.Microsecond), base.Add(30*time.Microsecond))
	s.Observe("solve", base.Add(30*time.Microsecond), base.Add(130*time.Microsecond))
	s.Finish(base.Add(150*time.Microsecond), 200, false)
	r.Add(s)

	tr := r.Trace()
	var request, phases int
	for _, e := range tr.TraceEvents {
		if e.Ph != PhaseComplete {
			continue
		}
		switch e.Name {
		case "request":
			request++
			if e.Dur != 150 {
				t.Errorf("request dur %v us, want 150", e.Dur)
			}
		case "decode", "queue_wait", "solve":
			phases++
		}
	}
	if request != 1 || phases != 3 {
		t.Errorf("exported %d request spans and %d phases, want 1 and 3", request, phases)
	}
	if tr.OtherData["spans"] != "1" {
		t.Errorf("otherData spans %q, want 1", tr.OtherData["spans"])
	}

	// Empty recorder still exports a valid trace.
	empty := NewSpanRecorder(ServeTier, 4).Trace()
	if empty.OtherData["spans"] != "0" || empty.TraceEvents == nil {
		t.Error("empty recorder export malformed")
	}
}
