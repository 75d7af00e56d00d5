package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// goldenServeSpan is a fixed traced dpserve request: decode, then either
// a cache hit straight to encode or a queued solve.
func goldenServeSpan(cached bool) *ReqSpan {
	base := time.Unix(1700000000, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	s := NewReqSpan("req-golden", "", base)
	s.spanID = "00000000000000a1"
	s.SetTrace("feedc0de1122334455667788", "00000000000000b2")
	s.Observe("decode", at(0), at(12))
	s.SetKind("chain")
	end := at(40)
	if cached {
		s.Observe("encode", at(20), end)
	} else {
		s.Observe("queue_wait", at(12), at(30))
		s.Observe("solve", at(30), at(230))
		end = at(250)
		s.Observe("encode", at(232), end)
	}
	s.Finish(end, 200, cached)
	return s
}

// goldenServeRecorder holds one served span.
func goldenServeRecorder(cached bool) *SpanRecorder {
	r := NewSpanRecorder(ServeTier, 4)
	r.Add(goldenServeSpan(cached))
	return r
}

// goldenRouterRecorder holds one fixed router hop that fails over: the
// owner's forward fails at transport level and the ring successor
// answers 200.
func goldenRouterRecorder() *SpanRecorder {
	base := time.Unix(1700000000, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	h := NewReqSpan("hop-golden", "", base)
	h.spanID = "00000000000000c3"
	h.SetTrace("feedc0de1122334455667788", "")
	h.Observe("decode_hash", at(0), at(15))
	h.SetKind("chain")
	h.ObserveNote("candidate_pick", "candidates=2", at(15), at(17))
	h.ObserveNote("proxy", "attempt=1 replica=http://a err=connection refused", at(17), at(60))
	h.ObserveNote("proxy", "attempt=2 replica=http://b status=200", at(60), at(400))
	h.SetReplica("http://b")
	h.Finish(at(410), 200, false)
	r := NewSpanRecorder(RouterTier, 4)
	r.Add(h)
	return r
}

// TestSpanExportGolden pins both export forms of each tier's span — the
// Perfetto document /debug/dptrace serves and the wire JSON the fleet
// collector pulls — byte for byte.
func TestSpanExportGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  *SpanRecorder
	}{
		{"serve_uncached", goldenServeRecorder(false)},
		{"serve_cached", goldenServeRecorder(true)},
		{"router_failover", goldenRouterRecorder()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var trace bytes.Buffer
			if err := tc.rec.Trace().Write(&trace); err != nil {
				t.Fatal(err)
			}
			wire, err := json.MarshalIndent(tc.rec.WireSpans(), "", " ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "span_"+tc.name+"_trace.json", trace.Bytes())
			checkGolden(t, "span_"+tc.name+"_wire.json", append(wire, '\n'))
		})
	}
}
