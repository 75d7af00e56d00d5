package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// TraceHeader carries the distributed trace context across a proxy hop,
// in the spirit of W3C traceparent but without its version/flag fields:
//
//	X-Dp-Trace: <32 hex trace id>-<16 hex parent span id>
//
// The router mints the trace id at the edge and sends its hop span's id
// as the parent, so a replica's request span can link itself under the
// hop that caused it; a trace collector then stitches both into one
// timeline keyed by the trace id.
const TraceHeader = "X-Dp-Trace"

// TraceContext is one hop's view of a distributed trace: the trace it
// belongs to and the span on this side of the wire.
type TraceContext struct {
	TraceID string // 32 hex chars, shared by every hop of the request
	SpanID  string // 16 hex chars, this hop's span
}

// NewTraceID mints a 32-hex-char trace id.
func NewTraceID() string { return newHex(16) }

// NewSpanID mints a 16-hex-char span id.
func NewSpanID() string { return newHex(8) }

// newHex returns 2n random hex chars, n at most 16. The random bytes and
// their hex digits stay on the stack, so the string is the one
// allocation. If crypto/rand fails the id is time-based instead: ids
// must never error a request.
func newHex(n int) string {
	var b [16]byte
	var h [32]byte
	if _, err := rand.Read(b[:n]); err != nil {
		return fmt.Sprintf("%0*x", 2*n, time.Now().UnixNano())[:2*n]
	}
	hex.Encode(h[:], b[:n])
	return string(h[:2*n])
}

// String renders the context in TraceHeader wire form.
func (tc TraceContext) String() string { return tc.TraceID + "-" + tc.SpanID }

// ParseTraceContext reads a TraceHeader value. It accepts any
// "<hex>-<hex>" pair with plausible lengths rather than strictly 32-16,
// so a future caller minting shorter ids still traces; garbage returns
// ok=false and the request proceeds untraced.
func ParseTraceContext(v string) (TraceContext, bool) {
	v = strings.TrimSpace(v)
	i := strings.IndexByte(v, '-')
	if i <= 0 || i == len(v)-1 {
		return TraceContext{}, false
	}
	traceID, spanID := v[:i], v[i+1:]
	if !isHex(traceID) || !isHex(spanID) || len(traceID) > 64 || len(spanID) > 64 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: traceID, SpanID: spanID}, true
}

func isHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}
