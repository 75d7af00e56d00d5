package obs

import (
	"crypto/rand"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("minted context %q has wrong id lengths", tc.String())
	}
	got, ok := ParseTraceContext(tc.String())
	if !ok || got != tc {
		t.Errorf("round trip %q -> %+v ok=%v, want %+v", tc.String(), got, ok, tc)
	}
	// Whitespace tolerated; hop span ids parse as parents.
	if got, ok := ParseTraceContext(" abc123-def456 "); !ok || got.TraceID != "abc123" || got.SpanID != "def456" {
		t.Errorf("lenient parse failed: %+v ok=%v", got, ok)
	}
}

func TestParseTraceContextRejectsGarbage(t *testing.T) {
	for _, v := range []string{
		"", "-", "abc-", "-abc", "abc", "xyz-123", "123-xyz",
		"deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef0-ab", // trace id > 64 chars
	} {
		if _, ok := ParseTraceContext(v); ok {
			t.Errorf("ParseTraceContext(%q) accepted garbage", v)
		}
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	if a, b := NewSpanID(), NewSpanID(); a == b || len(a) != 16 {
		t.Errorf("span ids %q %q: want 16 hex chars, distinct", a, b)
	}
}

// Each id is minted in one allocation beyond what crypto/rand.Read
// costs its caller (none on Go 1.24, whose Read keeps its argument on
// the stack; an older Read lets it escape): the random bytes and their
// hex digits stay on the stack, and the string is the allocation. (The
// race detector's runtime allocates more.)
func TestNewIDAllocs(t *testing.T) {
	read := testing.AllocsPerRun(100, func() {
		var b [16]byte
		rand.Read(b[:])
	})
	for _, id := range []struct {
		name string
		mint func() string
		n    int
	}{{"trace", NewTraceID, 32}, {"span", NewSpanID, 16}, {"request", NewRequestID, 16}} {
		if s := id.mint(); len(s) != id.n || !isHex(s) {
			t.Errorf("%s id %q: want %d hex chars", id.name, s, id.n)
		}
		if n := testing.AllocsPerRun(100, func() { id.mint() }); n != 1+read && !raceEnabled {
			t.Errorf("a %s id took %v allocations, want 1 beyond crypto/rand.Read's %v", id.name, n, read)
		}
	}
}
