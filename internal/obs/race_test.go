package obs

import (
	"sync"
	"testing"
	"time"
)

// TestSetKindConcurrentWithExport is the -race regression for the escape
// hazard fixed in span.go: a handler calling SetKind after its span has
// escaped to the batcher/recorder used to race exports reading Kind.
// Under `go test -race` this fails if Kind ever leaves the span mutex.
func TestSetKindConcurrentWithExport(t *testing.T) {
	r := NewSpanRecorder(ServeTier, 8)
	base := time.Now()
	s := NewReqSpan("race", "", base)
	r.Add(s) // span escapes before its kind is known, like a real request

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.SetKind("graph")
			s.SetTrace("cafe", "beef")
			s.Observe("decode", base, base.Add(time.Microsecond))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = s.Kind()
			_ = r.Trace()
			_ = r.WireSpans()
		}
	}()
	wg.Wait()
	if s.Kind() != "graph" {
		t.Errorf("kind %q after concurrent writes, want graph", s.Kind())
	}
}
