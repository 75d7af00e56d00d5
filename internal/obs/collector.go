package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// FleetBasePid is the first trace-event process id used for fleet
// sources in a stitched trace (one pid per source, assigned in sorted
// source order).
const FleetBasePid = 10

// WirePath is where every process in the fleet exposes its recent spans
// in wire JSON form (the Perfetto form stays at the bare path).
const WirePath = "/debug/dptrace?format=wire"

// Endpoint is one span source the collector pulls from.
type Endpoint struct {
	Name string // track label in the stitched trace (replica base, "router", ...)
	Base string // base URL; the collector appends WirePath
}

// AssembledTrace is every span of one distributed trace, stitched across
// the fleet and sorted by start time.
type AssembledTrace struct {
	TraceID string
	Spans   []WireSpan
}

// Start returns the earliest span start (unix ns).
func (t AssembledTrace) Start() int64 {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[0].StartNs
}

// Duration is the end-to-end latency: earliest start to latest close.
// Open spans contribute nothing to the end.
func (t AssembledTrace) Duration() time.Duration {
	var end int64
	for _, s := range t.Spans {
		if s.EndNs > end {
			end = s.EndNs
		}
	}
	if end == 0 {
		return 0
	}
	return time.Duration(end - t.Start())
}

// Sources returns the distinct span sources in the trace, sorted.
func (t AssembledTrace) Sources() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range t.Spans {
		if !seen[s.Source] {
			seen[s.Source] = true
			out = append(out, s.Source)
		}
	}
	sort.Strings(out)
	return out
}

// Assemble groups wire spans by trace id. Spans without a trace id are
// dropped (they cannot be stitched); traces come back ordered by start
// time, spans within a trace by start then service (router hop before
// the replica span it caused when both start the same nanosecond).
func Assemble(spans []WireSpan) []AssembledTrace {
	byTrace := map[string][]WireSpan{}
	for _, s := range spans {
		if s.TraceID == "" {
			continue
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]AssembledTrace, 0, len(byTrace))
	for id, ss := range byTrace {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartNs != ss[j].StartNs {
				return ss[i].StartNs < ss[j].StartNs
			}
			return ss[i].Service > ss[j].Service // "dprouter" > "dpserve": router first
		})
		out = append(out, AssembledTrace{TraceID: id, Spans: ss})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start() != out[j].Start() {
			return out[i].Start() < out[j].Start()
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Collector pulls recent spans from every process in the fleet and
// stitches them into per-trace timelines. It is wired into dprouter
// (serving /debug/fleettrace and driving tail-based slow-request
// capture) and into cmd/dptrace's standalone -collect mode.
type Collector struct {
	// Endpoints enumerates the fleet to pull from on each Collect; the
	// router passes its live membership so the set follows reloads.
	Endpoints func() []Endpoint
	// Local supplies spans available without HTTP (the router's own hop
	// spans); may be nil.
	Local func() []WireSpan
	// LocalName labels Local's spans; default "router".
	LocalName string
	// Client performs the pulls; nil uses a 2-second-timeout client.
	Client *http.Client
	// SlowThreshold is the tail-capture bar: LogSlow logs any stitched
	// trace at least this slow. <= 0 disables.
	SlowThreshold time.Duration
	// Logger receives slow-trace lines and pull warnings; nil discards.
	Logger *slog.Logger

	mu   sync.Mutex
	seen map[string]bool // trace ids already slow-logged
	fifo []string        // bounded eviction order for seen
}

func (c *Collector) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 2 * time.Second}
}

func (c *Collector) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return DiscardLogger()
}

// Collect pulls every endpoint (plus Local) and assembles the union.
// Per-endpoint failures are tolerated — a dead replica must not take the
// fleet view down with it — and reported in errs by endpoint name.
func (c *Collector) Collect(ctx context.Context) (traces []AssembledTrace, errs map[string]error) {
	var eps []Endpoint
	if c.Endpoints != nil {
		eps = c.Endpoints()
	}
	type pull struct {
		name  string
		spans []WireSpan
		err   error
	}
	results := make([]pull, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep Endpoint) {
			defer wg.Done()
			spans, err := FetchWireSpans(ctx, c.client(), ep.Base)
			for j := range spans {
				spans[j].Source = ep.Name
			}
			results[i] = pull{name: ep.Name, spans: spans, err: err}
		}(i, ep)
	}
	wg.Wait()

	var all []WireSpan
	if c.Local != nil {
		name := c.LocalName
		if name == "" {
			name = "router"
		}
		for _, s := range c.Local() {
			s.Source = name
			all = append(all, s)
		}
	}
	errs = map[string]error{}
	for _, r := range results {
		if r.err != nil {
			errs[r.name] = r.err
			c.logger().Warn("span pull failed", "endpoint", r.name, "err", r.err)
			continue
		}
		all = append(all, r.spans...)
	}
	return Assemble(all), errs
}

// FetchWireSpans pulls one process's recent spans in wire form.
func FetchWireSpans(ctx context.Context, client *http.Client, base string) ([]WireSpan, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+WirePath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%s: status %d", base, resp.StatusCode)
	}
	var spans []WireSpan
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, fmt.Errorf("%s: %w", base, err)
	}
	return spans, nil
}

// LogSlow applies tail-based capture: every not-yet-logged trace whose
// end-to-end latency meets SlowThreshold is logged with its full phase
// breakdown, once. Returns how many new slow traces were logged.
func (c *Collector) LogSlow(traces []AssembledTrace) int {
	if c.SlowThreshold <= 0 {
		return 0
	}
	logged := 0
	for _, t := range traces {
		d := t.Duration()
		if d < c.SlowThreshold || d == 0 {
			continue
		}
		if !c.markSeen(t.TraceID) {
			continue
		}
		logged++
		c.logger().Warn("slow trace",
			"trace", t.TraceID, "duration", d,
			"spans", len(t.Spans), "sources", strings.Join(t.Sources(), ","),
			"breakdown", breakdown(t))
	}
	return logged
}

// markSeen records a trace id, evicting oldest entries past 4096 so the
// dedup set stays bounded on a long-lived router. Returns false when the
// id was already recorded.
func (c *Collector) markSeen(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	if c.seen[id] {
		return false
	}
	c.seen[id] = true
	c.fifo = append(c.fifo, id)
	for len(c.fifo) > 4096 {
		delete(c.seen, c.fifo[0])
		c.fifo = c.fifo[1:]
	}
	return true
}

// breakdown renders a trace's phases as one compact line:
// "router:hop 12ms [proxy 11ms] -> replica-a:request 10ms [queue_wait 1ms solve 8ms]".
func breakdown(t AssembledTrace) string {
	parts := make([]string, 0, len(t.Spans))
	for _, s := range t.Spans {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:%s %s", s.Source, s.Service, time.Duration(s.EndNs-s.StartNs).Round(time.Microsecond))
		if len(s.Phases) > 0 {
			b.WriteString(" [")
			for i, p := range s.Phases {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s %s", p.Name, time.Duration(p.DurNs).Round(time.Microsecond))
			}
			b.WriteByte(']')
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, " -> ")
}

// FleetTrace renders stitched traces as one Perfetto document: one
// process per source (router track + one track per replica), one thread
// row per trace within each source, span args carrying the trace/span/
// parent ids so the linkage survives into the UI. Timestamps are
// microseconds since the earliest span in the collection.
func FleetTrace(traces []AssembledTrace) *Trace {
	tr := NewTrace()
	tr.OtherData["fleet"] = "1"
	tr.OtherData["traces"] = fmt.Sprintf("%d", len(traces))
	if len(traces) == 0 {
		return tr
	}
	// Stable pid per source across the document.
	sourceSet := map[string]bool{}
	for _, t := range traces {
		for _, s := range t.Spans {
			sourceSet[s.Source] = true
		}
	}
	sources := make([]string, 0, len(sourceSet))
	for s := range sourceSet {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	pidOf := map[string]int{}
	for i, s := range sources {
		pid := FleetBasePid + i
		pidOf[s] = pid
		tr.NameProcess(pid, s)
	}
	base := traces[0].Start()
	for _, t := range traces {
		if s := t.Start(); s < base {
			base = s
		}
	}
	for ti, t := range traces {
		tid := ti + 1
		short := t.TraceID
		if len(short) > 12 {
			short = short[:12]
		}
		named := map[int]bool{}
		for _, s := range t.Spans {
			pid := pidOf[s.Source]
			if !named[pid] {
				named[pid] = true
				tr.NameThread(pid, tid, fmt.Sprintf("trace %s", short))
			}
			name := "request"
			if s.Service == "dprouter" {
				name = "hop"
			}
			args := map[string]any{
				"trace_id": s.TraceID, "span_id": s.SpanID, "id": s.ID,
				"status": s.Status, "service": s.Service,
			}
			if s.ParentID != "" {
				args["parent_id"] = s.ParentID
			}
			if s.Cached {
				args["cached"] = true
			}
			if s.Replica != "" {
				args["replica"] = s.Replica
			}
			tr.spanWithPhases(pid, tid, name, s, base, args)
		}
	}
	return tr
}
