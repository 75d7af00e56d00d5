// Package obs is the unified observability layer: it turns cycle-level
// activity of the systolic runners and request-level activity of the
// serving layer into Chrome trace-event ("Perfetto") JSON, the format
// ui.perfetto.dev and chrome://tracing load directly.
//
// The sinks that live here:
//
//   - Trace/Event: the trace-event JSON object model and writer;
//   - CycleRecorder: a per-PE busy/idle recorder that plugs into the
//     engines' PETrace hooks (both runners) and the lock-step wire trace,
//     exporting one track per PE plus counter tracks for busy-PE count,
//     valid tokens on wires and instantaneous utilization — the measured
//     counterpart of the paper's processor-utilization (PU) tables;
//   - ReqSpan/SpanRecorder: request-lifecycle spans for both tiers —
//     dpserve's (decode -> queue-wait -> batch-assembly -> solve ->
//     encode) and dprouter's hops (decode_hash -> candidate_pick ->
//     per-attempt proxy phases) — kept in a ring buffer and exported at
//     /debug/dptrace under the tier's names;
//   - TraceContext: the X-Dp-Trace distributed trace context that links
//     a router hop to the replica request span it caused;
//   - WireSpan: the additive cross-process span exchange schema served
//     at /debug/dptrace?format=wire by every process;
//   - Collector/FleetTrace: pulls wire spans from a fleet, stitches them
//     by trace id into one Perfetto document (a track per process), and
//     drives tail-based slow-trace logging.
//
// The paper's whole evaluation is observational — iteration counts,
// utilization ratios, data-movement pictures — so this package is what
// lets a run be checked against the closed forms instead of trusted.
package obs

import (
	"encoding/json"
	"io"
)

// Trace-event phase codes used by this package (the subset of the Chrome
// trace-event spec that Perfetto renders without configuration).
const (
	PhaseComplete = "X" // a span: ts + dur
	PhaseCounter  = "C" // a counter sample: args hold series values
	PhaseMetadata = "M" // process/thread naming
	PhaseInstant  = "i" // a point event
)

// Event is one Chrome trace-event. Ts and Dur are in microseconds (the
// trace-event unit); cycle-level traces map one logical cycle to 1us so
// cycle numbers read directly off the Perfetto timeline.
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// Trace is a trace-event JSON object: the "JSON Object Format" of the
// spec, with run metadata riding in OtherData.
type Trace struct {
	TraceEvents     []Event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// NewTrace creates an empty trace displaying milliseconds.
func NewTrace() *Trace {
	return &Trace{TraceEvents: []Event{}, DisplayTimeUnit: "ms", OtherData: map[string]string{}}
}

// NameProcess appends a process_name metadata event for pid.
func (t *Trace) NameProcess(pid int, name string) {
	t.TraceEvents = append(t.TraceEvents, Event{
		Name: "process_name", Ph: PhaseMetadata, Pid: pid,
		Args: map[string]any{"name": name},
	})
}

// NameThread appends a thread_name metadata event for (pid, tid).
func (t *Trace) NameThread(pid, tid int, name string) {
	t.TraceEvents = append(t.TraceEvents, Event{
		Name: "thread_name", Ph: PhaseMetadata, Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Span appends a complete ("X") event.
func (t *Trace) Span(pid, tid int, name, cat string, ts, dur float64, args map[string]any) {
	t.TraceEvents = append(t.TraceEvents, Event{
		Name: name, Ph: PhaseComplete, Pid: pid, Tid: tid, Cat: cat,
		Ts: ts, Dur: dur, Args: args,
	})
}

// Counter appends a counter ("C") sample; each args key is one series on
// the counter track named name.
func (t *Trace) Counter(pid int, name string, ts float64, args map[string]any) {
	t.TraceEvents = append(t.TraceEvents, Event{
		Name: name, Ph: PhaseCounter, Pid: pid, Ts: ts, Args: args,
	})
}

// Write renders the trace as indented JSON. The encoding is deterministic
// (struct field order plus encoding/json's sorted map keys), so golden
// files are stable.
func (t *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}
