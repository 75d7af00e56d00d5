package route

import (
	"io"
	"strconv"

	"systolicdp/internal/promtext"
	"systolicdp/internal/serve"
)

// Metrics is the router's instrumentation, rendered as Prometheus text
// by the /metrics handler. The primitives and exposition dialect are the
// shared internal/promtext registry, so both tiers (and dptop's scraper)
// speak the same strictly-tested format.
type Metrics struct {
	forwards *promtext.CounterVec // upstream responses by replica base
	statuses *promtext.CounterVec // upstream responses by status code

	Retries     serve.Counter // failovers to a later ring successor after a transport error
	NoReplica   serve.Counter // requests with no healthy candidate (503)
	ProxyErrors serve.Counter // every candidate failed at transport level (502)
	BadSpec     serve.Counter // requests rejected at decode (400, never forwarded)
	Decodes     serve.Counter // bodies decoded and hashed to be placed; a repeated body is placed from memory
	Ejections   serve.Counter // replica health transitions healthy -> ejected
	Readmits    serve.Counter // replica health transitions ejected -> healthy
	Reloads     serve.Counter // membership changes applied (file reload or SetReplicas)
	SlowTraces  serve.Counter // stitched traces logged by tail-based slow capture
}

// NewMetrics builds the metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		forwards: promtext.NewCounterVec("replica"),
		statuses: promtext.NewCounterVec("status"),
	}
}

// Forwarded counts one upstream response from the given replica.
func (m *Metrics) Forwarded(replica string, status int) {
	m.forwards.With(replica).Inc()
	m.statuses.With(strconv.Itoa(status)).Inc()
}

// Write renders all metrics in Prometheus text exposition format, in a
// deterministic order.
func (m *Metrics) Write(w io.Writer) {
	m.forwards.Write(w, "dprouter_forwards_total")
	m.statuses.Write(w, "dprouter_upstream_responses_total")
	promtext.WriteCounter(w, "dprouter_retries_total", m.Retries.Value())
	promtext.WriteCounter(w, "dprouter_no_replica_total", m.NoReplica.Value())
	promtext.WriteCounter(w, "dprouter_proxy_errors_total", m.ProxyErrors.Value())
	promtext.WriteCounter(w, "dprouter_bad_spec_total", m.BadSpec.Value())
	promtext.WriteCounter(w, "dprouter_decodes_total", m.Decodes.Value())
	promtext.WriteCounter(w, "dprouter_ejections_total", m.Ejections.Value())
	promtext.WriteCounter(w, "dprouter_readmits_total", m.Readmits.Value())
	promtext.WriteCounter(w, "dprouter_membership_reloads_total", m.Reloads.Value())
	promtext.WriteCounter(w, "dprouter_slow_traces_total", m.SlowTraces.Value())
}
