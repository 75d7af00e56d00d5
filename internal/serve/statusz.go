package serve

import (
	"encoding/json"
	"net/http"
)

// Statusz is the machine-readable replica status served at /statusz, for
// operators: whether it is draining, how loaded its admission backlog
// is, the calibrated per-kind service rates its admission prices with,
// and its cache counters. The rates are shown nowhere else; the backlog
// and cache counters are also on /metrics, where dptop reads them. The
// schema is part of the serving contract, so fields are additive-only.
type Statusz struct {
	Draining   bool        `json:"draining"`
	Workers    int         `json:"workers"`
	QueueDepth int         `json:"queue_depth"` // callers waiting for a solve slot
	QueueCap   int         `json:"queue_cap"`   // QueueSize; a caller past it gets 429
	Admit      AdmitStatus `json:"admit"`
	Cache      CacheStatus `json:"cache"`
}

// AdmitStatus is the admission controller's exported state.
type AdmitStatus struct {
	Enabled        bool    `json:"enabled"`
	Headroom       float64 `json:"headroom"`
	BacklogSeconds float64 `json:"backlog_seconds"`
	// Rates maps problem kind to the calibrated EWMA service rate in
	// EstimateCost units/second; a kind absent or 0 is uncalibrated.
	Rates map[string]float64 `json:"rates"`
}

// CacheStatus is the LRU result cache's exported state.
type CacheStatus struct {
	Capacity int   `json:"capacity"`
	Len      int   `json:"len"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// Statusz snapshots the server's routing-relevant state.
func (s *Server) Statusz() Statusz {
	return Statusz{
		Draining:   s.draining.Load(),
		Workers:    s.cfg.Workers,
		QueueDepth: int(s.waiting.Load()),
		QueueCap:   s.cfg.QueueSize,
		Admit: AdmitStatus{
			Enabled:        s.admit.Enabled(),
			Headroom:       s.admit.HeadroomFactor(),
			BacklogSeconds: s.admit.BacklogSeconds(),
			Rates:          s.admit.Rates(),
		},
		Cache: CacheStatus{
			Capacity: s.cfg.CacheSize,
			Len:      s.cache.Len(),
			Hits:     s.metrics.CacheHits.Value(),
			Misses:   s.metrics.CacheMisses.Value(),
		},
	}
}

// handleStatusz serves the replica status JSON. Unlike /healthz it keeps
// answering 200 while draining — the body carries the draining flag — so
// an operator can tell "drained on purpose" from "dead".
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Statusz())
}
