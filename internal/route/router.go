package route

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"systolicdp/internal/obs"
	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

// Policy selects how the router places a request on a replica.
const (
	// PolicyHash is consistent hashing of the canonical spec hash: every
	// key has a stable owner, so replica caches and singleflight stay
	// shard-local. The default, and the point of this tier.
	PolicyHash = "hash"
	// PolicyRandom picks a uniformly random healthy replica per request.
	// It exists as the ablation baseline: same replicas, no affinity —
	// the measured cache-hit collapse is the argument for PolicyHash.
	PolicyRandom = "random"
)

// Config parameterizes a Router. Zero values select the defaults noted
// on each field.
type Config struct {
	// Replicas is the initial static membership: dpserve base URLs
	// ("http://host:port"). A bare "host:port" gets an http:// prefix.
	Replicas []string
	// ReplicasFile, when set, makes membership file-reloadable: the file
	// (one base URL per line, '#' comments, commas also accepted) is
	// polled every ReloadInterval and applied on modification. When both
	// Replicas and ReplicasFile are given, the file wins once readable.
	ReplicasFile   string
	ReloadInterval time.Duration // membership file poll period; default 2s

	VNodes int // virtual nodes per replica on the ring; default 128
	// Replication is the failover depth: how many distinct ring
	// successors a key may be tried on when earlier candidates are
	// ejected or fail at transport level. Default 2, minimum 1.
	Replication int

	HealthInterval time.Duration // probe period; default 1s
	HealthTimeout  time.Duration // per-probe budget; default 500ms
	EjectAfter     int           // consecutive probe failures before ejection; default 3
	ReadmitAfter   int           // consecutive probe successes before readmission; default 2

	// Deadline is the per-request budget assumed when the client sends no
	// X-Deadline-Ms header; it bounds the forward and is what the router
	// propagates to the replica, whose admission prices against it.
	// Default 30s.
	Deadline time.Duration

	Policy string       // PolicyHash (default) or PolicyRandom
	Logger *slog.Logger // structured logs; nil discards

	// TraceSpans is how many recent hop spans the router retains for
	// /debug/dptrace (and for stitching into /debug/fleettrace). Default
	// 256.
	TraceSpans int
	// SlowTrace enables tail-based slow-request capture: a background
	// collector periodically stitches the fleet's recent spans and logs
	// every trace at least this slow, once, with its full cross-tier
	// phase breakdown. 0 disables the background loop (the on-demand
	// /debug/fleettrace endpoint works regardless).
	SlowTrace time.Duration
	// CollectInterval is the background collector's poll period when
	// SlowTrace is enabled; default 2s.
	CollectInterval time.Duration

	// Transport overrides the upstream RoundTripper (tests); forwards and
	// probes call its RoundTrip directly. nil uses a pooled
	// http.Transport sized for fan-in traffic, whose 64 KiB write buffer
	// per connection sends a request whose head and body fit in it in
	// one write.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.ReloadInterval <= 0 {
		c.ReloadInterval = 2 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.Replication < 1 {
		c.Replication = 2
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
	}
	if c.EjectAfter < 1 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter < 1 {
		c.ReadmitAfter = 2
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.Policy == "" {
		c.Policy = PolicyHash
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 256
	}
	if c.CollectInterval <= 0 {
		c.CollectInterval = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	return c
}

// replica is one upstream dpserve and its router-side lifecycle state.
// The object survives membership reloads (health history and in-flight
// accounting carry over) and, once removed from membership, lives on in
// the drain list until its last in-flight request finishes.
type replica struct {
	base  string
	solve *url.URL // base + "/solve", parsed once; forwards only read it

	healthy  atomic.Bool  // on the ring and accepting traffic
	removed  atomic.Bool  // dropped from membership; draining in-flight
	inflight atomic.Int64 // forwards currently against this replica

	mu         sync.Mutex // guards the hysteresis counters
	consecFail int
	consecOK   int
}

// Router is the sharded routing tier. Create with New, expose via
// Handler, stop with Close.
type Router struct {
	cfg       Config
	metrics   *Metrics
	logger    *slog.Logger
	transport http.RoundTripper
	rng       *rand.Rand
	rngMu     sync.Mutex

	mu      sync.RWMutex // guards ring, members, drains, fileMod
	ring    *Ring
	members map[string]*replica
	drains  []*replica
	fileMod time.Time

	submitMu sync.RWMutex // excludes forwards racing Close's wait
	draining atomic.Bool
	closed   atomic.Bool
	inflight sync.WaitGroup // in-flight forwards
	wg       sync.WaitGroup // background loops
	stop     chan struct{}

	hops      *obs.SpanRecorder // recent hop spans for /debug/dptrace
	collector *obs.Collector    // fleet span stitching for /debug/fleettrace
	placed    placements        // bodies already placed, by their SHA-256

	mux *http.ServeMux
}

// New builds a Router over the configured membership and starts its
// health and (if file-backed) reload loops.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		metrics: NewMetrics(),
		logger:  cfg.Logger,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		members: make(map[string]*replica),
		stop:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			// A body a replica reads into one buffer leaves in the same
			// write as its request head, not 4 KiB at a time.
			WriteBufferSize: serve.MaxSizedBody,
		}
	}
	rt.transport = transport
	rt.hops = obs.NewSpanRecorder(obs.RouterTier, cfg.TraceSpans)
	rt.collector = &obs.Collector{
		Endpoints: rt.traceEndpoints,
		Local:     rt.hops.WireSpans,
		LocalName: "router",
		// Same pooled transport as forwards, but with a hard timeout: a
		// wedged replica must not stall trace assembly.
		Client:        &http.Client{Transport: transport, Timeout: 2 * time.Second},
		SlowThreshold: cfg.SlowTrace,
		Logger:        cfg.Logger,
	}

	bases := normalizeBases(cfg.Replicas)
	if cfg.ReplicasFile != "" {
		fileBases, mod, err := readReplicasFile(cfg.ReplicasFile)
		switch {
		case err == nil:
			bases = fileBases
			rt.fileMod = mod
		case len(bases) == 0:
			return nil, fmt.Errorf("route: replicas file %s: %v", cfg.ReplicasFile, err)
		default:
			rt.logger.Warn("replicas file unreadable, using static membership", "file", cfg.ReplicasFile, "err", err)
		}
	}
	if len(bases) == 0 {
		return nil, errors.New("route: no replicas configured")
	}
	if err := rt.applyMembership(bases); err != nil {
		return nil, err
	}

	rt.mux.HandleFunc("/solve", rt.handleSolve)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/statusz", rt.handleStatusz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/debug/dptrace", rt.handleTrace)
	rt.mux.HandleFunc("/debug/fleettrace", rt.handleFleetTrace)

	rt.wg.Add(1)
	go rt.healthLoop()
	if cfg.ReplicasFile != "" {
		rt.wg.Add(1)
		go rt.reloadLoop()
	}
	if cfg.SlowTrace > 0 {
		rt.wg.Add(1)
		go rt.collectLoop()
	}
	return rt, nil
}

// traceEndpoints enumerates the current membership as span-pull targets
// for the trace collector, tracking reloads.
func (rt *Router) traceEndpoints() []obs.Endpoint {
	bases := rt.ReplicaBases()
	eps := make([]obs.Endpoint, 0, len(bases))
	for _, b := range bases {
		eps = append(eps, obs.Endpoint{Name: b, Base: b})
	}
	return eps
}

// Handler returns the HTTP handler tree (for http.Server or httptest).
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the router's instrumentation (tests, embedding).
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// ReplicaBases returns the current membership's base URLs, sorted.
func (rt *Router) ReplicaBases() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Replicas()
}

// normalizeBases trims, deduplicates, and schemes the replica list.
func normalizeBases(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, b := range in {
		b = strings.TrimSpace(strings.TrimRight(b, "/"))
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// readReplicasFile parses a membership file: one base URL per line,
// commas also split, '#' starts a comment.
func readReplicasFile(path string) ([]string, time.Time, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	var bases []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, field := range strings.Split(line, ",") {
			if f := strings.TrimSpace(field); f != "" {
				bases = append(bases, f)
			}
		}
	}
	return normalizeBases(bases), st.ModTime(), nil
}

// newReplica makes the replica of a normalized base, healthy until
// probed otherwise. A base whose /solve URL does not parse, or names no
// host, is refused, so no forward can fail on it.
func newReplica(base string) (*replica, error) {
	u, err := url.Parse(base + "/solve")
	if err == nil && u.Host == "" {
		err = errors.New("no host")
	}
	if err != nil {
		return nil, fmt.Errorf("route: replica %q: %v", base, err)
	}
	rep := &replica{base: base, solve: u}
	rep.healthy.Store(true)
	return rep, nil
}

// SetReplicas swaps the membership. Replicas present in both sets keep
// their lifecycle state (health history, in-flight count); removed
// replicas leave the ring immediately but drain gracefully — requests
// already forwarded to them run to completion, and the router only
// forgets a removed replica once its in-flight count reaches zero. New
// replicas start healthy-optimistic and are ejected by the prober within
// EjectAfter probes if they are not actually there. A set with a base
// that does not parse is refused whole, and the membership stays as it
// was.
func (rt *Router) SetReplicas(bases []string) error {
	bases = normalizeBases(bases)
	if len(bases) == 0 {
		return errors.New("route: refusing empty membership")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	changed := len(bases) != len(rt.members)
	next := make(map[string]*replica, len(bases))
	for _, b := range bases {
		if rep, ok := rt.members[b]; ok {
			next[b] = rep
			continue
		}
		rep, err := newReplica(b)
		if err != nil {
			return err
		}
		changed = true
		next[b] = rep
	}
	for b, rep := range rt.members {
		if _, kept := next[b]; !kept {
			changed = true
			rep.removed.Store(true)
			if rep.inflight.Load() > 0 {
				rt.drains = append(rt.drains, rep)
			}
		}
	}
	if !changed {
		return nil
	}
	rt.members = next
	rt.ring = NewRing(bases, rt.cfg.VNodes)
	rt.metrics.Reloads.Inc()
	rt.logger.Info("membership applied", "replicas", len(bases))
	return nil
}

// applyMembership is SetReplicas without the no-change short-circuit,
// for initial construction.
func (rt *Router) applyMembership(bases []string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, b := range bases {
		rep, err := newReplica(b)
		if err != nil {
			return err
		}
		rt.members[b] = rep
	}
	rt.ring = NewRing(bases, rt.cfg.VNodes)
	return nil
}

// candidateArray is how many forward targets a placement holds on the
// stack: the default replication depth of 2 with room to spare.
const candidateArray = 4

// candidates appends to out the ordered forward targets of the key whose
// ring point is h: the key's ring owner first, then its distinct
// successors up to the replication depth, keeping only healthy,
// non-removed replicas. Under PolicyRandom it instead appends one
// uniformly random healthy replica (the no-affinity ablation baseline).
func (rt *Router) candidates(out []*replica, h uint64) []*replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.cfg.Policy == PolicyRandom {
		var healthy []*replica
		for _, rep := range rt.members {
			if rep.healthy.Load() {
				healthy = append(healthy, rep)
			}
		}
		if len(healthy) == 0 {
			return out
		}
		rt.rngMu.Lock()
		i := rt.rng.Intn(len(healthy))
		rt.rngMu.Unlock()
		return append(out, healthy[i])
	}
	var names [candidateArray]string
	for _, base := range rt.ring.appendSuccessors(names[:0], h, rt.cfg.Replication) {
		if rep, ok := rt.members[base]; ok && rep.healthy.Load() {
			out = append(out, rep)
		}
	}
	return out
}

// proxyNote is a proxy phase's note: the attempt, its replica, and the
// replica's status or, when err is set, the transport error.
func proxyNote(attempt int, base string, status int, err error) string {
	var buf [128]byte
	b := strconv.AppendInt(append(buf[:0], "attempt="...), int64(attempt), 10)
	b = append(append(b, " replica="...), base...)
	if err != nil {
		b = append(append(b, " err="...), err.Error()...)
	} else {
		b = strconv.AppendInt(append(b, " status="...), int64(status), 10)
	}
	return string(b)
}

// handleSolve is the proxy path: find the body's cache key (from memory
// when these bytes were placed before, else by decoding and hashing the
// body), place the key on the ring, then forward with the remaining
// deadline attached, failing over across ring successors on transport
// errors. Upstream responses pass through verbatim — status,
// Retry-After, cache disposition, request ID — so a client cannot tell
// one replica from the fleet, and a replica's admission shed reaches the
// client as its own 429 + Retry-After. Every request gets a hop span
// (decode_hash -> candidate_pick -> one annotated proxy phase per
// attempt, the hop ending once the answer is relayed) retained for
// /debug/dptrace, and every response — proxied or router-originated —
// carries X-Request-Id, so a 400/502/503/504 minted here is as
// traceable in client logs as a replica answer.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a spec.File JSON body", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	// One value slice serves the response's header and every forward's.
	ids := []string{reqID}
	w.Header()[obs.RequestIDHeader] = ids

	hop := obs.NewReqSpan(reqID, "", start)
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		hop.SetTrace(tc.TraceID, "") // a tracing client stays the trace root
	} else {
		hop.SetTrace(obs.NewTraceID(), "") // the router is the edge: root here
	}
	fail := func(status int, msg string) {
		hop.Finish(time.Now(), status, false)
		rt.hops.Add(hop)
		http.Error(w, msg, status)
	}

	rt.submitMu.RLock()
	if rt.draining.Load() {
		rt.submitMu.RUnlock()
		fail(http.StatusServiceUnavailable, "router draining")
		return
	}
	rt.inflight.Add(1)
	rt.submitMu.RUnlock()
	defer rt.inflight.Done()

	body, err := serve.ReadBody(w, r, nil)
	if err != nil {
		rt.metrics.BadSpec.Inc()
		fail(http.StatusBadRequest, err.Error())
		return
	}
	sum := sha256.Sum256(body)
	pl, ok := rt.placed.get(&sum)
	if !ok {
		// An error is never remembered, so a bad body is refused and
		// counted every time it is sent.
		rt.metrics.Decodes.Inc()
		f, err := spec.Decode(body)
		if err != nil {
			// Malformed specs die at the edge: no replica burns decode work
			// on a request that can only 400.
			rt.metrics.BadSpec.Inc()
			fail(http.StatusBadRequest, err.Error())
			return
		}
		if pl.key, err = f.Hash(); err != nil {
			hop.Observe("decode_hash", start, time.Now())
			rt.metrics.BadSpec.Inc()
			fail(http.StatusBadRequest, err.Error())
			return
		}
		pl.kind, pl.point = f.Problem, hash64(pl.key)
		rt.placed.put(&sum, pl)
	}
	hop.Observe("decode_hash", start, time.Now())
	hop.SetKind(pl.kind)

	deadline := rt.cfg.Deadline
	if d, ok := serve.ParseDeadline(r.Header.Get(serve.DeadlineHeader)); ok {
		deadline = d
	}

	pickStart := time.Now()
	var held [candidateArray]*replica
	cands := rt.candidates(held[:0], pl.point)
	hop.ObserveNote("candidate_pick", "candidates="+strconv.Itoa(len(cands)), pickStart, time.Now())
	if len(cands) == 0 {
		rt.metrics.NoReplica.Inc()
		fail(http.StatusServiceUnavailable, "route: no healthy replica")
		return
	}

	// The forward context outlives the deadline slightly so the replica's
	// own verdict (a 504 with accounting behind it) wins the race against
	// the router's cruder cut.
	ctx, cancel := context.WithTimeout(r.Context(), deadline+500*time.Millisecond)
	defer cancel()

	var lastErr error
	var lastRep *replica
	for i, rep := range cands {
		if i > 0 {
			rt.metrics.Retries.Inc()
		}
		rem := deadline - time.Since(start)
		if rem <= 0 {
			break
		}
		attemptStart := time.Now()
		resp, err := rt.send(ctx, hop, ids, rep, body, rem)
		if err != nil {
			lastErr, lastRep = err, rep
			hop.ObserveNote("proxy", proxyNote(i+1, rep.base, 0, err), attemptStart, time.Now())
			if ctx.Err() != nil {
				break
			}
			continue
		}
		hop.ObserveNote("proxy", proxyNote(i+1, rep.base, resp.StatusCode, nil), attemptStart, time.Now())
		rt.metrics.Forwarded(rep.base, resp.StatusCode)
		hop.SetReplica(rep.base)
		relayStart := time.Now()
		if err := copyResponse(w, resp); err != nil {
			// The status may be on the wire already, so it cannot be
			// rewritten. Record the cut in the hop and the log, then abort
			// the client's connection, as httputil.ReverseProxy does, so a
			// truncated body does not end as a complete response.
			end := time.Now()
			hop.ObserveNote("relay", "err="+err.Error(), relayStart, end)
			hop.Finish(end, resp.StatusCode, false)
			rt.hops.Add(hop)
			rt.logger.Warn("solve response relay failed",
				"id", reqID, "replica", rep.base, "status", resp.StatusCode, "err", err)
			panic(http.ErrAbortHandler)
		}
		hop.Finish(time.Now(), resp.StatusCode, false)
		rt.hops.Add(hop)
		return
	}
	if ctx.Err() != nil || lastRep == nil {
		// No attempt answered in time, or the deadline was spent (on the
		// body's upload, say) before the first attempt was due.
		fail(http.StatusGatewayTimeout, "route: deadline exceeded before any replica answered")
		return
	}
	rt.metrics.ProxyErrors.Inc()
	rt.logger.Warn("all candidates failed", "key", pl.key[:16], "candidates", len(cands),
		"replica", lastRep.base, "err", lastErr)
	fail(http.StatusBadGateway, fmt.Sprintf("route: all replicas failed: %s: %v", lastRep.base, lastErr))
}

// send forwards one request to one replica, attaching the request id
// (ids, the one-element value slice of the client's response header) and
// the hop's trace context (trace id + this hop's span id as the parent)
// so the replica's span links under this hop. It builds the request
// itself and calls the Transport's RoundTrip directly, as
// httputil.ReverseProxy does: no URL parse, no redirect handling, no
// copy of the header. The body is a bytes.Reader behind io.NopCloser,
// which net/http knows to be in memory, so the request head goes out in
// the same write as the body; GetBody lets the Transport resend it on a
// fresh connection when a reused one fails before a byte is written, as
// it did for http.NewRequest's requests. Solves are pure functions of
// the spec, so a transport-level failure (no response) is always safe to
// retry on the next candidate.
func (rt *Router) send(ctx context.Context, hop *obs.ReqSpan, ids []string, rep *replica, body []byte, remaining time.Duration) (*http.Response, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	vals := make([]string, 2)
	vals[0] = strconv.FormatInt(max(remaining.Milliseconds(), 1), 10)
	h := http.Header{
		"Content-Type":       serve.ContentTypeJSON,
		serve.DeadlineHeader: vals[0:1:1],
		obs.RequestIDHeader:  ids,
	}
	if tc := hop.Context(); tc.TraceID != "" {
		vals[1] = tc.String()
		h[obs.TraceHeader] = vals[1:2:2]
	}
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           rep.solve,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		GetBody:       func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
		ContentLength: int64(len(body)),
		Host:          rep.solve.Host,
	}
	return rt.transport.RoundTrip(req.WithContext(ctx))
}

// relayHeaders are the upstream response headers that carry serving
// semantics: Retry-After for 429s, the cache disposition, the request
// ID.
var relayHeaders = [...]string{"Content-Type", "Retry-After", "X-Dpserve-Cache", obs.RequestIDHeader}

// copyResponse streams an upstream response back to the client:
// passthrough status and the relayHeaders, each by its value slice. It
// returns the error that cut the relay short, reading the upstream body
// or writing the client's.
func copyResponse(w http.ResponseWriter, resp *http.Response) error {
	defer resp.Body.Close()
	for _, h := range relayHeaders {
		if v := resp.Header[h]; len(v) > 0 && v[0] != "" {
			w.Header()[h] = v
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, err := io.Copy(w, resp.Body)
	return err
}

// healthLoop probes every member each HealthInterval and applies
// ejection/readmission hysteresis, and reaps drained-out removed
// replicas.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		rt.mu.RLock()
		reps := make([]*replica, 0, len(rt.members))
		for _, rep := range rt.members {
			reps = append(reps, rep)
		}
		rt.mu.RUnlock()
		for _, rep := range reps {
			rt.probe(rep)
		}
		rt.reapDrains()
	}
}

// probe runs one health check against one replica. A draining dpserve
// answers 503 here, so a drain reads as failed probes and ejects the
// replica after EjectAfter of them.
func (rt *Router) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/healthz", nil)
	if err == nil {
		resp, err := rt.transport.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	rt.observeProbe(rep, ok)
}

// observeProbe applies one probe outcome to the replica's hysteresis
// counters. Ejection needs EjectAfter consecutive failures; readmission
// needs ReadmitAfter consecutive successes — a flapping replica neither
// bounces in and out per probe nor wedges the counters.
func (rt *Router) observeProbe(rep *replica, ok bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if ok {
		rep.consecOK++
		rep.consecFail = 0
		if !rep.healthy.Load() && rep.consecOK >= rt.cfg.ReadmitAfter {
			rep.healthy.Store(true)
			rt.metrics.Readmits.Inc()
			rt.logger.Info("replica readmitted", "replica", rep.base)
		}
		return
	}
	rep.consecFail++
	rep.consecOK = 0
	if rep.healthy.Load() && rep.consecFail >= rt.cfg.EjectAfter {
		rep.healthy.Store(false)
		rt.metrics.Ejections.Inc()
		rt.logger.Warn("replica ejected", "replica", rep.base, "consecutive_failures", rep.consecFail)
	}
}

// reapDrains forgets removed replicas whose last in-flight request has
// finished.
func (rt *Router) reapDrains() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	kept := rt.drains[:0]
	for _, rep := range rt.drains {
		if rep.inflight.Load() > 0 {
			kept = append(kept, rep)
		} else {
			rt.logger.Info("removed replica drained", "replica", rep.base)
		}
	}
	rt.drains = kept
}

// reloadLoop polls the membership file and applies changes.
func (rt *Router) reloadLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ReloadInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		st, err := os.Stat(rt.cfg.ReplicasFile)
		if err != nil {
			continue
		}
		rt.mu.RLock()
		unchanged := st.ModTime().Equal(rt.fileMod)
		rt.mu.RUnlock()
		if unchanged {
			continue
		}
		bases, mod, err := readReplicasFile(rt.cfg.ReplicasFile)
		if err != nil {
			rt.logger.Warn("replicas file reload failed", "err", err)
			continue
		}
		if err := rt.SetReplicas(bases); err != nil {
			rt.logger.Warn("replicas file rejected", "err", err)
			continue
		}
		rt.mu.Lock()
		rt.fileMod = mod
		rt.mu.Unlock()
	}
}

// routerStatusz is the router's own /statusz shape: its view of the
// fleet's membership, health and key ownership. Each replica's load and
// cache numbers are on that replica's own /metrics.
type routerStatusz struct {
	Draining bool                   `json:"draining"`
	Policy   string                 `json:"policy"`
	Replicas []routerReplicaStatusz `json:"replicas"`
}

type routerReplicaStatusz struct {
	Base     string  `json:"base"`
	Healthy  bool    `json:"healthy"`
	Removed  bool    `json:"removed,omitempty"`
	Inflight int64   `json:"inflight"`
	OwnShare float64 `json:"own_share"` // fraction of the key space this replica owns
}

// Statusz snapshots the router's aggregated fleet view.
func (rt *Router) Statusz() []routerReplicaStatusz {
	rt.mu.RLock()
	reps := make([]*replica, 0, len(rt.members)+len(rt.drains))
	for _, rep := range rt.members {
		reps = append(reps, rep)
	}
	reps = append(reps, rt.drains...)
	shares := rt.ring.Shares()
	rt.mu.RUnlock()
	out := make([]routerReplicaStatusz, 0, len(reps))
	for _, rep := range reps {
		out = append(out, routerReplicaStatusz{
			Base:     rep.base,
			Healthy:  rep.healthy.Load(),
			Removed:  rep.removed.Load(),
			Inflight: rep.inflight.Load(),
			OwnShare: shares[rep.base],
		})
	}
	slices.SortFunc(out, func(a, b routerReplicaStatusz) int { return strings.Compare(a.Base, b.Base) })
	return out
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(routerStatusz{
		Draining: rt.draining.Load(),
		Policy:   rt.cfg.Policy,
		Replicas: rt.Statusz(),
	})
}

// handleHealthz reports router liveness: 200 while routing, 503 once
// drain begins.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.metrics.Write(w)
}

// handleTrace serves the router's retained hop spans: Perfetto trace-
// event JSON by default, raw wire spans with ?format=wire (the form the
// fleet trace collector pulls — same contract as dpserve's endpoint).
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "wire" {
		json.NewEncoder(w).Encode(rt.hops.WireSpans())
		return
	}
	rt.hops.Trace().Write(w)
}

// handleFleetTrace pulls every replica's recent spans plus the router's
// own hops, stitches them by trace id, and serves one Perfetto document
// with a process track per fleet member — the cross-tier view of where
// requests spent their time. Pull failures for individual replicas are
// reported in otherData rather than failing the whole view.
func (rt *Router) handleFleetTrace(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	traces, errs := rt.collector.Collect(ctx)
	tr := obs.FleetTrace(traces)
	for name, err := range errs {
		tr.OtherData["pull_error "+name] = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	tr.Write(w)
}

// collectLoop is the tail-based capture driver: periodically stitch the
// fleet's recent spans and log (once per trace) any that crossed the
// SlowTrace bar, with the full cross-tier phase breakdown.
func (rt *Router) collectLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.CollectInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.CollectInterval)
		traces, _ := rt.collector.Collect(ctx)
		cancel()
		if n := rt.collector.LogSlow(traces); n > 0 {
			rt.metrics.SlowTraces.Add(int64(n))
		}
	}
}

// BeginDrain flips the router into draining mode: /healthz answers 503,
// new /solve requests are refused, in-flight forwards run to completion.
// Idempotent; the first step of a graceful shutdown.
func (rt *Router) BeginDrain() {
	rt.submitMu.Lock()
	rt.draining.Store(true)
	rt.submitMu.Unlock()
}

// Close shuts the router down: drains, stops the background loops, waits
// for in-flight forwards, and releases upstream connections. Idempotent.
func (rt *Router) Close() {
	rt.submitMu.Lock()
	already := rt.closed.Swap(true)
	rt.draining.Store(true)
	rt.submitMu.Unlock()
	if already {
		return
	}
	close(rt.stop)
	rt.wg.Wait()
	rt.inflight.Wait()
	if t, ok := rt.transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
