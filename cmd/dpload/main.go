// Command dpload is the closed-loop load generator for dpserve: it
// drives a ramped request rate of randomized spec instances (the
// internal/check generator's mix) at a solving service, tallies
// responses by status, measures success-latency percentiles and
// goodput, and writes a machine-readable report.
//
// Against an external server:
//
//	dpload -addr http://localhost:8080 -rps 200 -duration 30s -out BENCH_5.json
//
// Self-contained (no -addr): dpload starts an in-process dpserve on a
// loopback port, probes its capacity with a short closed-loop burst,
// then drives it at -overload times the measured capacity. With
// -compare it runs the identical workload twice — admission control off,
// then on — which is the experiment behind the EXPERIMENTS.md overload
// table:
//
//	dpload -duration 10s -compare -out BENCH_5.json
//
// With -compare-batch it instead runs the identical mixed-kind workload
// with micro-batching off (BatchMax 1: every kind solves one at a time
// under the server's solve slots) and then on (same-shape concurrent
// Design-1 graphs flush together to the batch kernel, which solves each
// by its sweep; the other kinds stay on the slots), with
// the result cache disabled in both phases, and reports per-kind goodput
// plus per-kernel flush occupancy — the experiment behind the
// EXPERIMENTS.md batching table:
//
//	dpload -duration 10s -compare-batch -keys 64 -out BENCH_8.json
//
// The load loop is closed: at most -conc requests are in flight, and
// pacing slots that find every lane busy are counted as client-side
// drops rather than queued without bound. That keeps dpload itself from
// becoming an unbounded buffer in front of the server under overload —
// the same discipline the paper's fixed-length pipeline imposes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strconv"

	"systolicdp/internal/check"
	"systolicdp/internal/promtext"
	"systolicdp/internal/route"
	"systolicdp/internal/serve"
	"systolicdp/internal/spec"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpload:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpload:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	addr         string        // target base URL; empty = in-process server
	duration     time.Duration // measured window per run
	rps          float64       // target request rate; 0 = probe capacity and use overload x it
	overload     float64       // auto-rate multiplier on probed capacity
	ramp         float64       // leading fraction of the window spent ramping up to the target rate
	conc         int           // closed-loop bound: max in-flight requests
	mix          []string      // instance kinds to generate
	scale        int           // instance-size multiplier on the generator defaults
	seed         int64         // generator seed (runs are reproducible)
	keys         int           // >0: draw requests from a fixed pool of this many distinct specs (cache hits exist)
	out          string        // report path; empty = stdout only
	compare      bool          // in-process only: run admission off then on
	compareBatch bool          // in-process only: run micro-batching off then on

	// Scaling mode (in-process only): run the same workload through an
	// in-process dprouter over each of these fleet sizes.
	replicas []int
	ablate   bool // rerun the largest fleet with random placement (affinity ablation)

	// In-process server knobs (ignored with -addr).
	workers       int
	timeout       time.Duration
	cache         int // per-replica LRU entries (0 = server default, <0 disables)
	batchMax      int // micro-batch size cap (0 = server default, 1 disables batching)
	admit         bool
	admitHeadroom float64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("dpload", flag.ContinueOnError)
	addr := fs.String("addr", "", "target server base URL (empty: start an in-process dpserve)")
	duration := fs.Duration("duration", 10*time.Second, "measured load window per run")
	rps := fs.Float64("rps", 0, "target request rate (0: probe capacity, drive at -overload x it)")
	overload := fs.Float64("overload", 2, "auto-rate multiplier on probed capacity when -rps is 0")
	ramp := fs.Float64("ramp", 0.2, "fraction of the window spent ramping linearly up to the target rate")
	conc := fs.Int("conc", 64, "closed-loop concurrency bound (max in-flight requests)")
	mix := fs.String("mix", strings.Join(spec.Kinds(), ","), "comma-separated instance kinds to generate")
	scale := fs.Int("scale", 1, "instance-size multiplier on the generator's default bounds (heavier solves per request)")
	seed := fs.Int64("seed", 1, "instance-generator seed")
	keys := fs.Int("keys", 0, "draw requests from a fixed pool of this many distinct specs instead of a fresh spec per request (0 = fresh; >0 makes result-cache hits possible)")
	out := fs.String("out", "", "write the JSON report here as well as stdout")
	compare := fs.Bool("compare", false, "in-process only: run the workload with admission off, then on")
	compareBatch := fs.Bool("compare-batch", false, "in-process only: run the workload with micro-batching off (BatchMax 1), then on; the result cache is disabled so repeat keys cannot mask batching")
	replicasFlag := fs.String("replicas", "", "in-process scaling mode: comma-separated fleet sizes (e.g. 1,2,4,8); each size runs the identical workload through an in-process dprouter over that many dpserve replicas")
	ablate := fs.Bool("ablate-random", false, "scaling mode: rerun the largest fleet with random (non-affine) placement as the cache-affinity ablation")
	workers := fs.Int("workers", 0, "in-process server: solves that run at once outside the micro-batcher (0 = NumCPU)")
	timeout := fs.Duration("timeout", 2*time.Second, "in-process server: per-request solve budget (the deadline admission prices against)")
	cache := fs.Int("cache", 0, "in-process server: per-replica LRU result-cache entries (0 = server default, negative disables)")
	batchMax := fs.Int("batch-max", 0, "in-process server: micro-batch size cap (0 = server default, 1 disables batching)")
	admit := fs.Bool("admit", false, "in-process server: enable cycle-model admission control (single-run mode)")
	admitHeadroom := fs.Float64("admit-headroom", 1.2, "in-process server: admission safety factor")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	var fleet []int
	if *replicasFlag != "" {
		for _, f := range strings.Split(*replicasFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return config{}, fmt.Errorf("bad -replicas entry %q (want positive fleet sizes like 1,2,4,8)", f)
			}
			fleet = append(fleet, n)
		}
	}
	kinds := strings.Split(*mix, ",")
	for i, k := range kinds {
		kinds[i] = strings.TrimSpace(k)
		if !slices.Contains(spec.Kinds(), kinds[i]) {
			return config{}, fmt.Errorf("unknown mix kind %q (have %s)", kinds[i], strings.Join(spec.Kinds(), ","))
		}
	}
	if *compare && *addr != "" {
		return config{}, fmt.Errorf("-compare needs the in-process server (drop -addr)")
	}
	if *compareBatch && *addr != "" {
		return config{}, fmt.Errorf("-compare-batch needs the in-process server (drop -addr)")
	}
	if *compareBatch && *compare {
		return config{}, fmt.Errorf("-compare and -compare-batch are separate experiments; pick one")
	}
	if *compareBatch && len(fleet) > 0 {
		return config{}, fmt.Errorf("-replicas and -compare-batch are separate experiments; pick one")
	}
	if len(fleet) > 0 && *addr != "" {
		return config{}, fmt.Errorf("-replicas scaling mode needs the in-process fleet (drop -addr)")
	}
	if len(fleet) > 0 && *compare {
		return config{}, fmt.Errorf("-replicas and -compare are separate experiments; pick one")
	}
	if *ablate && len(fleet) == 0 {
		return config{}, fmt.Errorf("-ablate-random needs -replicas")
	}
	return config{
		addr:         *addr,
		duration:     *duration,
		rps:          *rps,
		overload:     *overload,
		ramp:         *ramp,
		conc:         *conc,
		mix:          kinds,
		scale:        *scale,
		seed:         *seed,
		keys:         *keys,
		out:          *out,
		compare:      *compare,
		compareBatch: *compareBatch,
		replicas:     fleet,
		ablate:       *ablate,

		workers:       *workers,
		timeout:       *timeout,
		cache:         *cache,
		batchMax:      *batchMax,
		admit:         *admit,
		admitHeadroom: *admitHeadroom,
	}, nil
}

// specBody is one marshalled instance tagged with its problem kind, so
// the load loop can tally outcomes per kind without re-parsing JSON.
type specBody struct {
	kind string
	raw  []byte
}

// bodies is a concurrency-safe stream of marshalled spec instances drawn
// from the check generator. Instances the wire format cannot express
// (±Inf single-edge graphs) are skipped and regenerated. With a key
// pool (keyed), next samples uniformly from a fixed set of distinct
// specs instead, so the same canonical hashes recur and server-side
// result caches have something to hit.
type bodies struct {
	mu   sync.Mutex
	rng  *rand.Rand
	mix  []string
	gcfg check.GenConfig
	pool []specBody // nil = fresh instance per request
}

func newBodies(seed int64, mix []string, scale int) *bodies {
	if scale < 1 {
		scale = 1
	}
	// The generator's defaults are sized for fast differential checks;
	// scaling them up makes each request a meaningful unit of solve work
	// so overload is reachable at sane request rates.
	gcfg := check.GenConfig{
		MaxStages: 7 * scale,
		MaxM:      6 * scale,
		MaxLen:    12 * scale,
		MaxChain:  8 * scale,
		MaxVars:   6 * scale,
	}
	return &bodies{rng: rand.New(rand.NewSource(seed)), mix: mix, gcfg: gcfg}
}

// keyed freezes the generator into a pool of n distinct specs; next then
// samples from the pool. Same seed + mix + scale + n = same pool, so
// every run in a comparison faces the same key population.
func (b *bodies) keyed(n int) *bodies {
	b.pool = make([]specBody, n)
	for i := range b.pool {
		b.pool[i] = b.generate()
	}
	return b
}

func (b *bodies) next() specBody {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pool != nil {
		return b.pool[b.rng.Intn(len(b.pool))]
	}
	return b.generate()
}

// generate draws one fresh marshalled instance. Callers hold b.mu (or
// have exclusive ownership during pool construction).
func (b *bodies) generate() specBody {
	for {
		in := check.GenKind(b.rng, b.mix[b.rng.Intn(len(b.mix))], b.gcfg)
		if in.File.Validate() != nil {
			continue
		}
		raw, err := in.File.Marshal()
		if err != nil {
			continue
		}
		return specBody{kind: in.Kind(), raw: raw}
	}
}

// RunReport is the measured outcome of one load run.
type RunReport struct {
	Name        string         `json:"name"`
	TargetRPS   float64        `json:"target_rps"`
	Duration    string         `json:"duration"`
	Sent        int64          `json:"sent"`
	Dropped     int64          `json:"dropped_client_side"` // pacing slots with no free lane
	Statuses    map[string]int `json:"statuses"`
	RetryAfter  int64          `json:"retry_after_headers"` // 429s carrying Retry-After
	NetErrors   int64          `json:"net_errors"`
	GoodputRPS  float64        `json:"goodput_rps"` // 200s per second of window
	P50ms       float64        `json:"p50_ms"`      // latency of 200s
	P95ms       float64        `json:"p95_ms"`
	P99ms       float64        `json:"p99_ms"`
	ShedP50ms   float64        `json:"shed_p50_ms"` // latency of 429s (0 if none)
	AdmitConfig string         `json:"admit,omitempty"`
	BatchConfig string         `json:"batch,omitempty"` // compare-batch provenance

	// Per-kind goodput: 200s per second of window, keyed by the problem
	// kind of the REQUEST (the generator's tag, not the server's view) —
	// the denominator every batching gain in EXPERIMENTS.md is quoted in.
	OKByKind      map[string]int64   `json:"ok_by_kind,omitempty"`
	GoodputByKind map[string]float64 `json:"goodput_by_kind_rps,omitempty"`

	// Batching observability, scraped from the target's /metrics after
	// the window (in-process runs only): flush count and mean instances
	// per flush, keyed by batch kernel kind (graph-stream).
	BatchFlushes       map[string]float64 `json:"batch_flushes,omitempty"`
	BatchOccupancyMean map[string]float64 `json:"batch_occupancy_mean,omitempty"`

	// Cache observability (from the X-Dpserve-Cache response header,
	// which proxies pass through; zero when the pool is fresh-per-request
	// and hits are impossible).
	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"` // hits / (hits+misses) among 200s

	// Scaling-mode provenance.
	Replicas int    `json:"replicas,omitempty"` // fleet size behind the router
	Policy   string `json:"policy,omitempty"`   // router placement policy
}

// Report is the full dpload output.
type Report struct {
	GeneratedBy string      `json:"generated_by"`
	Target      string      `json:"target"`
	Mix         []string    `json:"mix"`
	Seed        int64       `json:"seed"`
	Keys        int         `json:"keys,omitempty"` // fixed key-pool size (0 = fresh spec per request)
	CapacityRPS float64     `json:"probed_capacity_rps,omitempty"`
	Runs        []RunReport `json:"runs"`
}

// loadRun drives one measured window against base and tallies outcomes.
func loadRun(base string, cfg config, name string, targetRPS float64, gen *bodies) RunReport {
	client := &http.Client{Timeout: cfg.timeout + 10*time.Second}
	type sample struct {
		status     int
		kind       string
		latency    time.Duration
		retryAfter bool
		cache      string // X-Dpserve-Cache: "hit", "miss", or ""
	}
	samples := make(chan sample, cfg.conc)
	launch := make(chan specBody, cfg.conc)
	var sent, dropped, netErrs atomic.Int64

	var workers sync.WaitGroup
	for i := 0; i < cfg.conc; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for body := range launch {
				start := time.Now()
				resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(body.raw))
				if err != nil {
					netErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				samples <- sample{
					status:     resp.StatusCode,
					kind:       body.kind,
					latency:    time.Since(start),
					retryAfter: resp.Header.Get("Retry-After") != "",
					cache:      resp.Header.Get("X-Dpserve-Cache"),
				}
			}
		}()
	}

	// Collector drains samples so workers never block on the channel.
	statuses := map[string]int{}
	okByKind := map[string]int64{}
	var okLat, shedLat []time.Duration
	var retryAfter, cacheHits, cacheMisses int64
	var collect sync.WaitGroup
	collect.Add(1)
	go func() {
		defer collect.Done()
		for s := range samples {
			statuses[fmt.Sprintf("%d", s.status)]++
			switch s.status {
			case http.StatusOK:
				okLat = append(okLat, s.latency)
				okByKind[s.kind]++
				switch s.cache {
				case "hit":
					cacheHits++
				case "miss":
					cacheMisses++
				}
			case http.StatusTooManyRequests:
				shedLat = append(shedLat, s.latency)
				if s.retryAfter {
					retryAfter++
				}
			}
		}
	}()

	// Pacer: accumulate launch credit at the (ramping) target rate and
	// spend the deficit each tick — per-request sleeps cannot reach
	// thousands of rps through the scheduler's sleep granularity. A slot
	// that finds every lane busy is a client-side drop, keeping the loop
	// closed rather than buffering unbounded offered load.
	start := time.Now()
	rampDur := time.Duration(cfg.ramp * float64(cfg.duration))
	const tick = 2 * time.Millisecond
	due := 0.0
	last := start
	for {
		now := time.Now()
		elapsed := now.Sub(start)
		if elapsed >= cfg.duration {
			break
		}
		rate := targetRPS
		if rampDur > 0 && elapsed < rampDur {
			frac := float64(elapsed) / float64(rampDur)
			rate = targetRPS * (0.1 + 0.9*frac)
		}
		due += rate * now.Sub(last).Seconds()
		last = now
		for due >= 1 {
			due--
			select {
			case launch <- gen.next():
				sent.Add(1)
			default:
				dropped.Add(1)
			}
		}
		time.Sleep(tick)
	}
	close(launch)
	workers.Wait()
	close(samples)
	collect.Wait()
	window := time.Since(start)

	pct := func(lats []time.Duration, p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	hitRate := 0.0
	if cacheHits+cacheMisses > 0 {
		hitRate = float64(cacheHits) / float64(cacheHits+cacheMisses)
	}
	goodByKind := map[string]float64{}
	for k, n := range okByKind {
		goodByKind[k] = float64(n) / window.Seconds()
	}
	return RunReport{
		Name:         name,
		TargetRPS:    targetRPS,
		Duration:     window.Round(time.Millisecond).String(),
		Sent:         sent.Load(),
		Dropped:      dropped.Load(),
		Statuses:     statuses,
		RetryAfter:   retryAfter,
		NetErrors:    netErrs.Load(),
		GoodputRPS:   float64(statuses["200"]) / window.Seconds(),
		P50ms:        pct(okLat, 0.50),
		P95ms:        pct(okLat, 0.95),
		P99ms:        pct(okLat, 0.99),
		ShedP50ms:    pct(shedLat, 0.50),
		CacheHits:    cacheHits,
		CacheMisses:  cacheMisses,
		CacheHitRate: hitRate,

		OKByKind:      okByKind,
		GoodputByKind: goodByKind,
	}
}

// scrapeBatching reads the target's /metrics exposition and extracts the
// batching view: flush counts and mean flush occupancy per execution-path
// kind. Errors are swallowed (nil maps) — an external target may not be a
// dpserve replica at all.
func scrapeBatching(base string) (flushes, occMean map[string]float64) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil
	}
	fams, err := promtext.Parse(string(raw))
	if err != nil {
		return nil, nil
	}
	f := fams["dpserve_batch_occupancy"]
	if f == nil {
		return nil, nil
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, s := range f.Samples {
		switch s.Name {
		case "dpserve_batch_occupancy_sum":
			sums[s.Labels["kind"]] = s.Value
		case "dpserve_batch_occupancy_count":
			counts[s.Labels["kind"]] = s.Value
		}
	}
	flushes = map[string]float64{}
	occMean = map[string]float64{}
	for kind, c := range counts {
		if c == 0 {
			continue
		}
		flushes[kind] = c
		occMean[kind] = sums[kind] / c
	}
	return flushes, occMean
}

// probeCapacity measures the server's sustainable rate with a short
// flat-out closed loop (a few lanes, no pacing): completed requests per
// second approximate capacity under the given mix.
func probeCapacity(base string, cfg config, gen *bodies) float64 {
	const lanes = 4
	window := cfg.duration / 4
	if window < time.Second {
		window = time.Second
	}
	if window > 5*time.Second {
		window = 5 * time.Second
	}
	client := &http.Client{Timeout: cfg.timeout + 10*time.Second}
	var done atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, err := client.Post(base+"/solve", "application/json", bytes.NewReader(gen.next().raw))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rps := float64(done.Load()) / window.Seconds()
	if rps < 1 {
		rps = 1
	}
	return rps
}

// inprocServer starts a loopback dpserve and returns its base URL and a
// shutdown func.
func inprocServer(cfg config, admit bool) (string, func(), error) {
	s := serve.New(serve.Config{
		Workers:       cfg.workers,
		Timeout:       cfg.timeout,
		CacheSize:     cfg.cache,
		BatchMax:      cfg.batchMax,
		AdmitEnabled:  admit,
		AdmitHeadroom: cfg.admitHeadroom,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		s.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// inprocFleet starts n loopback dpserve replicas behind an in-process
// dprouter and returns the router's base URL and a shutdown func that
// tears the whole stack down (router first, then replicas).
func inprocFleet(cfg config, n int, policy string) (string, func(), error) {
	var repStops []func()
	var bases []string
	fail := func(err error) (string, func(), error) {
		for _, s := range repStops {
			s()
		}
		return "", nil, err
	}
	for i := 0; i < n; i++ {
		base, stop, err := inprocServer(cfg, cfg.admit)
		if err != nil {
			return fail(err)
		}
		bases = append(bases, base)
		repStops = append(repStops, stop)
	}
	rt, err := route.New(route.Config{
		Replicas:       bases,
		Policy:         policy,
		HealthInterval: 100 * time.Millisecond,
		Deadline:       cfg.timeout,
	})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return fail(err)
	}
	hs := &http.Server{Handler: rt.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		rt.Close()
		for _, s := range repStops {
			s()
		}
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// runScaling is the fleet-size experiment: the identical keyed workload
// through an in-process dprouter at each size in cfg.replicas, with the
// offered rate fixed across sizes (probed once on the first fleet). A
// final optional run repeats the largest fleet with random placement —
// same replicas, no shard affinity — as the ablation that shows the
// cache-hit collapse consistent hashing prevents.
func runScaling(cfg config, report *Report, stdout io.Writer) error {
	gen := func(seed int64) *bodies {
		b := newBodies(seed, cfg.mix, cfg.scale)
		if cfg.keys > 0 {
			b = b.keyed(cfg.keys)
		}
		return b
	}
	target := cfg.rps
	type fleetRun struct {
		n      int
		policy string
	}
	runs := make([]fleetRun, 0, len(cfg.replicas)+1)
	maxN := 0
	for _, n := range cfg.replicas {
		runs = append(runs, fleetRun{n, route.PolicyHash})
		if n > maxN {
			maxN = n
		}
	}
	if cfg.ablate {
		runs = append(runs, fleetRun{maxN, route.PolicyRandom})
	}
	for _, fr := range runs {
		base, stop, err := inprocFleet(cfg, fr.n, fr.policy)
		if err != nil {
			return err
		}
		if target == 0 {
			report.CapacityRPS = probeCapacity(base, cfg, gen(cfg.seed+1000))
			target = report.CapacityRPS * cfg.overload
		}
		name := fmt.Sprintf("replicas-%d", fr.n)
		if fr.policy != route.PolicyHash {
			name += "-" + fr.policy
		}
		fmt.Fprintf(stdout, "dpload: %s (%s) at %.0f rps for %v against %s\n", name, fr.policy, target, cfg.duration, base)
		rr := loadRun(base, cfg, name, target, gen(cfg.seed))
		rr.Replicas = fr.n
		rr.Policy = fr.policy
		report.Runs = append(report.Runs, rr)
		stop()
	}
	return nil
}

func run(cfg config, stdout io.Writer) error {
	report := Report{
		GeneratedBy: "dpload",
		Target:      cfg.addr,
		Mix:         cfg.mix,
		Seed:        cfg.seed,
		Keys:        cfg.keys,
	}
	if cfg.addr == "" {
		report.Target = "in-process"
	}

	if len(cfg.replicas) > 0 {
		report.Target = "in-process fleet (dprouter)"
		if err := runScaling(cfg, &report, stdout); err != nil {
			return err
		}
		return writeReport(&report, cfg.out, stdout)
	}

	// Each measured run gets a fresh generator with the same seed, so
	// every phase of a comparison faces byte-identical workloads.
	type phase struct {
		name  string
		admit bool
		cfg   config // per-phase in-process server knobs
	}
	phases := []phase{{"run", cfg.admit, cfg}}
	if cfg.compare {
		phases = []phase{{"admit-off", false, cfg}, {"admit-on", true, cfg}}
	}
	if cfg.compareBatch {
		// Identical workload, batching off (BatchMax 1 routes every kind to
		// the solve slots) then on. The result cache is forced off in BOTH
		// phases: with a -keys pool, repeat keys would otherwise resolve as
		// cache hits and never reach the batcher, flattering neither side.
		off, on := cfg, cfg
		off.batchMax, off.cache = 1, -1
		on.batchMax, on.cache = cfg.batchMax, -1
		phases = []phase{{"batch-off", cfg.admit, off}, {"batch-on", cfg.admit, on}}
	}

	gen := func(seed int64) *bodies {
		b := newBodies(seed, cfg.mix, cfg.scale)
		if cfg.keys > 0 {
			b = b.keyed(cfg.keys)
		}
		return b
	}
	target := cfg.rps
	for _, ph := range phases {
		base := cfg.addr
		stop := func() {}
		if base == "" {
			var err error
			base, stop, err = inprocServer(ph.cfg, ph.admit)
			if err != nil {
				return err
			}
		}
		if target == 0 {
			// Probe once, on the first phase's server, and reuse the rate so
			// every phase sees the same offered load.
			report.CapacityRPS = probeCapacity(base, cfg, gen(cfg.seed+1000))
			target = report.CapacityRPS * cfg.overload
		}
		fmt.Fprintf(stdout, "dpload: %s at %.0f rps for %v against %s\n", ph.name, target, cfg.duration, base)
		rr := loadRun(base, cfg, ph.name, target, gen(cfg.seed))
		if cfg.addr == "" {
			rr.AdmitConfig = fmt.Sprintf("enabled=%v headroom=%g", ph.admit, cfg.admitHeadroom)
			rr.BatchFlushes, rr.BatchOccupancyMean = scrapeBatching(base)
		}
		if cfg.compareBatch {
			bm := ph.cfg.batchMax
			if bm == 0 {
				bm = 16 // serve.Config default
			}
			rr.BatchConfig = fmt.Sprintf("batch_max=%d cache=off", bm)
		}
		report.Runs = append(report.Runs, rr)
		stop()
	}
	return writeReport(&report, cfg.out, stdout)
}

// writeReport pretty-prints the report to stdout and, when out is set,
// persists it there too.
func writeReport(report *Report, out string, stdout io.Writer) error {
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(raw))
	if out != "" {
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
