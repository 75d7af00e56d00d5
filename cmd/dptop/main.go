// Command dptop is a live terminal dashboard for a dpserve fleet behind
// dprouter: one row per replica with RED rates (requests, errors,
// duration) computed as counter deltas between polls, admission backlog,
// cache hit rate, consistent-hash ring ownership share and health state.
//
//	dptop -router http://localhost:8090
//	dptop -router http://localhost:8090 -once | jq .
//
// It polls the router's /statusz for fleet membership, health and ring
// ownership, then each replica's /metrics (Prometheus text, parsed with
// internal/promtext) for everything else: the rate-bearing counters,
// the admission backlog and the cache counters. -once takes two polls
// one interval apart and prints a single machine-readable JSON snapshot
// — what the CI smoke test asserts against.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"systolicdp/internal/promtext"
)

func main() {
	router := flag.String("router", "http://localhost:8090", "dprouter base URL")
	interval := flag.Duration("interval", 2*time.Second, "poll period (and the RED rate window)")
	once := flag.Bool("once", false, "take two polls one interval apart, print one JSON snapshot, exit")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	base := strings.TrimRight(*router, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if err := run(ctx, client, base, *interval, *once, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dptop:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, client *http.Client, router string, interval time.Duration, once bool, w io.Writer) error {
	prev, err := poll(ctx, client, router)
	if err != nil {
		return err
	}
	if once {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
		cur, err := poll(ctx, client, router)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(buildSnapshot(prev, cur))
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		cur, err := poll(ctx, client, router)
		if err != nil {
			fmt.Fprintf(w, "\x1b[2J\x1b[Hdptop: %v (retrying)\n", err)
			continue
		}
		render(w, buildSnapshot(prev, cur))
		prev = cur
	}
}

// routerView is the subset of dprouter's /statusz dptop consumes. The
// JSON tags mirror internal/route's routerStatusz wire form.
type routerView struct {
	Draining bool            `json:"draining"`
	Policy   string          `json:"policy"`
	Replicas []replicaStatus `json:"replicas"`
}

type replicaStatus struct {
	Base     string  `json:"base"`
	Healthy  bool    `json:"healthy"`
	Removed  bool    `json:"removed"`
	Inflight int64   `json:"inflight"`
	OwnShare float64 `json:"own_share"`
}

// pollResult is one round: the router's fleet view plus every reachable
// replica's parsed /metrics, timestamped for rate computation.
type pollResult struct {
	at        time.Time
	router    routerView
	families  map[string]promtext.Families // by replica base
	scrapeErr map[string]string
}

func poll(ctx context.Context, client *http.Client, router string) (*pollResult, error) {
	p := &pollResult{at: time.Now(), families: map[string]promtext.Families{}, scrapeErr: map[string]string{}}
	if err := getJSON(ctx, client, router+"/statusz", &p.router); err != nil {
		return nil, fmt.Errorf("router statusz: %w", err)
	}
	for _, rep := range p.router.Replicas {
		text, err := getText(ctx, client, rep.Base+"/metrics")
		if err != nil {
			p.scrapeErr[rep.Base] = err.Error()
			continue
		}
		fams, err := promtext.Parse(text)
		if err != nil {
			p.scrapeErr[rep.Base] = err.Error()
			continue
		}
		p.families[rep.Base] = fams
	}
	return p, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func getText(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// row is one replica's assembled dashboard line; also the -once JSON.
type row struct {
	Base           string             `json:"base"`
	Healthy        bool               `json:"healthy"`
	Removed        bool               `json:"removed,omitempty"`
	Inflight       int64              `json:"inflight"`
	OwnShare       float64            `json:"own_share"`
	BacklogSeconds float64            `json:"backlog_seconds"`
	ReqRate        float64            `json:"req_rate"`             // requests/s over the poll window
	ErrRate        float64            `json:"err_rate"`             // errors+rejections+timeouts per second
	P95Ms          float64            `json:"p95_ms"`               // solve latency p95
	CacheHitRate   float64            `json:"cache_hit_rate"`       // cumulative since the replica started
	KindRates      map[string]float64 `json:"kind_rates,omitempty"` // per-problem req/s
	ScrapeError    string             `json:"scrape_error,omitempty"`
}

// snapshot is the full dashboard state for one refresh (-once prints it
// as JSON; interactive mode renders it as a table).
type snapshot struct {
	Router struct {
		Policy   string `json:"policy"`
		Draining bool   `json:"draining"`
	} `json:"router"`
	WindowSeconds float64 `json:"window_seconds"`
	Replicas      []row   `json:"replicas"`
}

// totalRequests sums the per-problem request counter.
func totalRequests(fams promtext.Families) float64 {
	var sum float64
	for _, v := range fams.Labeled("dpserve_requests_total", "problem") {
		sum += v
	}
	return sum
}

// totalErrors sums the failure counters a client would perceive.
func totalErrors(fams promtext.Families) float64 {
	return fams.Value("dpserve_errors_total") +
		fams.Value("dpserve_rejected_total") +
		fams.Value("dpserve_timeouts_total")
}

// buildSnapshot turns two polls into RED rows: rates are counter deltas
// over the wall-clock window, gauges, quantiles and the cumulative cache
// hit rate come from the newer poll, health and placement from the
// router's view.
func buildSnapshot(prev, cur *pollResult) snapshot {
	var snap snapshot
	snap.Router.Policy = cur.router.Policy
	snap.Router.Draining = cur.router.Draining
	dt := cur.at.Sub(prev.at).Seconds()
	snap.WindowSeconds = dt
	for _, st := range cur.router.Replicas {
		r := row{
			Base:     st.Base,
			Healthy:  st.Healthy,
			Removed:  st.Removed,
			Inflight: st.Inflight,
			OwnShare: st.OwnShare,
		}
		curF, ok := cur.families[st.Base]
		if !ok {
			r.ScrapeError = cur.scrapeErr[st.Base]
			if r.ScrapeError == "" {
				r.ScrapeError = "no metrics"
			}
			snap.Replicas = append(snap.Replicas, r)
			continue
		}
		r.BacklogSeconds = curF.Value("dpserve_admit_backlog_seconds")
		if hits, misses := curF.Value("dpserve_cache_hits_total"), curF.Value("dpserve_cache_misses_total"); hits+misses > 0 {
			r.CacheHitRate = hits / (hits + misses)
		}
		r.P95Ms = curF.Labeled("dpserve_solve_latency_quantile_seconds", "quantile")["0.95"] * 1e3
		if prevF, ok := prev.families[st.Base]; ok && dt > 0 {
			r.ReqRate = (totalRequests(curF) - totalRequests(prevF)) / dt
			r.ErrRate = (totalErrors(curF) - totalErrors(prevF)) / dt
			prevKinds := prevF.Labeled("dpserve_requests_total", "problem")
			for kind, v := range curF.Labeled("dpserve_requests_total", "problem") {
				if rate := (v - prevKinds[kind]) / dt; rate > 0 {
					if r.KindRates == nil {
						r.KindRates = map[string]float64{}
					}
					r.KindRates[kind] = rate
				}
			}
		}
		snap.Replicas = append(snap.Replicas, r)
	}
	sort.Slice(snap.Replicas, func(i, j int) bool { return snap.Replicas[i].Base < snap.Replicas[j].Base })
	return snap
}

// render paints one refresh: clear screen, header, one row per replica.
func render(w io.Writer, snap snapshot) {
	fmt.Fprint(w, "\x1b[2J\x1b[H")
	state := "routing"
	if snap.Router.Draining {
		state = "DRAINING"
	}
	fmt.Fprintf(w, "dptop  policy=%s  %s  window=%.1fs  %s\n\n",
		snap.Router.Policy, state, snap.WindowSeconds, time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "%-28s %-7s %7s %7s %8s %6s %8s %6s %5s\n",
		"REPLICA", "HEALTH", "REQ/S", "ERR/S", "P95_MS", "HIT%", "BACKLOG", "SHARE", "INFL")
	for _, r := range snap.Replicas {
		health := "ok"
		switch {
		case r.Removed:
			health = "removed"
		case !r.Healthy:
			health = "EJECTED"
		}
		if r.ScrapeError != "" {
			fmt.Fprintf(w, "%-28s %-7s  scrape failed: %s\n", shorten(r.Base, 28), health, r.ScrapeError)
			continue
		}
		fmt.Fprintf(w, "%-28s %-7s %7.1f %7.1f %8.2f %5.0f%% %7.1fs %5.2f %5d\n",
			shorten(r.Base, 28), health, r.ReqRate, r.ErrRate, r.P95Ms,
			r.CacheHitRate*100, r.BacklogSeconds, r.OwnShare, r.Inflight)
	}
}

func shorten(s string, n int) string {
	s = strings.TrimPrefix(s, "http://")
	if len(s) > n {
		return s[:n-1] + "…"
	}
	return s
}
