// Command dprouter fronts a fleet of dpserve replicas with a
// consistent-hash routing tier: each request's canonical spec hash picks
// a stable owner replica, so every replica's LRU cache and singleflight
// stay shard-local and the fleet's aggregate cache capacity scales with
// its size.
//
// Usage:
//
//	dprouter -addr :8090 -replicas localhost:8081,localhost:8082
//	dprouter -addr :8090 -replicas-file replicas.txt
//	curl -s -X POST localhost:8090/solve -d '{"problem":"chain","dims":[30,35,15,5,10,20,25]}'
//
// Endpoints: POST /solve (proxied to the owner replica with deadline
// propagation and ring-successor failover), GET /healthz (503 while
// draining), GET /statusz (router drain state, policy, and each
// replica's health, in-flight forwards and ring share; a replica's load
// and cache numbers are on its own /metrics), GET /metrics
// (Prometheus text format), GET /debug/dptrace (the router's own hop
// spans; ?format=wire for the raw span list), GET /debug/fleettrace
// (the whole fleet's recent spans stitched into one Perfetto document
// keyed by distributed trace id).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"systolicdp/internal/route"
)

func main() {
	addr, grace, cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dprouter:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dprouter:", err)
		os.Exit(1)
	}
	if err := run(ctx, ln, grace, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dprouter:", err)
		os.Exit(1)
	}
}

// parseFlags builds the listen address, drain grace, and router config
// from argv.
func parseFlags(args []string) (string, time.Duration, route.Config, error) {
	fs := flag.NewFlagSet("dprouter", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	replicas := fs.String("replicas", "", "comma-separated dpserve base URLs (host:port accepted)")
	replicasFile := fs.String("replicas-file", "", "membership file (one base URL per line, '#' comments); polled and hot-reloaded")
	reload := fs.Duration("reload-interval", 2*time.Second, "membership file poll period")
	vnodes := fs.Int("vnodes", 128, "virtual nodes per replica on the hash ring")
	replication := fs.Int("replication", 2, "failover depth: distinct ring successors tried per key")
	healthInterval := fs.Duration("health-interval", time.Second, "replica health probe period")
	healthTimeout := fs.Duration("health-timeout", 500*time.Millisecond, "per-probe budget")
	ejectAfter := fs.Int("eject-after", 3, "consecutive probe failures before a replica is ejected")
	readmitAfter := fs.Int("readmit-after", 2, "consecutive probe successes before readmission")
	deadline := fs.Duration("deadline", 30*time.Second, "default per-request budget when the client sends no X-Deadline-Ms")
	policy := fs.String("policy", route.PolicyHash, "placement policy: hash (shard-affine, default) or random (ablation baseline)")
	drainGrace := fs.Duration("drain-grace", 3*time.Second, "on SIGTERM, keep serving with /healthz=503 this long so upstream load balancers stop routing before the listener closes")
	traceSpans := fs.Int("trace-spans", 256, "hop spans retained for /debug/dptrace and fleet stitching")
	slowTrace := fs.Duration("slow-trace", 0, "log every stitched trace at least this slow, once, with its cross-tier phase breakdown (0 disables)")
	collectInterval := fs.Duration("collect-interval", 2*time.Second, "fleet span collection period when -slow-trace is set")
	fs.Parse(args)

	cfg := route.Config{
		ReplicasFile:    *replicasFile,
		ReloadInterval:  *reload,
		VNodes:          *vnodes,
		Replication:     *replication,
		HealthInterval:  *healthInterval,
		HealthTimeout:   *healthTimeout,
		EjectAfter:      *ejectAfter,
		ReadmitAfter:    *readmitAfter,
		Deadline:        *deadline,
		Policy:          *policy,
		TraceSpans:      *traceSpans,
		SlowTrace:       *slowTrace,
		CollectInterval: *collectInterval,
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			cfg.Replicas = append(cfg.Replicas, r)
		}
	}
	if len(cfg.Replicas) == 0 && cfg.ReplicasFile == "" {
		return "", 0, cfg, errors.New("no replicas: set -replicas or -replicas-file")
	}
	if cfg.Policy != route.PolicyHash && cfg.Policy != route.PolicyRandom {
		return "", 0, cfg, fmt.Errorf("unknown -policy %q (want %s or %s)", cfg.Policy, route.PolicyHash, route.PolicyRandom)
	}
	return *addr, *drainGrace, cfg, nil
}

// run serves on ln until ctx is cancelled, then shuts down in the same
// load balancer friendly order as dpserve: flip /healthz to 503 while
// still accepting for the grace window, then stop accepting, finish
// in-flight proxies, and release the replica fleet.
func run(ctx context.Context, ln net.Listener, grace time.Duration, cfg route.Config) error {
	rt, err := route.New(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rt.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("dprouter listening on %s (%d replicas)", ln.Addr(), len(rt.ReplicaBases()))
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		rt.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("dprouter: draining (healthz 503 for %v)", grace)
	rt.BeginDrain()
	if grace > 0 {
		timer := time.NewTimer(grace)
		select {
		case <-timer.C:
		case err := <-errc:
			timer.Stop()
			rt.Close()
			return err
		}
	}

	log.Print("dprouter: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = srv.Shutdown(sctx)
	rt.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
