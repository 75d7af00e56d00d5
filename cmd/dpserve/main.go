// Command dpserve runs the long-lived DP-solving service: an HTTP/JSON
// endpoint that accepts internal/spec problem files, micro-batches
// concurrent Design-1 graph requests through one streamed pipelined
// array, caches results by canonical spec hash, and exports metrics.
//
// Usage:
//
//	dpserve -addr :8080
//	curl -s -X POST localhost:8080/solve -d '{"problem":"chain","dims":[30,35,15,5,10,20,25]}'
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /solve (spec.File in, solution JSON out), GET /healthz,
// GET /metrics (Prometheus text format), GET /debug/dptrace (recent
// request-lifecycle spans as Perfetto trace-event JSON), and — behind
// -pprof — the net/http/pprof profiler under /debug/pprof/.
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
	"syscall"
	"time"

	"systolicdp/internal/serve"
)

func main() {
	addr, grace, cfg := parseFlags(os.Args[1:])
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpserve:", err)
		os.Exit(1)
	}
	if err := run(ctx, ln, grace, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dpserve:", err)
		os.Exit(1)
	}
}

// parseFlags builds the listen address, drain grace, and server config
// from argv.
func parseFlags(args []string) (string, time.Duration, serve.Config) {
	fs := flag.NewFlagSet("dpserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "solves that run at once outside the micro-batcher, a late one included (0 = NumCPU)")
	queue := fs.Int("queue", 256, "requests that may wait for a solve slot, or for a micro-batch flush (past it, 429)")
	window := fs.Duration("batch-window", 2*time.Millisecond, "micro-batch collection window for Design-1 graph requests")
	batchMax := fs.Int("batch-max", 16, "flush a micro-batch at this many instances (<=1 disables batching)")
	cacheSize := fs.Int("cache", 1024, "LRU result-cache entries (<0 disables)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request budget: a request still waiting at it answers 504, while a solve already running finishes")
	traceSpans := fs.Int("trace-spans", 256, "request spans retained for /debug/dptrace")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	admit := fs.Bool("admit", false, "cycle-model admission control: shed requests predicted to miss their deadline with 429 + Retry-After")
	admitHeadroom := fs.Float64("admit-headroom", 1.2, "safety factor on predicted completion time (shed iff predicted*headroom > deadline)")
	drainGrace := fs.Duration("drain-grace", 3*time.Second, "on SIGTERM, keep serving with /healthz=503 this long so load balancers stop routing before the listener closes")
	fs.Parse(args)
	return *addr, *drainGrace, serve.Config{
		Workers:       *workers,
		QueueSize:     *queue,
		BatchWindow:   *window,
		BatchMax:      *batchMax,
		CacheSize:     *cacheSize,
		Timeout:       *timeout,
		TraceSpans:    *traceSpans,
		EnablePprof:   *pprof,
		AdmitEnabled:  *admit,
		AdmitHeadroom: *admitHeadroom,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
}

// run serves on ln until ctx is cancelled, then shuts down in load
// balancer friendly order: first flip /healthz to 503 (BeginDrain) while
// the listener keeps accepting for the grace window — so routers probing
// health stop sending new work before connections start being refused —
// then stop accepting, finish in-flight exchanges, and drain the solving
// queues. The listener and context are injected so tests can drive the
// whole lifecycle.
func run(ctx context.Context, ln net.Listener, grace time.Duration, cfg serve.Config) error {
	s := serve.New(cfg)
	srv := &http.Server{Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("dpserve listening on %s", ln.Addr())
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("dpserve: draining (healthz 503 for %v)", grace)
	s.BeginDrain()
	if grace > 0 {
		timer := time.NewTimer(grace)
		select {
		case <-timer.C:
		case err := <-errc:
			// Listener died during the grace window; nothing left to drain
			// gracefully.
			timer.Stop()
			s.Close()
			return err
		}
	}

	log.Print("dpserve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	s.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
