package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	addr, grace, cfg := parseFlags(nil)
	if addr != ":8080" {
		t.Errorf("addr %q", addr)
	}
	if grace != 3*time.Second {
		t.Errorf("drain-grace default %v", grace)
	}
	if cfg.QueueSize != 256 || cfg.BatchMax != 16 || cfg.CacheSize != 1024 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.BatchWindow != 2*time.Millisecond || cfg.Timeout != 30*time.Second {
		t.Errorf("duration defaults wrong: %+v", cfg)
	}
	if cfg.TraceSpans != 256 || cfg.EnablePprof {
		t.Errorf("observability defaults wrong: %+v", cfg)
	}
	if cfg.Logger == nil {
		t.Error("no logger wired by default")
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	addr, grace, cfg := parseFlags([]string{
		"-addr", "127.0.0.1:9999", "-workers", "3", "-queue", "7",
		"-batch-window", "5ms", "-batch-max", "1", "-cache", "-1",
		"-timeout", "2s", "-trace-spans", "32", "-pprof",
		"-drain-grace", "250ms",
	})
	if addr != "127.0.0.1:9999" {
		t.Errorf("addr %q", addr)
	}
	if grace != 250*time.Millisecond {
		t.Errorf("drain-grace override %v", grace)
	}
	if cfg.Workers != 3 || cfg.QueueSize != 7 || cfg.BatchMax != 1 || cfg.CacheSize != -1 {
		t.Errorf("overrides wrong: %+v", cfg)
	}
	if cfg.BatchWindow != 5*time.Millisecond || cfg.Timeout != 2*time.Second {
		t.Errorf("duration overrides wrong: %+v", cfg)
	}
	if cfg.TraceSpans != 32 || !cfg.EnablePprof {
		t.Errorf("observability overrides wrong: %+v", cfg)
	}
}

// Regression: before the drain-grace fix, run() answered /healthz 200
// right up until the listener closed — a load balancer probing health
// had no window to stop routing, so in-flight-adjacent requests hit
// connection-refused. Now cancellation must flip /healthz to 503 while
// the listener still accepts, for the full grace window, before
// shutdown proceeds.
func TestRunDrainGraceFlipsHealthzBeforeListenerCloses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	_, _, cfg := parseFlags(nil)
	cfg.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, 1*time.Second, cfg) }()

	// Wait for the server to come up healthy.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()

	// During the grace window the listener must still accept and healthz
	// must answer 503 — that combination is the fix. Pre-fix we'd see 200
	// until the connection was refused outright.
	saw503 := false
	deadline = time.Now().Add(5 * time.Second)
	for !saw503 {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			if resp.StatusCode == http.StatusServiceUnavailable {
				saw503 = true
			}
			resp.Body.Close()
		} else {
			t.Fatalf("listener closed before /healthz ever answered 503: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503 after cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never returned after cancellation")
	}
}
