package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"systolicdp/internal/route"
)

func TestParseFlagsDefaults(t *testing.T) {
	addr, grace, cfg, err := parseFlags([]string{"-replicas", "localhost:8081"})
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":8090" {
		t.Errorf("addr %q", addr)
	}
	if grace != 3*time.Second {
		t.Errorf("drain-grace default %v", grace)
	}
	if len(cfg.Replicas) != 1 || cfg.Replicas[0] != "localhost:8081" {
		t.Errorf("replicas %v", cfg.Replicas)
	}
	if cfg.VNodes != 128 || cfg.Replication != 2 || cfg.Policy != route.PolicyHash {
		t.Errorf("ring defaults wrong: %+v", cfg)
	}
	if cfg.HealthInterval != time.Second || cfg.EjectAfter != 3 || cfg.ReadmitAfter != 2 {
		t.Errorf("health defaults wrong: %+v", cfg)
	}
	if cfg.Deadline != 30*time.Second {
		t.Errorf("deadline default %v", cfg.Deadline)
	}
	if cfg.Logger == nil {
		t.Error("no logger wired by default")
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	addr, grace, cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:7000",
		"-replicas", "a:1, b:2,,c:3",
		"-replicas-file", "members.txt", "-reload-interval", "5s",
		"-vnodes", "64", "-replication", "3",
		"-health-interval", "200ms", "-health-timeout", "100ms",
		"-eject-after", "5", "-readmit-after", "4",
		"-deadline", "10s",
		"-policy", "random", "-drain-grace", "1s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:7000" || grace != time.Second {
		t.Errorf("addr %q grace %v", addr, grace)
	}
	if len(cfg.Replicas) != 3 || cfg.Replicas[1] != "b:2" {
		t.Errorf("replica list parsed wrong: %v", cfg.Replicas)
	}
	if cfg.ReplicasFile != "members.txt" || cfg.ReloadInterval != 5*time.Second {
		t.Errorf("file reload flags wrong: %+v", cfg)
	}
	if cfg.VNodes != 64 || cfg.Replication != 3 || cfg.Policy != route.PolicyRandom {
		t.Errorf("ring overrides wrong: %+v", cfg)
	}
	if cfg.HealthInterval != 200*time.Millisecond || cfg.HealthTimeout != 100*time.Millisecond {
		t.Errorf("probe overrides wrong: %+v", cfg)
	}
	if cfg.EjectAfter != 5 || cfg.ReadmitAfter != 4 {
		t.Errorf("hysteresis overrides wrong: %+v", cfg)
	}
	if cfg.Deadline != 10*time.Second {
		t.Errorf("deadline override %v", cfg.Deadline)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	if _, _, _, err := parseFlags(nil); err == nil {
		t.Error("no replicas accepted")
	}
	if _, _, _, err := parseFlags([]string{"-replicas", "a:1", "-policy", "nope"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// run must proxy requests end to end and drain like dpserve: /healthz
// flips to 503 on cancellation while the listener still accepts for the
// grace window.
func TestRunProxiesAndDrains(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/solve":
			w.Write([]byte(`{"value":42}`))
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer upstream.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	_, _, cfg, err := parseFlags([]string{"-replicas", upstream.URL, "-health-interval", "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, 500*time.Millisecond, cfg) }()

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
			t.Fatal("router never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/solve", "application/json",
		strings.NewReader(`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied solve status %d", resp.StatusCode)
	}

	cancel()
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
