package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request for error accounting.
type outcome uint8

const (
	outOK        outcome = iota // 200 with the reference answer
	outStatus                   // non-200 response
	outTransport                // no response
	outWrong                    // 200 with a different answer
)

// sample is one request of the measured window. It holds no pointers, so
// the window's megabytes of samples add no marking work to the garbage
// collector the system under test shares with the benchmark.
type sample struct {
	lat     time.Duration // the HTTP call: request sent to body read
	end     time.Duration // since the window opened, when the answer was checked
	outcome outcome
	hit     bool // X-Dpserve-Cache: hit
}

// client is one closed-loop caller on its own HTTP connection: it sends
// its next request only after the previous one has returned.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
	t   *tracer // nil in untraced runs
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends one request and checks its answer against want.
func (c *client) do(url string, id uint64, pool int32, in input, want answer) sample {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(in.body))
	if err != nil {
		return sample{outcome: outTransport}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", strconv.FormatUint(id, 10))
	t1 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	t2 := time.Now()
	s := sample{lat: t2.Sub(t1)}
	switch {
	case err != nil:
		s.outcome = outTransport
	case resp.StatusCode != http.StatusOK:
		s.outcome = outStatus
	default:
		s.hit = resp.Header.Get("X-Dpserve-Cache") == "hit"
		var got answer
		if json.Unmarshal(c.buf.Bytes(), &got) != nil || !got.equal(want) {
			s.outcome = outWrong
		}
	}
	if c.t != nil {
		t3 := time.Now()
		c.t.record(span{req: id, layer: lRequest, parent: noParent, pool: pool, start: c.t.at(t1), end: c.t.at(t2)})
		c.t.record(span{req: id, layer: lClient, parent: noParent, start: c.t.at(t0), end: c.t.at(t1)})
		c.t.record(span{req: id, layer: lClient, parent: noParent, start: c.t.at(t2), end: c.t.at(t3)})
	}
	return s
}

// window is the outcome of the measured window.
type window struct {
	samples    []sample
	elapsed    time.Duration
	allocBytes uint64 // process-wide bytes allocated during the window
}

// runWindow drives the closed loop for d: each client takes the next
// request index, sends the workload's draw for it, and repeats until the
// window closes. Requests already sent when it closes are awaited and
// counted, and the window ends with the last of them.
func runWindow(clients []*client, url string, w *workload, answers []answer, d time.Duration) window {
	var next atomic.Uint64
	per := make([][]sample, len(clients))
	for i := range per {
		per[i] = make([]sample, 0, 1<<17)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				pi := w.pick(i)
				s := c.do(url, i, int32(pi), w.pool[pi], answers[pi])
				s.end = time.Since(start)
				per[ci] = append(per[ci], s)
			}
		}(ci, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	var all []sample
	for _, ss := range per {
		all = append(all, ss...)
	}
	return window{samples: all, elapsed: elapsed, allocBytes: after.TotalAlloc - before.TotalAlloc}
}

// perSecond counts the correct responses in each second of the window.
func (w window) perSecond() []int {
	counts := make([]int, int(w.elapsed/time.Second)+1)
	for _, s := range w.samples {
		if s.outcome == outOK {
			counts[int(s.end/time.Second)]++
		}
	}
	return counts
}

// warmIDBase is the first warm-up request id; window ids count from 0,
// so the two never collide.
const warmIDBase = 1 << 62

// warmUp sends every warm-up input once, spread over the clients, and
// returns how many did not come back with the reference answer.
func warmUp(clients []*client, url string, ins []input, answers []answer) int {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ins) {
					return
				}
				if c.do(url, warmIDBase+uint64(i), -1, ins[i], answers[i]).outcome != outOK {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(bad.Load())
}
