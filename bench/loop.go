package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// clientCount is the closed loop's width: min(2, nproc) connections.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// sample is one measured request.
type sample struct {
	client     int
	slot       int     // position in the schedule cycle
	start, end float64 // seconds since the loop began
	latencyMS  float64
	firstMS    float64
	rows       int
	bytes      int
}

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	perClient [][]sample // measured requests, in send order
	attempted int
	failed    int
	firstErr  error
}

// loopConfig describes one closed-loop phase against addr.
type loopConfig struct {
	addr      string
	graph     string
	sched     []request
	want      []answer // per slot; only rows is checked in the timed phase
	clients   int
	warm, dur time.Duration
	uniq      string  // prefix of the never-repeating literals
	tr        *tracer // when set, a span is recorded around every HTTP call
}

// runClosedLoop drives cfg.clients connections, each cycling the schedule
// from its own offset and sending its next request only when the previous
// answer is complete. Requests started during the warm-up are not
// recorded; the phase ends when every client has finished the request in
// flight at warm+dur.
func runClosedLoop(cfg loopConfig) loopResult {
	res := loopResult{perClient: make([][]sample, cfg.clients)}
	bodies := make([][]byte, len(cfg.sched))
	for i, r := range cfg.sched {
		if !r.Unique {
			bodies[i] = r.body(cfg.graph, "")
		}
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	t0 := time.Now()
	measureFrom, until := t0.Add(cfg.warm), t0.Add(cfg.warm+cfg.dur)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(cfg.addr)
			defer cl.close()
			var samples []sample
			attempted, failed := 0, 0
			var firstErr error
			pos := c * len(cfg.sched) / cfg.clients
			for n := 0; ; n++ {
				slot := (pos + n) % len(cfg.sched)
				body := bodies[slot]
				if body == nil {
					body = cfg.sched[slot].body(cfg.graph, fmt.Sprintf("%s-%d-%d", cfg.uniq, c, n))
				}
				start := time.Now()
				if !start.Before(until) {
					break
				}
				span := -1
				if cfg.tr != nil {
					span = cfg.tr.begin("http.request", c*1_000_000+n)
				}
				rep, err := cl.query(body)
				if span >= 0 {
					cfg.tr.end(span)
				}
				if err == nil && rep.rows != cfg.want[slot].rows {
					err = fmt.Errorf("%s: %d rows, oracle says %d", cfg.sched[slot].Shape, rep.rows, cfg.want[slot].rows)
				}
				if start.Before(measureFrom) && err == nil {
					continue
				}
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				s := start.Sub(t0).Seconds()
				samples = append(samples, sample{
					client: c, slot: slot, start: s, end: s + rep.latency.Seconds(),
					latencyMS: float64(rep.latency) / 1e6, firstMS: float64(rep.firstRow) / 1e6,
					rows: rep.rows, bytes: rep.bytes,
				})
			}
			mu.Lock()
			res.perClient[c] = samples
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// all returns every client's samples in one slice.
func (r loopResult) all() []sample {
	var out []sample
	for _, s := range r.perClient {
		out = append(out, s...)
	}
	return out
}

// throughput reports requests/s and rows/s as the sum over clients of
// each client's median full-cycle rate. A full cycle is cycleLen
// consecutive requests of one client — always the same multiset, whatever
// the offset — so a stall spoils one cycle's rate, not the metric. When a
// client completed no full cycle the plain count over the client's busy
// span is used instead; cycles reports the full cycles counted.
func (r loopResult) throughput(cycleLen int) (qps, rowsPerS float64, cycles int) {
	for _, s := range r.perClient {
		var q, rw []float64
		for j := 0; (j+1)*cycleLen <= len(s); j++ {
			cyc := s[j*cycleLen : (j+1)*cycleLen]
			d := cyc[len(cyc)-1].end - cyc[0].start
			rows := 0
			for _, x := range cyc {
				rows += x.rows
			}
			q = append(q, float64(cycleLen)/d)
			rw = append(rw, float64(rows)/d)
		}
		if len(q) == 0 && len(s) > 0 {
			d := s[len(s)-1].end - s[0].start
			rows := 0
			for _, x := range s {
				rows += x.rows
			}
			q, rw = []float64{float64(len(s)) / d}, []float64{float64(rows) / d}
		}
		cycles += len(s) / cycleLen
		if len(q) > 0 {
			qps += median(q)
			rowsPerS += median(rw)
		}
	}
	return qps, rowsPerS, cycles
}
