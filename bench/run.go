package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one run: one workload, one seed, one mode.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	root    string // directory of the gpml module
	outDir  string
}

// runOutput is what one run reports.
type runOutput struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Notes     []string            `json:"notes,omitempty"`
}

func (o *runOutput) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				o.Metrics[name] = measured{Value: v, Unit: d.Unit, Samples: samples}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// count folds one phase's attempts and failures into the run.
func (o *runOutput) count(attempted, failed int, err error) {
	o.Attempted += attempted
	o.Failed += failed
	if err != nil {
		o.Notes = append(o.Notes, "first failure: "+err.Error())
	}
}

func (o *runOutput) notef(format string, a ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, a...))
}

// warmUp is how long the closed loop runs before samples count. The
// correctness gate has already sent every distinct request once, so plans
// are cached and the heap has grown by then.
const warmUp = time.Second

// windowSeconds is the measured window: BENCHMARK.json's run_seconds,
// which the driver passes back as -seconds on every run. Cycle lengths,
// request sizes, the compaction threshold and the bounds are set for it,
// so numbers from another window compare with nothing.
const windowSeconds = 15

// prepared is a workload's inputs for one seed: graph, schedule cycle and
// the oracle's answer per slot.
type prepared struct {
	d       *graphData
	sched   []request
	want    []answer
	goldens map[string]int // fig1_adhoc: golden row count per shape
}

// prepare builds the schedule from the seed and computes the in-process
// oracle answer of every distinct request.
func prepare(cfg runConfig) (*prepared, error) {
	p := &prepared{}
	if cfg.w.snb {
		d, err := loadSNB(cfg.outDir)
		if err != nil {
			return nil, err
		}
		p.d = d
	} else {
		p.d = loadFig1()
		cases, err := loadFig1Cases(cfg.root)
		if err != nil {
			return nil, err
		}
		p.goldens = map[string]int{}
		for _, c := range cases {
			p.goldens[c.name] = c.goldenRows
		}
	}
	sched, err := cfg.w.schedule(p.d, cfg.root, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	p.sched = sched
	p.want = make([]answer, len(sched))
	memo := map[string]answer{}
	for i, r := range sched {
		a, ok := memo[r.key()]
		if !ok {
			if a, err = oracleAnswer(p.d.store, r, "oracle"); err != nil {
				return nil, fmt.Errorf("oracle %s: %w", r.Shape, err)
			}
			memo[r.key()] = a
		}
		p.want[i] = a
	}
	return p, nil
}

// gate is the correctness check before any timing: every distinct request
// goes through the server once with full decoding and must match the
// oracle in row count and order-insensitive row hash; fig1_adhoc answers
// must also match the conformance goldens' row counts.
func gate(cl *client, p *prepared, uniq string) (attempted, failed int, first error) {
	seen := map[string]bool{}
	for i, r := range p.sched {
		if seen[r.key()] {
			continue
		}
		seen[r.key()] = true
		attempted++
		got, err := cl.queryDecoded(r.body(p.d.name, fmt.Sprintf("%s-%d", uniq, i)))
		switch {
		case err != nil:
		case got != p.want[i]:
			err = fmt.Errorf("served %d rows (hash %x), oracle %d rows (hash %x)", got.rows, got.hash, p.want[i].rows, p.want[i].hash)
		case p.goldens != nil && p.goldens[r.Shape] != got.rows:
			err = fmt.Errorf("%d rows, golden has %d", got.rows, p.goldens[r.Shape])
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("gate %s: %w", r.Shape, err)
			}
		}
	}
	return attempted, failed, first
}

// loopMetrics derives the read-side end-to-end metrics from a measured
// closed-loop phase.
func loopMetrics(o *runOutput, res loopResult, sched []request) {
	cycleLen := len(sched)
	all := res.all()
	lat := make([]float64, len(all))
	first := make([]float64, len(all))
	for i, s := range all {
		lat[i], first[i] = s.latencyMS, s.firstMS
	}
	lat, first = sortedCopy(lat), sortedCopy(first)
	qps, rps, cycles := res.throughput(cycleLen)
	o.set("throughput_qps", qps, cycles)
	o.set("rows_per_s", rps, cycles)
	o.set("latency_p50_ms", percentile(lat, 50), len(lat))
	o.set("latency_p95_ms", percentile(lat, 95), len(lat))
	o.set("first_row_p50_ms", percentile(first, 50), len(first))
	if cycles < 2*len(res.perClient) {
		o.notef("only %d full schedule cycles fit the window; throughput rests on few cycles", cycles)
	}
	// Per request shape, for reading the mix: the bounded metrics above
	// are over the whole schedule.
	type agg struct {
		lat, first []float64
		rows       int
	}
	shapes := map[string]*agg{}
	var names []string
	for _, s := range all {
		name := sched[s.slot].Shape
		if shapes[name] == nil {
			shapes[name] = &agg{}
			names = append(names, name)
		}
		shapes[name].lat = append(shapes[name].lat, s.latencyMS)
		shapes[name].first = append(shapes[name].first, s.firstMS)
		shapes[name].rows += s.rows
	}
	sort.Strings(names)
	for _, name := range names {
		a := shapes[name]
		o.notef("shape %-22s n=%-6d p50 %9.3f ms  first row %9.3f ms  rows/request %8.1f",
			name, len(a.lat), median(a.lat), median(a.first), float64(a.rows)/float64(len(a.lat)))
	}
}

// serverStats is the part of gpmld's /stats the benchmark reads.
type serverStats struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Queries  uint64 `json:"queries"`
	Rejected uint64 `json:"rejected"`
}

func fetchStats(addr string) (serverStats, error) {
	var st serverStats
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// setupReps is how many times a run sets the server up; setup_s is the
// median. Figure 1 start-up is a few milliseconds, so it can afford more;
// the traced pass does not report setup_s and sets up once.
func setupReps(cfg runConfig) int {
	switch {
	case cfg.trace:
		return 1
	case cfg.w.inProc:
		return 5 // a reopen is ~0.3 s and both setup_s and recovery_s rest on it
	case cfg.w.snb:
		return 5 // ~0.65 s each: gpmld reads 18 MB of JSON
	}
	return 7
}

// runServed runs one of the four workloads served by a gpmld child.
func runServed(cfg runConfig, p *prepared) (*runOutput, error) {
	o := &runOutput{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]measured{}}
	bin, err := buildServer(cfg.root, cfg.outDir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, several times: process start → /healthz ok. Every stop but
	// the last one's is checked here; the last child serves the run.
	var setups []float64
	var srv *child
	for i := 0; i < setupReps(cfg); i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		if srv, err = startChild(bin, p.d.jsonPath); err != nil {
			return nil, err
		}
		setups = append(setups, srv.ready.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	cl := newClient(srv.addr)
	o.count(gate(cl, p, fmt.Sprintf("s%dg", cfg.seed)))
	cl.close()
	defer noteStolen(o)()

	loop := loopConfig{
		addr: srv.addr, graph: p.d.name, sched: p.sched, want: p.want, clients: clientCount(),
		warm: warmUp, dur: time.Duration(cfg.seconds * float64(time.Second)), uniq: fmt.Sprintf("s%dm", cfg.seed),
	}
	if !cfg.trace {
		res := runClosedLoop(loop)
		o.count(res.attempted, res.failed, res.firstErr)
		loopMetrics(o, res, p.sched)
		o.set("setup_s", median(setups), len(setups))
		rss, err := peakRSSMB(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		o.set("server_rss_mb", rss, 1)
		if err := writeProbe(o, tmp, cfg.seed); err != nil {
			return nil, err
		}
	} else {
		st0, err := fetchStats(srv.addr)
		if err != nil {
			return nil, err
		}
		cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		plain, tr := tracedServedPhases(o, loop)
		st1, err := fetchStats(srv.addr)
		if err != nil {
			return nil, err
		}
		cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		o.set("server.cpu_ms_per_req", (cpu1-cpu0)*1e3/float64(max(1, int(st1.Queries-st0.Queries))), int(st1.Queries-st0.Queries))
		cacheMetrics(o, st0, st1)
		if err := layerMetrics(o, cfg, p, p.d.store, plain, tr, tmp); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, err
	}
	o.Correct = o.Failed == 0
	return o, nil
}

// tracedServedPhases splits the measured window in two closed-loop
// phases, the second with a span recorded around every HTTP call, so that
// the recording's cost shows as trace.driver_overhead_ratio.
func tracedServedPhases(o *runOutput, loop loopConfig) (plain loopResult, tr *tracer) {
	loop.dur /= 2
	plain = runClosedLoop(loop)
	o.count(plain.attempted, plain.failed, plain.firstErr)
	tr = newTracer()
	loop.tr, loop.warm, loop.uniq = tr, 0, loop.uniq+"t"
	traced := runClosedLoop(loop)
	o.count(traced.attempted, traced.failed, traced.firstErr)
	q0, _, _ := plain.throughput(len(loop.sched))
	q1, _, _ := traced.throughput(len(loop.sched))
	o.set("trace.driver_overhead_ratio", 1-q1/q0, 0)
	return plain, tr
}

func cacheMetrics(o *runOutput, st0, st1 serverStats) {
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	o.set("qcache.hit_ratio", ratio, int(hits+misses))
	o.set("qcache.evictions", float64(st1.Cache.Evictions-st0.Cache.Evictions), 0)
	o.set("server.rejected", float64(st1.Rejected-st0.Rejected), 0)
}

// writeResult stores the run's full report (with sample counts and notes)
// under outDir.
func writeResult(outDir string, doc any, name string) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(raw, '\n'), 0o644)
}
