package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gpml/internal/gql"
	"gpml/internal/graph"
	"gpml/internal/server"
	"gpml/internal/wal"
)

const (
	// rwSetupBatches is how many batches the log holds when recovery is
	// timed. Replay costs ~2 ms a batch on the uncompacted delta, and a
	// run sets up three times, so 400 keeps set-up inside the run budget.
	rwSetupBatches = 400
	// rwCompactThreshold makes the writer's ~900 delta entries a second
	// trigger a compaction+checkpoint about once a second.
	rwCompactThreshold = 800
	// The write probe: rounds of batches, each on a fresh log.
	probeRounds  = 5
	probeBatches = 300
)

// rwServer is the bench-process stand-in for gpmld until it has a write
// endpoint: the same composition as cmd/gpmld/main.go — durable overlay,
// catalog, server.New, http.Server — over a loopback listener.
type rwServer struct {
	ov   *graph.Overlay
	srv  *server.Server
	http *http.Server
	addr string
	done chan error

	recovery time.Duration // OpenDurable + Recover
	setup    time.Duration // start → /healthz ok
	rec      graph.RecoveryStats
}

// startRW opens the data directory and brings the server up the way gpmld
// does: serve not-ready, replay the log, flip ready.
func startRW(dir, graphName string, threshold int) (*rwServer, error) {
	start := time.Now()
	ov, err := graph.OpenDurable(graph.DurableOptions{Dir: dir, Fsync: wal.SyncAlways, CompactThreshold: threshold})
	if err != nil {
		return nil, err
	}
	opened := time.Since(start)
	catalog := gql.NewCatalog()
	if err := catalog.Register(graphName, ov); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Catalog: catalog, DefaultGraph: graphName, StartRecovering: true, Durability: ov})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &rwServer{ov: ov, srv: srv, http: &http.Server{Handler: srv.Handler()}, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(l) }()
	replayStart := time.Now()
	if s.rec, err = ov.Recover(); err != nil {
		s.stop()
		return nil, fmt.Errorf("recovery: %w", err)
	}
	s.recovery = opened + time.Since(replayStart)
	srv.SetReady()
	resp, err := http.Get("http://" + s.addr + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("in-process server: /healthz status %d after recovery", resp.StatusCode)
	}
	s.setup = time.Since(start)
	return s, nil
}

// stop drains like gpmld's SIGTERM path and closes the WAL.
func (s *rwServer) stop() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if cerr := s.ov.CloseDurable(); err == nil {
		err = cerr
	}
	return err
}

// seedDataDir fills a fresh directory: import the graph as batch 1,
// checkpoint, then n batches of the write schedule with automatic
// compaction off, so the log holds exactly those n at the next open.
func seedDataDir(dir string, d *graphData, gen *writeGen, n int) error {
	ov, err := graph.OpenDurable(graph.DurableOptions{Dir: dir, Fsync: wal.SyncAlways, CompactThreshold: -1})
	if err != nil {
		return err
	}
	if _, err := ov.Recover(); err != nil {
		return err
	}
	if err := ov.Apply(importBatch(ov, d.g)); err != nil {
		return fmt.Errorf("import: %w", err)
	}
	if err := ov.Checkpoint(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := ov.Apply(gen.stage(ov)); err != nil {
			return fmt.Errorf("set-up batch %d: %w", i, err)
		}
		gen.acked()
	}
	return ov.CloseDurable()
}

// verifyStore checks a recovered store against the writer's model: the
// graph plus the live Scratch elements, and every acknowledged batch.
func verifyStore(ov *graph.Overlay, d *graphData, gen *writeGen) error {
	wantN, wantE := d.g.NumNodes()+gen.nodes, d.g.NumEdges()+gen.edges
	wantBatch := uint64(1 + gen.next) // the import is batch 1
	if ov.NumNodes() != wantN || ov.NumEdges() != wantE {
		return fmt.Errorf("recovered %d nodes / %d edges, acknowledged state has %d / %d", ov.NumNodes(), ov.NumEdges(), wantN, wantE)
	}
	if got := ov.DurabilityStats().LastBatch; got != wantBatch {
		return fmt.Errorf("recovered last batch %d, last acknowledged is %d", got, wantBatch)
	}
	return nil
}

// writeSample is one open-loop batch, in seconds from the writer's start.
type writeSample struct{ due, latency, late float64 }

// runWriter applies batches at writeRate from now until stop closes,
// timing each from its due time (see openLoopLatency). It returns the samples and the first
// Apply error, after which it stops writing.
func runWriter(ov *graph.Overlay, gen *writeGen, stop <-chan struct{}) ([]writeSample, error) {
	var out []writeSample
	t0 := time.Now()
	prevDone := 0.0
	for i := 0; ; i++ {
		due := dueTime(i, writeRate)
		if wait := time.Duration(due*float64(time.Second)) - time.Since(t0); wait > 0 {
			select {
			case <-stop:
				return out, nil
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return out, nil
			default:
			}
		}
		b := gen.stage(ov)
		started := time.Since(t0).Seconds()
		if err := ov.Apply(b); err != nil {
			return out, fmt.Errorf("batch %d: %w", gen.next, err)
		}
		gen.acked()
		done := time.Since(t0).Seconds()
		lat, late := openLoopLatency(due, prevDone, started, done)
		out = append(out, writeSample{due, lat, late})
		prevDone = done
	}
}

// runMixed runs snb_mixed_rw: one reader connection in a closed loop
// beside one open-loop writer, against the in-process durable server.
func runMixed(cfg runConfig, p *prepared) (*runOutput, error) {
	o := &runOutput{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]measured{}}
	o.notef("served from the bench process (gpmld has no write endpoint yet); fsync=always on %s", fsType(cfg.outDir))
	// This process stands for two, the driver and gpmld, each of which
	// would have GOMAXPROCS threads for the kernel to interleave. With one
	// process's worth, the Go scheduler makes the writer's timer wait for
	// the reader's client goroutine to yield, which no gpmld would see.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * runtime.GOMAXPROCS(0)))
	tmp, err := os.MkdirTemp(cfg.outDir, "rw-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "data")
	gen := newWriteGen(labelledIDs(p.d.store, "Person"), cfg.seed)
	if err := seedDataDir(dir, p.d, gen, rwSetupBatches); err != nil {
		return nil, err
	}

	// Set-up, several times. Only the last open may compact (and so
	// truncate the log), which keeps every timed recovery identical.
	var setups, recoveries []float64
	var s *rwServer
	reps := setupReps(cfg)
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		threshold := -1
		if i == reps-1 {
			threshold = rwCompactThreshold
		}
		if s, err = startRW(dir, p.d.name, threshold); err != nil {
			return nil, err
		}
		if s.rec.ReplayedBatches != rwSetupBatches {
			s.stop()
			return nil, fmt.Errorf("recovery replayed %d batches, the log held %d", s.rec.ReplayedBatches, rwSetupBatches)
		}
		if err := verifyStore(s.ov, p.d, gen); err != nil {
			s.stop()
			return nil, err
		}
		setups, recoveries = append(setups, s.setup.Seconds()), append(recoveries, s.recovery.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()
	s.ov.Wait() // the compaction Recover kicked off

	cl := newClient(s.addr)
	o.count(gate(cl, p, fmt.Sprintf("s%dg", cfg.seed)))
	cl.close()
	defer noteStolen(o)()

	loop := loopConfig{
		addr: s.addr, graph: p.d.name, sched: p.sched, want: p.want, clients: 1,
		warm: warmUp, dur: time.Duration(cfg.seconds * float64(time.Second)), uniq: fmt.Sprintf("s%dm", cfg.seed),
	}
	ck0 := s.ov.DurabilityStats().Checkpoints
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	sent0 := o.Attempted
	stopW := make(chan struct{})
	var (
		wg      sync.WaitGroup
		writes  []writeSample
		writeEr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes, writeEr = runWriter(s.ov, gen, stopW)
	}()
	var plain loopResult
	var tr *tracer
	if cfg.trace {
		plain, tr = tracedServedPhases(o, loop)
	} else {
		plain = runClosedLoop(loop)
		o.count(plain.attempted, plain.failed, plain.firstErr)
	}
	reads := o.Attempted - sent0
	close(stopW)
	wg.Wait()
	cycles := s.ov.DurabilityStats().Checkpoints - ck0
	o.count(len(writes), 0, nil)
	if writeEr != nil {
		o.count(1, 1, writeEr)
	}
	var lat, late []float64
	for _, w := range writes {
		if w.due >= warmUp.Seconds() {
			lat, late = append(lat, w.latency*1e3), append(late, w.late*1e3)
		}
	}
	lat, late = sortedCopy(lat), sortedCopy(late)
	o.notef("%d compaction+checkpoint cycles in the window; %d batches: p95 %.3f ms, p98 %.3f ms, of which the generator ran late by p50 %.3f ms, p95 %.3f ms",
		cycles, len(lat), percentile(lat, 95), percentile(lat, 98), percentile(late, 50), percentile(late, 95))

	if !cfg.trace {
		loopMetrics(o, plain, p.sched)
		o.set("setup_s", median(setups), len(setups))
		o.set("recovery_s", median(recoveries), len(recoveries))
		o.set("write_batch_p50_ms", percentile(lat, 50), len(lat))
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		o.set("server_rss_mb", rss, 1)
	} else {
		o.set("graph.compactions", float64(cycles), 0)
		o.set("write.batch_p98_ms", percentile(lat, 98), len(lat))
		o.set("driver.writer_late_p95_ms", percentile(late, 95), len(late))
		// No child to meter: the process's own CPU includes the driver,
		// the writer and the compactor.
		cpu1, err := cpuSeconds(os.Getpid())
		if err != nil {
			return nil, err
		}
		o.set("server.cpu_ms_per_req", (cpu1-cpu0)*1e3/float64(max(1, reads)), reads)
		o.set("qcache.hit_ratio", s.srv.Cache().Stats().HitRatio(), 0)
		o.set("qcache.evictions", float64(s.srv.Cache().Stats().Evictions), 0)
		o.set("server.rejected", 0, 0)
		s.ov.Wait()
		if err := layerMetrics(o, cfg, p, s.ov, plain, tr, tmp); err != nil {
			return nil, err
		}
	}

	// Durability: reopen from what was flushed and compare with what was
	// acknowledged.
	stopped = true
	if err := s.stop(); err != nil {
		return nil, err
	}
	s, err = startRW(dir, p.d.name, -1)
	if err != nil {
		return nil, fmt.Errorf("reopen after the run: %w", err)
	}
	verr := verifyStore(s.ov, p.d, gen)
	if err := s.stop(); err != nil {
		return nil, err
	}
	o.Attempted++
	if verr != nil {
		o.count(0, 1, fmt.Errorf("reopen after the run: %w", verr))
	}
	o.Correct = o.Failed == 0
	return o, nil
}

// writeProbe fills the two write-side metrics on a workload gpmld serves,
// where no write reaches the server; the contract wants every end-to-end
// metric from every workload, and never zero. The batch generator runs
// back to back against a fresh durable overlay in the bench process with
// no reader beside it, and the log is then recovered twice; probeRounds
// such rounds, medians kept. The log is written but not flushed
// (fsync=none): a flush on this sandbox's shared disk takes 0.16 ms one
// minute and 0.25 ms the next, which made ten runs of the flushed probe
// spread by a quarter of their median, and the unflushed one repeats
// within 3–8 %. What is left is Apply, the op codec and the log's write and
// replay; the flushed path is snb_mixed_rw's to measure. The probe does
// not depend on the workload, and a process runs one workload.
func writeProbe(o *runOutput, tmp string, seed int64) error {
	runtime.GC() // the oracle's garbage is not the probe's to collect
	var p50s, recoveries []float64
	for round := 0; round < probeRounds; round++ {
		dir := filepath.Join(tmp, fmt.Sprintf("probe%d", round))
		open := func() (*graph.Overlay, error) {
			return graph.OpenDurable(graph.DurableOptions{Dir: dir, Fsync: wal.SyncNone, CompactThreshold: -1})
		}
		ov, err := open()
		if err != nil {
			return err
		}
		if _, err := ov.Recover(); err != nil {
			return err
		}
		// Stand-ins for the Person nodes the generator attaches to and touches.
		attach := make([]graph.NodeID, 64)
		b := ov.Begin()
		for i := range attach {
			attach[i] = graph.NodeID(fmt.Sprintf("probe%d", i))
			b.AddNode(attach[i], []string{"Person"}, nil)
		}
		if err := ov.Apply(b); err != nil {
			return err
		}
		gen := newWriteGen(attach, seed+int64(round))
		lat := make([]float64, probeBatches)
		for i := range lat {
			b := gen.stage(ov)
			d := timed(func() { err = ov.Apply(b) })
			if err != nil {
				return fmt.Errorf("probe batch %d: %w", i, err)
			}
			gen.acked()
			lat[i] = d.Seconds() * 1e3
		}
		if err := ov.CloseDurable(); err != nil {
			return err
		}
		p50s = append(p50s, median(lat))
		for i := 0; i < 2; i++ {
			var rec graph.RecoveryStats
			t := timed(func() {
				if ov, err = open(); err == nil {
					rec, err = ov.Recover()
				}
			})
			if err != nil {
				return err
			}
			if rec.ReplayedBatches != probeBatches+1 || ov.NumNodes() != len(attach)+gen.nodes {
				return fmt.Errorf("probe recovery: %d batches, %d nodes; want %d, %d", rec.ReplayedBatches, ov.NumNodes(), probeBatches+1, len(attach)+gen.nodes)
			}
			if err := ov.CloseDurable(); err != nil {
				return err
			}
			recoveries = append(recoveries, t.Seconds())
		}
	}
	o.count(probeRounds*probeBatches, 0, nil)
	o.set("write_batch_p50_ms", median(p50s), probeRounds*probeBatches)
	o.set("recovery_s", median(recoveries), len(recoveries))
	return nil
}
