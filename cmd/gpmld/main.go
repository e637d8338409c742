// Command gpmld serves GPML queries over HTTP: a network query server
// with prepared statements and a compiled-plan cache in front of the
// streaming evaluator.
//
// Usage:
//
//	gpmld [-addr :7687] [-graph graph.json] [-data-dir DIR]
//	      [-fsync always|interval|none] [-fsync-interval 50ms]
//	      [-cache 256] [-max-concurrent 8] [-max-queue 0]
//	      [-default-timeout 0] [-max-timeout 0] [-max-rows 0]
//	      [-drain-grace 10s]
//
// Without -graph, the paper's Figure 1 banking graph is served under the
// name "fig1". The graph is served from an immutable CSR snapshot. Each
// query runs on its request's goroutine, and -max-concurrent bounds how
// many run at once.
//
// With -data-dir the graph is served from a durable epoch-snapshot
// overlay store instead: every applied batch is written to a write-ahead
// log under DIR before it becomes visible, compaction checkpoints the
// merged base to DIR and truncates the log prefix it covers, and a
// restart recovers the newest checkpoint plus the committed WAL suffix —
// the server answers 503 "recovering" on /query and /healthz until
// replay completes. -fsync picks the WAL durability policy: "always"
// fsyncs per batch (every acknowledged batch survives power loss),
// "interval" fsyncs on a timer (-fsync-interval, bounding loss to that
// window), "none" leaves syncing to the OS. On a fresh data directory the
// -graph (or Figure 1) graph is imported as the first durable batch; on
// restart the directory's contents win and -graph is ignored.
//
// Endpoints (see internal/server):
//
//	POST /query    {"query": "MATCH ...", "graph": "fig1", "params": {...},
//	                "gql": false, "timeout_ms": 0, "limit": 0}
//	               → NDJSON: {"columns":...,"cached":...}, {"row":[...]}*,
//	                 then {"rows":N} or {"error":{...}}
//	POST /explain  same body → engine choice, join plan, parameter names
//	GET  /stats    plan-cache hit/miss counters, row/query totals, queue
//	               depth and rejects, WAL/checkpoint/recovery state
//	GET  /healthz  ok, or 503 while recovering or once draining
//
// -max-queue bounds the admission queue: with all -max-concurrent slots
// busy and that many requests already waiting, further ones fast-fail
// 503 with Retry-After instead of stacking until their deadlines.
//
// SIGTERM/SIGINT starts a graceful drain: new queries are rejected,
// in-flight streams run to completion within -drain-grace, then
// remaining streams are cancelled, the listener closes, and (with
// -data-dir) the WAL is synced and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpml"
	"gpml/internal/gql"
	"gpml/internal/graph"
	"gpml/internal/server"
	"gpml/internal/wal"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":7687", "listen address")
		graphFile  = flag.String("graph", "", "graph JSON file served as \"main\" (default: the paper's Figure 1 graph as \"fig1\")")
		dataDir    = flag.String("data-dir", "", "durable overlay data directory: WAL + checkpoints, crash recovery on boot")
		fsyncPol   = flag.String("fsync", "always", "WAL fsync policy: always | interval | none")
		fsyncIvl   = flag.Duration("fsync-interval", 50*time.Millisecond, "fsync period when -fsync=interval")
		cacheSize  = flag.Int("cache", 256, "compiled-plan LRU capacity")
		maxConc    = flag.Int("max-concurrent", 8, "admission cap on concurrently evaluating queries")
		maxQueue   = flag.Int("max-queue", 0, "admission queue bound: waiters beyond this fast-fail 503 (0 = unbounded)")
		defTimeout = flag.Duration("default-timeout", 0, "deadline for requests that set no timeout_ms (0 = none)")
		maxTimeout = flag.Duration("max-timeout", 0, "clamp on request deadlines (0 = none)")
		maxRows    = flag.Int("max-rows", 0, "clamp on request row limits (0 = unlimited)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "how long in-flight streams may run after SIGTERM before cancellation")
	)
	flag.Parse()

	// Installed before anything is loaded, replayed or listening: a signal
	// that arrives during start-up is held until the select below and then
	// drains like any other, instead of killing the process.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	name := "fig1"
	var g *gpml.Graph
	if *graphFile == "" {
		g = gpml.Fig1()
	} else {
		name = "main"
		f, err := os.Open(*graphFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmld:", err)
			return 1
		}
		gg, err := graph.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmld:", err)
			return 1
		}
		g = gg
	}

	var (
		st  gpml.Store
		dov *graph.Overlay // non-nil in the durable configuration
	)
	switch {
	case *dataDir != "":
		// Durable overlay, phase one: load the newest checkpoint and come
		// up read-only. WAL replay runs after the listener is up so health
		// checks answer (503 "recovering") during a long replay.
		pol, err := wal.ParseSyncPolicy(*fsyncPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmld:", err)
			return 1
		}
		dov, err = graph.OpenDurable(graph.DurableOptions{
			Dir:       *dataDir,
			Fsync:     pol,
			SyncEvery: *fsyncIvl,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmld:", err)
			return 1
		}
		st = dov
	default:
		// Immutable CSR snapshot: safe for any number of concurrent
		// readers, and the fastest read path.
		st = gpml.Snapshot(g)
	}
	catalog := gql.NewCatalog()
	if err := catalog.Register(name, st); err != nil {
		fmt.Fprintln(os.Stderr, "gpmld:", err)
		return 1
	}

	cfg := server.Config{
		Catalog:        catalog,
		DefaultGraph:   name,
		CacheSize:      *cacheSize,
		MaxConcurrent:  *maxConc,
		MaxQueueDepth:  *maxQueue,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxRows:        *maxRows,
	}
	if dov != nil {
		cfg.StartRecovering = true
		cfg.Durability = dov
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmld:", err)
		return 1
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "gpmld: serving graph %q on %s (store: %T, cache: %d, concurrency: %d)\n",
		name, *addr, st, *cacheSize, *maxConc)

	if dov != nil {
		// Phase two: replay the committed WAL suffix, seed a fresh
		// directory with the boot graph, then open for queries.
		rec, err := dov.Recover()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmld: recovery:", err)
			return 1
		}
		if rec.CheckpointBatch == 0 && rec.ReplayedBatches == 0 && st.NumNodes() == 0 {
			if err := dov.Apply(importBatch(dov, g)); err != nil {
				fmt.Fprintln(os.Stderr, "gpmld: import:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "gpmld: fresh data dir, imported %d nodes / %d edges as batch 1\n",
				g.NumNodes(), g.NumEdges())
		} else {
			fmt.Fprintf(os.Stderr, "gpmld: recovered checkpoint@%d +%d WAL batches (torn tail: %d bytes)\n",
				rec.CheckpointBatch, rec.ReplayedBatches, rec.WALTornBytes)
		}
		srv.SetReady()
	}

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "gpmld:", err)
		return 1
	case <-sigCtx.Done():
	}

	// Two-phase drain: stop admitting, let streams finish within the
	// grace period, then cancel whatever is still running.
	fmt.Fprintln(os.Stderr, "gpmld: draining")
	srv.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		fmt.Fprintln(os.Stderr, "gpmld: drain grace expired, cancelling in-flight queries")
		srv.Abort()
		killCtx, kcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer kcancel()
		if err := httpSrv.Shutdown(killCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			httpSrv.Close()
		}
	}
	if dov != nil {
		// Sync and close the WAL so a clean stop leaves nothing for the
		// next boot to repair.
		if err := dov.CloseDurable(); err != nil {
			fmt.Fprintln(os.Stderr, "gpmld: wal close:", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "gpmld: stopped")
	return 0
}

// importBatch turns the boot graph into the durable store's first batch:
// every node, then every edge, in the graph's insertion order.
func importBatch(ov *graph.Overlay, g *gpml.Graph) *graph.Batch {
	b := ov.Begin()
	g.Nodes(func(n *graph.Node) bool {
		b.AddNode(n.ID, n.Labels, n.Props)
		return true
	})
	g.Edges(func(e *graph.Edge) bool {
		if e.Direction == graph.Directed {
			b.AddEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		} else {
			b.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
		return true
	})
	return b
}
