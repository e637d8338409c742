package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"gpml"
	"gpml/internal/graph"
	"gpml/internal/wal"
)

// layerBatches is how many write batches the store and WAL layers are
// timed over in the traced pass.
const layerBatches = 64

// importBatch turns a graph into one overlay batch — every node, then
// every edge, in insertion order — the way gpmld seeds a fresh data
// directory.
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

func heapAllocAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// storeLayers times the graph and wal layers from outside, on the
// workload's own graph and the seeded write schedule: load and snapshot
// build, label and adjacency scans on the CSR and through a pinned overlay
// epoch carrying live delta, Apply, Compact, Checkpoint, recovery, and
// direct WAL append and replay of the schedule's encoded batches.
func storeLayers(out series, d *graphData, seedLabel, seedProp, tmp string, seed int64) error {
	jsonPath := d.jsonPath
	if jsonPath == "" {
		jsonPath = filepath.Join(tmp, "graph.json")
		if err := writeGraphJSON(d.g, jsonPath); err != nil {
			return err
		}
	}
	h0 := heapAllocAfterGC()
	var g2 *gpml.Graph
	var lerr error
	out.add("graph.json_load_s", timed(func() {
		f, err := os.Open(jsonPath)
		if err != nil {
			lerr = err
			return
		}
		defer f.Close()
		g2, lerr = graph.ReadJSON(f)
	}).Seconds())
	if lerr != nil {
		return lerr
	}
	var csr *gpml.CSR
	out.add("graph.snapshot_build_s", timed(func() { csr = gpml.Snapshot(g2) }).Seconds())
	out.add("graph.store_heap_mb", float64(heapAllocAfterGC()-h0)/(1<<20))
	runtime.KeepAlive(g2)

	scan(out, "graph.label_scan_ns_per_node", "graph.step_ns_per_edge", csr, seedLabel, seedProp)

	// Overlay: the same scans through a pinned epoch with live delta.
	attach := labelledIDs(csr, seedLabel)
	ov := graph.NewOverlay(csr, graph.WithCompactThreshold(0))
	gen := newWriteGen(attach, seed)
	for i := 0; i < layerBatches; i++ {
		b := gen.stage(ov)
		var err error
		out.add("graph.apply_us_per_batch", us(timed(func() { err = ov.Apply(b) })))
		if err != nil {
			return fmt.Errorf("overlay apply: %w", err)
		}
		gen.acked()
	}
	var pinned graph.Store
	for i := 0; i < 1000; i++ {
		out.add("graph.pin_us", us(timed(func() { pinned = graph.Pin(ov) })))
	}
	scan(out, "", "graph.overlay_step_ns_per_edge", graph.AsStepper(pinned), seedLabel, seedProp)
	out.add("graph.compact_ms", timed(ov.Compact).Seconds()*1e3)

	// Durable overlay: import, checkpoint, the write schedule, recovery.
	dir := filepath.Join(tmp, "layers-data")
	open := func() (*graph.Overlay, error) {
		return graph.OpenDurable(graph.DurableOptions{Dir: dir, Fsync: wal.SyncNone, CompactThreshold: -1})
	}
	dov, err := open()
	if err != nil {
		return err
	}
	if _, err := dov.Recover(); err != nil {
		return err
	}
	if err := dov.Apply(importBatch(dov, d.g)); err != nil {
		return fmt.Errorf("import: %w", err)
	}
	if err := dov.Checkpoint(); err != nil {
		return err
	}
	gen = newWriteGen(attach, seed)
	for i := 0; i < layerBatches; i++ {
		if err := dov.Apply(gen.stage(dov)); err != nil {
			return fmt.Errorf("durable apply: %w", err)
		}
		gen.acked()
	}
	if err := dov.CloseDurable(); err != nil {
		return err
	}

	batches, err := replayBatches(out, filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	if len(batches) != layerBatches {
		return fmt.Errorf("wal replay returned %d batches, %d were applied", len(batches), layerBatches)
	}

	out.add("graph.recover_load_ms", timed(func() { dov, err = open() }).Seconds()*1e3)
	if err != nil {
		return err
	}
	var rec graph.RecoveryStats
	out.add("graph.recover_replay_ms", timed(func() { rec, err = dov.Recover() }).Seconds()*1e3)
	if err != nil {
		return err
	}
	if rec.ReplayedBatches != layerBatches || dov.NumNodes() != d.g.NumNodes()+gen.nodes {
		return fmt.Errorf("recovery replayed %d batches to %d nodes, want %d and %d",
			rec.ReplayedBatches, dov.NumNodes(), layerBatches, d.g.NumNodes()+gen.nodes)
	}
	out.add("graph.checkpoint_ms", timed(func() { err = dov.Checkpoint() }).Seconds()*1e3)
	if err != nil {
		return err
	}
	out.add("graph.compactions", float64(dov.DurabilityStats().Checkpoints))
	if cks, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ck")); len(cks) > 0 {
		if fi, err := os.Stat(cks[len(cks)-1]); err == nil {
			out.add("graph.checkpoint_bytes", float64(fi.Size()))
		}
	}
	if err := dov.CloseDurable(); err != nil {
		return err
	}

	for _, pol := range []struct {
		policy wal.SyncPolicy
		metric string
	}{{wal.SyncAlways, "wal.append_us"}, {wal.SyncNone, "wal.append_nosync_us"}} {
		if err := appendBatches(out, filepath.Join(tmp, "wal-"+pol.policy.String()), pol.policy, pol.metric, batches); err != nil {
			return err
		}
	}
	return nil
}

// scan times a label-index scan with one property read per node, and an
// adjacency scan over every step of those nodes, repeated until enough
// nodes have been visited for the clock to resolve.
func scan(out series, nodeMetric, edgeMetric string, st graph.Stepper, label, prop string) {
	var nodes []int
	st.NodesWithLabelIdx(label, func(i int) bool {
		nodes = append(nodes, i)
		return true
	})
	if len(nodes) == 0 {
		return
	}
	reps := 1 + 50_000/len(nodes)
	if nodeMetric != "" {
		seen := 0
		d := timed(func() {
			for r := 0; r < reps; r++ {
				st.NodesWithLabelIdx(label, func(i int) bool {
					if !st.NodeByIndex(i).Prop(prop).IsNull() {
						seen++
					}
					return true
				})
			}
		})
		out.add(nodeMetric, float64(d)/float64(reps*len(nodes)))
	}
	edges := 0
	d := timed(func() {
		for r := 0; r < reps; r++ {
			for _, i := range nodes {
				st.Steps(i, func(_, _ int, _ graph.StepKind) bool {
					edges++
					return true
				})
			}
		}
	})
	if edges > 0 {
		out.add(edgeMetric, float64(d)/float64(edges))
	}
}

func labelledIDs(s gpml.Store, label string) []graph.NodeID {
	var ids []graph.NodeID
	s.NodesWithLabel(label, func(n *graph.Node) bool {
		ids = append(ids, n.ID)
		return true
	})
	return ids
}

// replayBatches reads the write schedule's encoded batches back from the
// durable overlay's log (everything after the import batch), timing
// Replay.
func replayBatches(out series, dir string) ([][][]byte, error) {
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	var batches [][][]byte
	d := timed(func() {
		err = log.Replay(1, func(_, _ uint64, ops [][]byte) error {
			cp := make([][]byte, len(ops)) // payloads alias the read buffer
			for i, o := range ops {
				cp[i] = append([]byte(nil), o...)
			}
			batches = append(batches, cp)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if len(batches) > 0 {
		out.add("wal.replay_us_per_batch", us(d)/float64(len(batches)))
	}
	return batches, nil
}

// appendBatches appends the encoded batches to a fresh log under policy,
// timing every Append.
func appendBatches(out series, dir string, policy wal.SyncPolicy, metric string, batches [][][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return err
	}
	defer log.Close()
	muts := 0
	for i, ops := range batches {
		seq := uint64(i + 1)
		var err error
		out.add(metric, us(timed(func() { err = log.Append(seq, seq, ops) })))
		if err != nil {
			return fmt.Errorf("wal append (%s): %w", policy, err)
		}
		muts += len(ops)
	}
	st := log.Stats()
	if policy == wal.SyncAlways {
		out.add("wal.fsyncs", float64(st.Syncs))
		out.add("wal.bytes_per_mut", float64(st.Bytes)/float64(muts))
	}
	return nil
}
