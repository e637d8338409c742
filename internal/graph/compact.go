package graph

// Background compaction: when an epoch's delta grows past the threshold,
// a compactor goroutine materializes that epoch into a fresh CSR while
// readers keep draining whatever epoch they pinned and the writer keeps
// applying batches. The merged CSR is laid out over the epoch's full
// index span — tombstoned elements stay as dead holes rather than being
// renumbered — so every surviving element keeps its global index verbatim
// and bindings taken in any epoch materialize identically after the swap.
//
// The rebase step then rewrites the writer's delta relative to the new
// base: elements added during the compaction keep their global indices
// (the new base span is exactly the old span plus the compacted delta),
// and tombstones/overrides are partitioned by mutation generation —
// those at or below the compacted epoch's generation are baked into the
// new CSR and dropped, later ones are kept and now target new-base
// elements.

// maybeCompactLocked starts a background compaction of snap when its
// delta has outgrown the threshold and none is in flight. Callers hold
// ov.mu.
func (ov *Overlay) maybeCompactLocked(snap *OverlaySnap) {
	if ov.compactThreshold <= 0 || ov.compacting {
		return
	}
	if snap.deltaSize() < ov.compactThreshold {
		return
	}
	ov.startCompactLocked(snap)
}

// startCompactLocked launches the compactor goroutine. Callers hold ov.mu
// and have checked that no compaction is in flight.
func (ov *Overlay) startCompactLocked(snap *OverlaySnap) {
	ov.compacting = true
	go ov.runCompact(snap)
}

// runCompact builds the merged CSR outside the lock (readers and the
// writer proceed concurrently), then briefly takes the lock to rebase the
// writer's delta and publish the post-compaction epoch.
func (ov *Overlay) runCompact(e *OverlaySnap) {
	nb := compactBase(e)
	ov.mu.Lock()
	ov.rebaseLocked(nb, e)
	ov.publishLocked()
	dur := ov.dur
	ov.mu.Unlock()
	// On a durable overlay the compacted base is also the checkpoint: it
	// materializes every batch up to e.batch, so once it is on disk the
	// WAL prefix covering those batches can be retired. Run it outside
	// ov.mu (writes proceed) but with compacting still true, so Wait and
	// Compact mean "merged and durable". Failures are recorded and
	// surfaced via DurabilityStats; the WAL stays intact, so nothing is
	// lost — the next compaction (or an explicit Checkpoint) retries.
	if dur != nil {
		dur.checkpoint(nb, e.batch, e.seq)
	}
	ov.mu.Lock()
	ov.compacting = false
	// The writer may have outrun the compaction; chain another round
	// before waking waiters so Wait means "fully drained".
	ov.maybeCompactLocked(ov.cur.Load())
	ov.compactDone.Broadcast()
	ov.mu.Unlock()
}

// Compact synchronously compacts everything applied before the call:
// it drains any in-flight compaction, merges the then-current epoch into
// a fresh CSR base, and returns once the post-compaction epoch is
// published. Mutations applied concurrently may remain in the delta.
func (ov *Overlay) Compact() {
	ov.mu.Lock()
	for ov.compacting {
		ov.compactDone.Wait()
	}
	if snap := ov.cur.Load(); snap.deltaSize() > 0 {
		ov.startCompactLocked(snap)
		for ov.compacting {
			ov.compactDone.Wait()
		}
	}
	ov.mu.Unlock()
}

// compactBase materializes epoch e as a CSR over e's full index span.
// Live elements land at their existing global indices; tombstoned ones
// become dead holes. Overrides are resolved into the stored records, so
// the result carries no override state at all.
func compactBase(e *OverlaySnap) *CSR {
	spanN, spanE := e.NodeIndexSpan(), e.EdgeIndexSpan()
	core := newElemCore(spanN, spanE)
	for i := 0; i < spanN; i++ {
		core.addNode(e.nodeAtIdx(i))
	}
	for i := 0; i < spanE; i++ {
		// Live edges never reference dead nodes (detach-delete), so both
		// endpoints resolve to live slots.
		src, tgt := e.EdgeEnds(i)
		core.addEdge(e.edgeAtIdx(i), int32(src), int32(tgt))
	}
	return newCSR(core)
}

// rebaseLocked rewrites the writer's delta relative to the freshly
// compacted base nb, which materialized epoch e. Callers hold ov.mu.
func (ov *Overlay) rebaseLocked(nb *CSR, e *OverlaySnap) {
	w := &ov.w
	nBaked, eBaked := len(e.nodes), len(e.edges)
	genE := e.gen

	// Delta records in e's range that were replaced after e was pinned
	// (copy-on-write updates) are not in nb; carry them as overrides on
	// the new base. Pointer inequality is exact — updates always install
	// a fresh record.
	for j := 0; j < nBaked; j++ {
		gi := ElemIdx(e.baseN + j)
		if _, dead := w.deadN[gi]; dead {
			continue
		}
		if w.nodes[j] != e.nodes[j] {
			w.overN[gi] = nodeOver{w.nodes[j], ov.gen}
		}
	}
	for j := 0; j < eBaked; j++ {
		gi := ElemIdx(e.baseE + j)
		if _, dead := w.deadE[gi]; dead {
			continue
		}
		if w.edges[j] != e.edges[j] {
			w.overE[gi] = edgeOver{w.edges[j], ov.gen}
		}
	}

	// Tombstones and overrides at or below e's generation are baked into
	// nb (holes and resolved records); drop them. Later ones survive and
	// now target new-base elements.
	for idx, g := range w.deadN {
		if g <= genE {
			delete(w.deadN, idx)
		}
	}
	for idx, g := range w.deadE {
		if g <= genE {
			delete(w.deadE, idx)
		}
	}
	for idx, o := range w.overN {
		if o.gen <= genE {
			delete(w.overN, idx)
		}
	}
	for idx, o := range w.overE {
		if o.gen <= genE {
			delete(w.overE, idx)
		}
	}

	// The suffix added during compaction keeps identical global indices:
	// nb's span is exactly e's old span plus the baked delta, so suffix
	// element j lands at nb-span + (j - baked) = old global index.
	w.base = nb
	ov.baseBatch = e.batch
	w.nodes = append([]*Node(nil), w.nodes[nBaked:]...)
	w.edges = append([]*Edge(nil), w.edges[eBaked:]...)
	w.edgeEnds = append([][2]int32(nil), w.edgeEnds[eBaked:]...)

	w.nodeIdx = make(map[NodeID]ElemIdx, len(w.nodes))
	for j, n := range w.nodes {
		gi := ElemIdx(nb.NodeIndexSpan() + j)
		if _, dead := w.deadN[gi]; dead {
			continue
		}
		w.nodeIdx[n.ID] = gi
	}
	w.edgeIdx = make(map[EdgeID]ElemIdx, len(w.edges))
	w.adj = make(map[int32][]deltaStep, len(w.edges))
	for j := range w.edges {
		gi := int32(nb.EdgeIndexSpan() + j)
		if _, dead := w.deadE[ElemIdx(gi)]; dead {
			continue
		}
		w.edgeIdx[w.edges[j].ID] = ElemIdx(gi)
		ends := w.edgeEnds[j]
		s32, t32 := ends[0], ends[1]
		switch {
		case w.edges[j].Direction == Undirected:
			w.adj[s32] = append(w.adj[s32], deltaStep{gi, t32, StepUndirected})
			if s32 != t32 {
				w.adj[t32] = append(w.adj[t32], deltaStep{gi, s32, StepUndirected})
			}
		case s32 == t32:
			w.adj[s32] = append(w.adj[s32], deltaStep{gi, s32, StepLoop})
		default:
			w.adj[s32] = append(w.adj[s32], deltaStep{gi, t32, StepOut})
			w.adj[t32] = append(w.adj[t32], deltaStep{gi, s32, StepIn})
		}
	}
}
