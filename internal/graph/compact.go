package graph

// Background compaction: when an epoch's delta grows past the threshold,
// a compactor goroutine materializes that epoch into a fresh CSR while
// readers keep draining whatever epoch they pinned and the writer keeps
// applying batches. The merged CSR is laid out over the epoch's full
// index span — tombstoned elements stay as dead holes rather than being
// renumbered — so every surviving element keeps its global index verbatim
// and bindings taken in any epoch materialize identically after the swap.
//
// The rebase step then rewrites a fork of the current epoch relative to
// the new base: elements added during the compaction keep their global
// indices (the new base span is exactly the old span plus the compacted
// delta), and tombstones/overrides are partitioned by mutation generation
// — those at or below the compacted epoch's generation are baked into the
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
// writer proceed concurrently), then briefly takes the lock to rebase a
// fork of the current epoch and publish it as the post-compaction epoch.
func (ov *Overlay) runCompact(e *OverlaySnap) {
	nb := compactBase(e)
	ov.mu.Lock()
	s := ov.cur.Load().fork()
	s.rebase(nb, e)
	ov.baseBatch = e.batch
	ov.publishLocked(s)
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

// rebase rewrites the fork s relative to the freshly compacted base nb,
// which materialized epoch e. s was forked under ov.mu after e, so it
// shares e's base.
func (s *OverlaySnap) rebase(nb *CSR, e *OverlaySnap) {
	nBaked, eBaked := len(e.nodes), len(e.edges)
	genE := e.gen

	// Delta records in e's range that were replaced after e was pinned
	// (copy-on-write updates) are not in nb; carry them as overrides on
	// the new base. Pointer inequality is exact — updates always install
	// a fresh record.
	for j := 0; j < nBaked; j++ {
		gi := ElemIdx(e.baseN + j)
		if _, dead := s.deadN[gi]; dead {
			continue
		}
		if s.nodes[j] != e.nodes[j] {
			s.overN[gi] = nodeOver{s.nodes[j], s.gen}
		}
	}
	for j := 0; j < eBaked; j++ {
		gi := ElemIdx(e.baseE + j)
		if _, dead := s.deadE[gi]; dead {
			continue
		}
		if s.edges[j] != e.edges[j] {
			s.overE[gi] = edgeOver{s.edges[j], s.gen}
		}
	}

	// Tombstones and overrides at or below e's generation are baked into
	// nb (holes and resolved records); drop them. Later ones survive and
	// now target new-base elements.
	for idx, g := range s.deadN {
		if g <= genE {
			delete(s.deadN, idx)
		}
	}
	for idx, g := range s.deadE {
		if g <= genE {
			delete(s.deadE, idx)
		}
	}
	for idx, o := range s.overN {
		if o.gen <= genE {
			delete(s.overN, idx)
		}
	}
	for idx, o := range s.overE {
		if o.gen <= genE {
			delete(s.overE, idx)
		}
	}

	// The suffix added during compaction keeps identical global indices:
	// nb's span is exactly e's old span plus the baked delta, so suffix
	// element j lands at nb-span + (j - baked) = old global index.
	s.base, s.baseN, s.baseE = nb, nb.NodeIndexSpan(), nb.EdgeIndexSpan()
	s.nodes = s.nodes[nBaked:]
	s.edges = s.edges[eBaked:]
	s.edgeEnds = s.edgeEnds[eBaked:]

	s.nodeIdx = make(map[NodeID]ElemIdx, len(s.nodes))
	for j, n := range s.nodes {
		gi := ElemIdx(s.baseN + j)
		if _, dead := s.deadN[gi]; dead {
			continue
		}
		s.nodeIdx[n.ID] = gi
	}
	s.edgeIdx = make(map[EdgeID]ElemIdx, len(s.edges))
	s.adj = make(map[int32][]deltaStep, len(s.edges))
	for j, ed := range s.edges {
		gi := int32(s.baseE + j)
		if _, dead := s.deadE[ElemIdx(gi)]; dead {
			continue
		}
		s.edgeIdx[ed.ID] = ElemIdx(gi)
		s.addSteps(gi, ed.Direction, s.edgeEnds[j][0], s.edgeEnds[j][1])
	}
}
