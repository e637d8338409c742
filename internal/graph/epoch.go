package graph

// OverlaySnap — one immutable epoch of an Overlay, and the writer's only
// state. Each Apply (and each compaction rebase) forks the current epoch
// by cloning its delta maps and record-pointer slices, applies the batch
// to the fork, seals it and publishes it; the clone is O(delta), and the
// delta is bounded by the compaction threshold, so publication cost is
// amortized by batching. Readers share a published snapshot with zero
// synchronization: every field is frozen at publish time except the
// lazily computed LabelStats, which is guarded by a sync.Once.

import (
	"maps"
	"slices"
	"sync"
)

// OverlaySnap is one immutable epoch of an Overlay: the CSR base plus the
// delta as of some Apply. It implements Store and Stepper, so every
// cursor, engine, and planner path runs on it unchanged; indices below
// the base span refer to base elements (with overrides and tombstones
// applied), indices at or above it to delta elements.
type OverlaySnap struct {
	base  *CSR
	seq   uint64 // epoch number, ascending
	gen   uint64 // highest mutation generation included
	batch uint64 // newest applied batch included (durable overlays)

	baseN, baseE int // base index spans (node and edge high-water marks)

	nodes    []*Node // delta nodes; element j has global index baseN+j
	edges    []*Edge
	edgeEnds [][2]int32

	nodeIdx map[NodeID]ElemIdx // delta-element id lookup
	edgeIdx map[EdgeID]ElemIdx

	adj map[int32][]deltaStep // delta steps per node (base or delta)

	deadN map[ElemIdx]uint64 // tombstones (generation of the delete)
	deadE map[ElemIdx]uint64

	// deadBaseN/deadBaseE count the tombstones that fall below the base
	// span. When zero, base index ranges contain no dead entries in this
	// epoch, so base adjacency windows and label lists can be served
	// without per-entry tombstone checks (delta-only churn — the common
	// shape between compactions — keeps both at zero).
	deadBaseN, deadBaseE int

	overN map[ElemIdx]nodeOver // base-element record overrides
	overE map[ElemIdx]edgeOver

	liveN, liveE int

	// labelDelta lists, per label and sorted ascending, the indices of
	// overridden base nodes and live delta nodes carrying the label;
	// labelSub counts, per label, the base nodes whose base record carries
	// it but which are tombstoned or overridden in this epoch. Together
	// they turn label counting into O(1) arithmetic over the base index.
	labelDelta map[string][]int32
	labelSub   map[string]int

	statsOnce sync.Once
	stats     StoreStats
}

// newEpoch returns an epoch serving base with an empty delta.
func newEpoch(base *CSR, seq, batch uint64) *OverlaySnap {
	return &OverlaySnap{
		base:    base,
		seq:     seq,
		batch:   batch,
		baseN:   base.NodeIndexSpan(),
		baseE:   base.EdgeIndexSpan(),
		nodeIdx: map[NodeID]ElemIdx{},
		edgeIdx: map[EdgeID]ElemIdx{},
		adj:     map[int32][]deltaStep{},
		deadN:   map[ElemIdx]uint64{},
		deadE:   map[ElemIdx]uint64{},
		overN:   map[ElemIdx]nodeOver{},
		overE:   map[ElemIdx]edgeOver{},
		liveN:   base.NumNodes(),
		liveE:   base.NumEdges(),
	}
}

// fork returns a private copy of the published epoch s that the writer
// turns into the next epoch (seq one higher). The delta is cloned, so
// writing the fork never changes s; the read-side summaries (label delta,
// labelSub, dead-base counts) are left for seal. Callers hold ov.mu.
func (s *OverlaySnap) fork() *OverlaySnap {
	return &OverlaySnap{
		base:     s.base,
		seq:      s.seq + 1,
		gen:      s.gen,
		batch:    s.batch,
		baseN:    s.baseN,
		baseE:    s.baseE,
		nodes:    slices.Clone(s.nodes),
		edges:    slices.Clone(s.edges),
		edgeEnds: slices.Clone(s.edgeEnds),
		nodeIdx:  maps.Clone(s.nodeIdx),
		edgeIdx:  maps.Clone(s.edgeIdx),
		// The adj clone shares the per-node step slices: a fork only ever
		// appends to them, and an append never rewrites an element a
		// published length covers. A dropped fork may leave steps past
		// the published lengths; the next fork's appends overwrite them.
		adj:   maps.Clone(s.adj),
		deadN: maps.Clone(s.deadN),
		deadE: maps.Clone(s.deadE),
		overN: maps.Clone(s.overN),
		overE: maps.Clone(s.overE),
		liveN: s.liveN,
		liveE: s.liveE,
	}
}

// seal derives a fork's read-side summaries from its delta; the sealed
// epoch is never written again.
func (s *OverlaySnap) seal() {
	s.labelDelta = map[string][]int32{}
	s.labelSub = map[string]int{}
	for idx, o := range s.overN {
		for _, l := range s.base.rawNode(int(idx)).Labels {
			s.labelSub[l]++
		}
		for _, l := range o.rec.Labels {
			s.labelDelta[l] = append(s.labelDelta[l], int32(idx))
		}
	}
	for idx := range s.deadN {
		if int(idx) < s.baseN {
			s.deadBaseN++
			for _, l := range s.base.rawNode(int(idx)).Labels {
				s.labelSub[l]++
			}
		}
	}
	for idx := range s.deadE {
		if int(idx) < s.baseE {
			s.deadBaseE++
		}
	}
	for j, n := range s.nodes {
		gi := int32(s.baseN + j)
		if _, dead := s.deadN[ElemIdx(gi)]; dead {
			continue
		}
		for _, l := range n.Labels {
			s.labelDelta[l] = append(s.labelDelta[l], gi)
		}
	}
	for _, list := range s.labelDelta {
		slices.Sort(list)
	}
}

// publishLocked seals a fork and makes it the current epoch with one
// atomic store. Callers hold ov.mu.
func (ov *Overlay) publishLocked(s *OverlaySnap) {
	s.seal()
	ov.cur.Store(s)
}

// Seq reports the epoch number (ascending across Apply and compaction).
func (s *OverlaySnap) Seq() uint64 { return s.seq }

// deltaSize measures the epoch's delta: new elements, tombstones, and
// overrides. It drives the compaction trigger.
func (s *OverlaySnap) deltaSize() int {
	return len(s.nodes) + len(s.edges) + len(s.deadN) + len(s.deadE) + len(s.overN) + len(s.overE)
}

// nodeAtIdx resolves a global node index to its live record: nil when the
// index is tombstoned in this epoch or a dead hole in the base, the
// override record when one applies, the base or delta record otherwise.
func (s *OverlaySnap) nodeAtIdx(i int) *Node {
	if _, dead := s.deadN[ElemIdx(i)]; dead {
		return nil
	}
	if i >= s.baseN {
		if i-s.baseN >= len(s.nodes) {
			return nil
		}
		return s.nodes[i-s.baseN]
	}
	if o, ok := s.overN[ElemIdx(i)]; ok {
		return o.rec
	}
	return s.base.NodeByIndex(i)
}

// edgeAtIdx resolves a global edge index to its live record, or nil.
func (s *OverlaySnap) edgeAtIdx(i int) *Edge {
	if _, dead := s.deadE[ElemIdx(i)]; dead {
		return nil
	}
	if i >= s.baseE {
		if i-s.baseE >= len(s.edges) {
			return nil
		}
		return s.edges[i-s.baseE]
	}
	if o, ok := s.overE[ElemIdx(i)]; ok {
		return o.rec
	}
	return s.base.EdgeByIndex(i)
}

// Node returns the node with the given id, or nil.
func (s *OverlaySnap) Node(id NodeID) *Node {
	if i, ok := s.nodeIdx[id]; ok {
		return s.nodeAtIdx(int(i))
	}
	if i, ok := s.base.InternNode(id); ok {
		return s.nodeAtIdx(int(i))
	}
	return nil
}

// Edge returns the edge with the given id, or nil.
func (s *OverlaySnap) Edge(id EdgeID) *Edge {
	if i, ok := s.edgeIdx[id]; ok {
		return s.edgeAtIdx(int(i))
	}
	if i, ok := s.base.InternEdge(id); ok {
		return s.edgeAtIdx(int(i))
	}
	return nil
}

// NumNodes reports |N| (live nodes in this epoch).
func (s *OverlaySnap) NumNodes() int { return s.liveN }

// NumEdges reports |E| (live edges in this epoch).
func (s *OverlaySnap) NumEdges() int { return s.liveE }

// NodeIndexSpan reports the exclusive upper bound of node indices in this
// epoch; dense scans iterate [0, span) and skip nil records.
func (s *OverlaySnap) NodeIndexSpan() int { return s.baseN + len(s.nodes) }

// EdgeIndexSpan reports the exclusive upper bound of edge indices.
func (s *OverlaySnap) EdgeIndexSpan() int { return s.baseE + len(s.edges) }

// Nodes iterates live nodes in insertion order (ascending global index).
func (s *OverlaySnap) Nodes(f func(*Node) bool) {
	for i, span := 0, s.NodeIndexSpan(); i < span; i++ {
		if n := s.nodeAtIdx(i); n != nil && !f(n) {
			return
		}
	}
}

// Edges iterates live edges in insertion order.
func (s *OverlaySnap) Edges(f func(*Edge) bool) {
	for i, span := 0, s.EdgeIndexSpan(); i < span; i++ {
		if e := s.edgeAtIdx(i); e != nil && !f(e) {
			return
		}
	}
}

// Steps iterates the live traversal steps of node index i: base arena
// steps minus tombstoned edges, then delta steps. When the node has no
// delta steps and the epoch has no edge tombstones, it delegates straight
// to the base arena — the hot path for read-mostly epochs.
func (s *OverlaySnap) Steps(i int, f func(edge, other int, kind StepKind) bool) {
	d := s.adj[int32(i)]
	if i < s.baseN {
		// Base windows contain only base edges (and, by the detach
		// invariant, only live endpoints while those edges are live), so
		// the per-step tombstone check is needed only when base edges
		// have actually been deleted this epoch.
		fast := s.deadBaseE == 0
		if fast && len(d) == 0 {
			s.base.Steps(i, f)
			return
		}
		stopped := false
		s.base.Steps(i, func(edge, other int, kind StepKind) bool {
			if !fast {
				if _, dead := s.deadE[ElemIdx(edge)]; dead {
					return true
				}
			}
			if !f(edge, other, kind) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
	for _, st := range d {
		if _, dead := s.deadE[ElemIdx(st.edge)]; dead {
			continue
		}
		if !f(int(st.edge), int(st.other), st.kind) {
			return
		}
	}
}

// NodeByIndex returns the node at a dense index, or nil when out of range
// or tombstoned.
func (s *OverlaySnap) NodeByIndex(i int) *Node { return s.nodeAtIdx(i) }

// EdgeByIndex returns the edge at a dense index, or nil when out of range
// or tombstoned.
func (s *OverlaySnap) EdgeByIndex(i int) *Edge { return s.edgeAtIdx(i) }

// EdgeEnds returns the dense endpoint indices of the edge at index i.
func (s *OverlaySnap) EdgeEnds(i int) (src, tgt int) {
	if i < s.baseE {
		return s.base.EdgeEnds(i)
	}
	ends := s.edgeEnds[i-s.baseE]
	return int(ends[0]), int(ends[1])
}

// NodesWithLabelIdx merges the base label index (or, given equality
// filters, the smallest base bucket) with the epoch's label delta, both
// sorted ascending, skipping base entries that this epoch tombstones or
// overrides. Overridden nodes are re-emitted from the delta when their
// current labels still include the label; the delta is not filtered, so
// it yields a superset.
func (s *OverlaySnap) NodesWithLabelIdx(label string, f func(i int) bool, eq ...PropEq) {
	bs := s.base.labelIdx(label, eq)
	ds := s.labelDelta[label]
	if s.labelSub[label] == 0 && (len(ds) == 0 || ds[0] >= int32(s.baseN)) {
		// No base entry with this label is tombstoned or overridden, and
		// every delta entry sits above the base span: plain concatenation,
		// no per-entry checks.
		for _, i := range bs {
			if !f(int(i)) {
				return
			}
		}
		for _, i := range ds {
			if !f(int(i)) {
				return
			}
		}
		return
	}
	bi, di := 0, 0
	for bi < len(bs) || di < len(ds) {
		if di >= len(ds) || (bi < len(bs) && bs[bi] < ds[di]) {
			i := bs[bi]
			bi++
			if _, dead := s.deadN[ElemIdx(i)]; dead {
				continue
			}
			if _, ov := s.overN[ElemIdx(i)]; ov {
				continue
			}
			if !f(int(i)) {
				return
			}
		} else {
			i := ds[di]
			di++
			if !f(int(i)) {
				return
			}
		}
	}
}

// NodesWithLabel iterates the live nodes carrying the label in insertion
// order.
func (s *OverlaySnap) NodesWithLabel(label string, f func(*Node) bool) {
	s.NodesWithLabelIdx(label, func(i int) bool {
		return f(s.nodeAtIdx(i))
	})
}

// CountNodesWithLabel answers with O(1) arithmetic over the base count.
func (s *OverlaySnap) CountNodesWithLabel(label string) int {
	return s.base.CountNodesWithLabel(label) - s.labelSub[label] + len(s.labelDelta[label])
}

// LabelStats derives this epoch's cardinalities from the base statistics
// plus the delta, lazily and once per epoch.
func (s *OverlaySnap) LabelStats() StoreStats {
	s.statsOnce.Do(func() {
		bs := s.base.LabelStats()
		st := StoreStats{
			Nodes:      s.liveN,
			Edges:      s.liveE,
			NodeLabels: maps.Clone(bs.NodeLabels),
			EdgeLabels: maps.Clone(bs.EdgeLabels),
			core:       bs.core,
		}
		if st.NodeLabels == nil {
			st.NodeLabels = map[string]int{}
		}
		if st.EdgeLabels == nil {
			st.EdgeLabels = map[string]int{}
		}
		for l, n := range s.labelSub {
			if c := st.NodeLabels[l] - n; c > 0 {
				st.NodeLabels[l] = c
			} else {
				delete(st.NodeLabels, l)
			}
		}
		for l, list := range s.labelDelta {
			st.NodeLabels[l] += len(list)
		}
		for idx := range s.deadE {
			if int(idx) >= s.baseE {
				continue
			}
			for _, l := range s.base.rawEdge(int(idx)).Labels {
				if c := st.EdgeLabels[l] - 1; c > 0 {
					st.EdgeLabels[l] = c
				} else {
					delete(st.EdgeLabels, l)
				}
			}
		}
		for j, e := range s.edges {
			if _, dead := s.deadE[ElemIdx(s.baseE+j)]; dead {
				continue
			}
			for _, l := range e.Labels {
				st.EdgeLabels[l]++
			}
		}
		s.stats = st
	})
	return s.stats
}

// InternNode maps a node id to its stable dense index (live ids only).
func (s *OverlaySnap) InternNode(id NodeID) (ElemIdx, bool) {
	if i, ok := s.nodeIdx[id]; ok {
		if _, dead := s.deadN[i]; !dead {
			return i, true
		}
		return 0, false
	}
	if i, ok := s.base.InternNode(id); ok {
		if _, dead := s.deadN[i]; !dead {
			return i, true
		}
	}
	return 0, false
}

// InternEdge maps an edge id to its stable dense index (live ids only).
func (s *OverlaySnap) InternEdge(id EdgeID) (ElemIdx, bool) {
	if i, ok := s.edgeIdx[id]; ok {
		if _, dead := s.deadE[i]; !dead {
			return i, true
		}
		return 0, false
	}
	if i, ok := s.base.InternEdge(id); ok {
		if _, dead := s.deadE[i]; !dead {
			return i, true
		}
	}
	return 0, false
}
