package graph

// The epoch-snapshot overlay store: a layered Store with an immutable CSR
// base plus an append-only in-memory delta (new nodes and edges, property
// and label overrides, tombstones), published to readers as epoch-pinned
// snapshots via one atomic pointer swap. Readers take no locks — a query
// pins the epoch current at its start and never observes a mix of epochs;
// writers batch mutations and publish a fresh immutable *OverlaySnap per
// Apply; a background compactor (see compact.go) merges the delta into a
// fresh CSR while queries keep draining on whatever epoch they pinned.
//
// Interned-index stability is the load-bearing invariant: base elements
// keep their CSR indices verbatim, delta elements take indices above the
// base high-water mark in insertion order, and compaction lays the merged
// CSR out over the very same index space (tombstoned elements stay as dead
// holes rather than being renumbered). A binding's (kind, ElemIdx) pair
// therefore means the same element in every epoch that has it live, so the
// whole interned execution path — dense engine positions, varint dedup
// keys, fixed-width join keys — runs unchanged on an overlay snapshot.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gpml/internal/value"
)

// EpochSource is a Store that serves mutable state through epoch-pinned
// snapshots. Evaluation entry points resolve it once per query via Pin, so
// a running query never observes two epochs.
type EpochSource interface {
	Store
	// PinEpoch returns the current epoch's immutable snapshot.
	PinEpoch() Store
}

// Pin resolves an EpochSource to its current immutable snapshot; any other
// store is returned unchanged. Every evaluation entry point pins its
// stores before planning or enumeration starts.
func Pin(s Store) Store {
	if e, ok := s.(EpochSource); ok {
		return e.PinEpoch()
	}
	return s
}

// DefaultCompactThreshold is the delta size (elements + tombstones +
// overrides) at which Apply starts a background compaction.
const DefaultCompactThreshold = 1 << 12

// Overlay is a mutable layered Store: an immutable CSR base plus an
// in-memory delta, served to readers as epoch snapshots. All Store reads
// on the Overlay itself delegate to the current epoch (each call pins
// transiently); evaluation pins one snapshot per query via Pin, and
// callers wanting a stable view across several reads should hold a
// Snapshot. Writers go through Begin/Apply; Apply is atomic — all of a
// batch's mutations become visible in one epoch swap, or none on error.
//
// An Overlay is safe for any number of concurrent readers and writers
// (writers serialize on an internal mutex).
type Overlay struct {
	mu  sync.Mutex // serializes writers, compaction swap, epoch publication
	cur atomic.Pointer[OverlaySnap]

	w   writerState
	seq uint64 // epoch counter
	gen uint64 // mutation counter, stamped on tombstones and overrides

	compactThreshold int // delta size triggering background compaction; <=0 disables
	compacting       bool
	compactDone      *sync.Cond // signalled under mu when a compaction finishes

	// Durability state (see durable.go); all zero on a plain in-memory
	// overlay. batchSeq counts applied batches (each Apply is one WAL
	// batch), baseBatch is the batch cut baked into w.base, replaying is
	// true between OpenDurable and the end of Recover.
	batchSeq  uint64
	baseBatch uint64
	replaying bool
	dur       *durability
}

// OverlayOption configures an Overlay at construction.
type OverlayOption func(*Overlay)

// WithCompactThreshold sets the delta size (new elements + tombstones +
// overrides) at which Apply triggers a background compaction. n <= 0
// disables automatic compaction; Compact can still be called explicitly.
func WithCompactThreshold(n int) OverlayOption {
	return func(ov *Overlay) { ov.compactThreshold = n }
}

// nodeOver is a base-node override: the full replacement record (labels
// and properties as they now stand) plus the mutation generation that last
// touched it, which compaction uses to tell baked-in overrides from ones
// applied while it was running.
type nodeOver struct {
	rec *Node
	gen uint64
}

// edgeOver is a base-edge override (properties only; an edge's endpoints,
// direction and labels are fixed at insertion).
type edgeOver struct {
	rec *Edge
	gen uint64
}

// deltaStep is one traversal step contributed by a delta edge, mirroring
// the CSR incidence arena's (edge, other, kind) triples with global dense
// indices.
type deltaStep struct {
	edge  int32
	other int32
	kind  StepKind
}

// writerState is the writer-owned mutable delta. It always mirrors the
// most recently published snapshot exactly (Apply publishes at the end of
// every batch), so validation can read the published epoch. All access is
// under Overlay.mu.
type writerState struct {
	base *CSR

	nodes    []*Node // delta nodes; element i has global index baseN+i
	edges    []*Edge
	edgeEnds [][2]int32

	nodeIdx map[NodeID]ElemIdx // live-id lookup for delta elements
	edgeIdx map[EdgeID]ElemIdx

	adj map[int32][]deltaStep // delta steps per node (base or delta)

	deadN map[ElemIdx]uint64 // tombstones → generation of the delete
	deadE map[ElemIdx]uint64

	overN map[ElemIdx]nodeOver // base-element overrides
	overE map[ElemIdx]edgeOver

	liveN, liveE int
}

// NewOverlay layers a mutable delta over an immutable CSR base. The base
// must not be shared with concurrent mutators (CSRs are immutable, so any
// previously taken snapshot qualifies).
func NewOverlay(base *CSR, opts ...OverlayOption) *Overlay {
	ov := &Overlay{compactThreshold: DefaultCompactThreshold}
	ov.w = writerState{
		base:    base,
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
	for _, f := range opts {
		f(ov)
	}
	ov.compactDone = sync.NewCond(&ov.mu)
	ov.mu.Lock()
	ov.publishLocked()
	ov.mu.Unlock()
	return ov
}

// Snapshot returns the current epoch's immutable snapshot. The snapshot is
// a full Store (and Stepper) and stays valid — and unchanged — forever;
// queries that must not observe later mutations evaluate against it.
func (ov *Overlay) Snapshot() *OverlaySnap { return ov.cur.Load() }

// PinEpoch implements EpochSource.
func (ov *Overlay) PinEpoch() Store { return ov.cur.Load() }

// Wait blocks until any in-flight background compaction (including ones
// it chains into) has finished. Useful in tests and before process
// shutdown; readers never need it.
func (ov *Overlay) Wait() {
	ov.mu.Lock()
	for ov.compacting {
		ov.compactDone.Wait()
	}
	ov.mu.Unlock()
}

// opKind discriminates batch operations.
type opKind uint8

const (
	opAddNode opKind = iota
	opAddEdge
	opDelNode
	opDelEdge
	opSetNodeProp
	opSetEdgeProp
	opSetNodeLabels
)

// op is one staged mutation.
type op struct {
	kind     opKind
	id       string
	src, dst NodeID
	dir      Direction
	labels   []string
	props    map[string]value.Value
	key      string
	val      value.Value
}

// Batch stages mutations for one atomic Apply. Methods are fluent and
// never fail; staging errors (none today — validation happens in Apply
// against the then-current epoch) and conflicts surface from Apply. A
// Batch is not safe for concurrent use and must not be reused after Apply.
type Batch struct {
	ops []op
}

// Begin starts an empty mutation batch.
func (ov *Overlay) Begin() *Batch { return &Batch{} }

// AddNode stages a node insertion. Labels are copied, sorted and
// deduplicated on apply, exactly as Graph.AddNode normalizes them.
func (b *Batch) AddNode(id NodeID, labels []string, props map[string]value.Value) *Batch {
	b.ops = append(b.ops, op{kind: opAddNode, id: string(id), labels: labels, props: props})
	return b
}

// AddEdge stages a directed edge insertion from src to dst.
func (b *Batch) AddEdge(id EdgeID, src, dst NodeID, labels []string, props map[string]value.Value) *Batch {
	b.ops = append(b.ops, op{kind: opAddEdge, id: string(id), src: src, dst: dst, dir: Directed, labels: labels, props: props})
	return b
}

// AddUndirectedEdge stages an undirected edge insertion connecting u and v.
func (b *Batch) AddUndirectedEdge(id EdgeID, u, v NodeID, labels []string, props map[string]value.Value) *Batch {
	b.ops = append(b.ops, op{kind: opAddEdge, id: string(id), src: u, dst: v, dir: Undirected, labels: labels, props: props})
	return b
}

// DeleteNode stages a detaching node deletion: the node and every edge
// still incident to it (base or delta) are tombstoned together, so a live
// edge never references a dead endpoint.
func (b *Batch) DeleteNode(id NodeID) *Batch {
	b.ops = append(b.ops, op{kind: opDelNode, id: string(id)})
	return b
}

// DeleteEdge stages an edge deletion.
func (b *Batch) DeleteEdge(id EdgeID) *Batch {
	b.ops = append(b.ops, op{kind: opDelEdge, id: string(id)})
	return b
}

// SetNodeProp stages a single-property update on a node. The element keeps
// its interned index; only the record readers resolve changes.
func (b *Batch) SetNodeProp(id NodeID, key string, v value.Value) *Batch {
	b.ops = append(b.ops, op{kind: opSetNodeProp, id: string(id), key: key, val: v})
	return b
}

// SetEdgeProp stages a single-property update on an edge.
func (b *Batch) SetEdgeProp(id EdgeID, key string, v value.Value) *Batch {
	b.ops = append(b.ops, op{kind: opSetEdgeProp, id: string(id), key: key, val: v})
	return b
}

// SetNodeLabels stages a full label replacement on a node (normalized like
// AddNode); removing and later re-adding a label round-trips exactly.
func (b *Batch) SetNodeLabels(id NodeID, labels []string) *Batch {
	b.ops = append(b.ops, op{kind: opSetNodeLabels, id: string(id), labels: labels})
	return b
}

// Len reports the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Apply validates and applies a batch atomically: either every operation
// takes effect and one new epoch is published, or the overlay is left on
// its previous epoch and an error describing the first conflict is
// returned. Readers holding earlier snapshots are unaffected either way.
func (ov *Overlay) Apply(b *Batch) error {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if err := ov.validateLocked(b); err != nil {
		return err
	}
	// Log-then-publish: on a durable overlay the batch must be on disk
	// (per the fsync policy) before any of it becomes visible. A failed
	// append leaves the overlay on its previous epoch.
	if ov.dur != nil {
		if err := ov.dur.logBatchLocked(ov.batchSeq+1, ov.seq+1, b); err != nil {
			return err
		}
	}
	ov.batchSeq++
	for i := range b.ops {
		ov.gen++
		ov.applyLocked(&b.ops[i])
	}
	snap := ov.publishLocked()
	ov.maybeCompactLocked(snap)
	return nil
}

// validateLocked checks every staged op against the current epoch plus the
// batch's own earlier effects, without mutating anything.
func (ov *Overlay) validateLocked(b *Batch) error {
	cur := ov.cur.Load()
	// liveness overrides accumulated by the batch itself: present-and-true
	// means created (or still live), present-and-false means deleted.
	nodeOvr := map[NodeID]bool{}
	edgeOvr := map[EdgeID]bool{}
	// stagedAdj tracks edges the batch itself adds, per endpoint, so a
	// later DeleteNode in the same batch detaches them in the shadow state.
	stagedAdj := map[NodeID][]EdgeID{}
	nodeLive := func(id NodeID) bool {
		if v, ok := nodeOvr[id]; ok {
			return v
		}
		_, ok := cur.InternNode(id)
		return ok
	}
	edgeLive := func(id EdgeID) bool {
		if v, ok := edgeOvr[id]; ok {
			return v
		}
		_, ok := cur.InternEdge(id)
		return ok
	}
	for i := range b.ops {
		o := &b.ops[i]
		switch o.kind {
		case opAddNode:
			if nodeLive(NodeID(o.id)) {
				return fmt.Errorf("overlay: duplicate node id %q", o.id)
			}
			if edgeLive(EdgeID(o.id)) {
				return fmt.Errorf("overlay: id %q already used by an edge (N and E must be disjoint)", o.id)
			}
			nodeOvr[NodeID(o.id)] = true
		case opAddEdge:
			if edgeLive(EdgeID(o.id)) {
				return fmt.Errorf("overlay: duplicate edge id %q", o.id)
			}
			if nodeLive(NodeID(o.id)) {
				return fmt.Errorf("overlay: id %q already used by a node (N and E must be disjoint)", o.id)
			}
			if !nodeLive(o.src) {
				return fmt.Errorf("overlay: edge %q references unknown node %q", o.id, o.src)
			}
			if !nodeLive(o.dst) {
				return fmt.Errorf("overlay: edge %q references unknown node %q", o.id, o.dst)
			}
			edgeOvr[EdgeID(o.id)] = true
			stagedAdj[o.src] = append(stagedAdj[o.src], EdgeID(o.id))
			if o.dst != o.src {
				stagedAdj[o.dst] = append(stagedAdj[o.dst], EdgeID(o.id))
			}
		case opDelNode:
			if !nodeLive(NodeID(o.id)) {
				return fmt.Errorf("overlay: delete of unknown node %q", o.id)
			}
			nodeOvr[NodeID(o.id)] = false
			// Detach semantics: incident edges die with the node, so mark
			// them dead in the shadow state too — both edges live in the
			// current epoch and edges this batch staged.
			if i, ok := cur.InternNode(NodeID(o.id)); ok {
				cur.Steps(int(i), func(edge, _ int, _ StepKind) bool {
					edgeOvr[cur.edgeAtIdx(edge).ID] = false
					return true
				})
			}
			for _, eid := range stagedAdj[NodeID(o.id)] {
				edgeOvr[eid] = false
			}
		case opDelEdge:
			if !edgeLive(EdgeID(o.id)) {
				return fmt.Errorf("overlay: delete of unknown edge %q", o.id)
			}
			edgeOvr[EdgeID(o.id)] = false
		case opSetNodeProp, opSetNodeLabels:
			if !nodeLive(NodeID(o.id)) {
				return fmt.Errorf("overlay: update of unknown node %q", o.id)
			}
		case opSetEdgeProp:
			if !edgeLive(EdgeID(o.id)) {
				return fmt.Errorf("overlay: update of unknown edge %q", o.id)
			}
		}
	}
	return nil
}

// applyLocked executes one validated op against the writer state.
func (ov *Overlay) applyLocked(o *op) {
	w := &ov.w
	switch o.kind {
	case opAddNode:
		idx := ElemIdx(w.base.NodeIndexSpan() + len(w.nodes))
		w.nodes = append(w.nodes, &Node{ID: NodeID(o.id), Labels: normLabels(o.labels), Props: copyProps(o.props)})
		w.nodeIdx[NodeID(o.id)] = idx
		w.liveN++
	case opAddEdge:
		gidx := int32(w.base.EdgeIndexSpan() + len(w.edges))
		si, _ := ov.resolveNodeLocked(o.src)
		ti, _ := ov.resolveNodeLocked(o.dst)
		e := &Edge{ID: EdgeID(o.id), Source: o.src, Target: o.dst, Direction: o.dir, Labels: normLabels(o.labels), Props: copyProps(o.props)}
		w.edges = append(w.edges, e)
		w.edgeEnds = append(w.edgeEnds, [2]int32{int32(si), int32(ti)})
		w.edgeIdx[EdgeID(o.id)] = ElemIdx(gidx)
		s32, t32 := int32(si), int32(ti)
		switch {
		case o.dir == Undirected:
			w.adj[s32] = append(w.adj[s32], deltaStep{gidx, t32, StepUndirected})
			if s32 != t32 {
				w.adj[t32] = append(w.adj[t32], deltaStep{gidx, s32, StepUndirected})
			}
		case s32 == t32:
			w.adj[s32] = append(w.adj[s32], deltaStep{gidx, s32, StepLoop})
		default:
			w.adj[s32] = append(w.adj[s32], deltaStep{gidx, t32, StepOut})
			w.adj[t32] = append(w.adj[t32], deltaStep{gidx, s32, StepIn})
		}
		w.liveE++
	case opDelNode:
		idx, _ := ov.resolveNodeLocked(NodeID(o.id))
		// Detach: tombstone every still-live incident edge, base and delta.
		ov.forEachLiveStepLocked(idx, func(edge ElemIdx) {
			if _, dead := w.deadE[edge]; !dead {
				w.deadE[edge] = ov.gen
				w.liveE--
			}
		})
		w.deadN[ElemIdx(idx)] = ov.gen
		delete(w.overN, ElemIdx(idx))
		w.liveN--
	case opDelEdge:
		idx, _ := ov.resolveEdgeLocked(EdgeID(o.id))
		w.deadE[ElemIdx(idx)] = ov.gen
		delete(w.overE, ElemIdx(idx))
		w.liveE--
	case opSetNodeProp:
		idx, _ := ov.resolveNodeLocked(NodeID(o.id))
		rec := cloneNode(ov.effectiveNodeLocked(idx))
		if rec.Props == nil {
			rec.Props = map[string]value.Value{}
		}
		rec.Props[o.key] = o.val
		ov.putNodeRecLocked(idx, rec)
	case opSetNodeLabels:
		idx, _ := ov.resolveNodeLocked(NodeID(o.id))
		rec := cloneNode(ov.effectiveNodeLocked(idx))
		rec.Labels = normLabels(o.labels)
		ov.putNodeRecLocked(idx, rec)
	case opSetEdgeProp:
		idx, _ := ov.resolveEdgeLocked(EdgeID(o.id))
		old := ov.effectiveEdgeLocked(idx)
		rec := cloneEdge(old)
		if rec.Props == nil {
			rec.Props = map[string]value.Value{}
		}
		rec.Props[o.key] = o.val
		if idx < ov.w.base.EdgeIndexSpan() {
			ov.w.overE[ElemIdx(idx)] = edgeOver{rec, ov.gen}
		} else {
			ov.w.edges[idx-ov.w.base.EdgeIndexSpan()] = rec
		}
	}
}

// resolveNodeLocked maps a live node id to its global dense index.
func (ov *Overlay) resolveNodeLocked(id NodeID) (int, bool) {
	if i, ok := ov.w.nodeIdx[id]; ok {
		if _, dead := ov.w.deadN[i]; !dead {
			return int(i), true
		}
		return 0, false
	}
	if i, ok := ov.w.base.InternNode(id); ok {
		if _, dead := ov.w.deadN[i]; !dead {
			return int(i), true
		}
	}
	return 0, false
}

// resolveEdgeLocked maps a live edge id to its global dense index.
func (ov *Overlay) resolveEdgeLocked(id EdgeID) (int, bool) {
	if i, ok := ov.w.edgeIdx[id]; ok {
		if _, dead := ov.w.deadE[i]; !dead {
			return int(i), true
		}
		return 0, false
	}
	if i, ok := ov.w.base.InternEdge(id); ok {
		if _, dead := ov.w.deadE[i]; !dead {
			return int(i), true
		}
	}
	return 0, false
}

// effectiveNodeLocked returns the current record of a live node index.
func (ov *Overlay) effectiveNodeLocked(idx int) *Node {
	w := &ov.w
	if idx >= w.base.NodeIndexSpan() {
		return w.nodes[idx-w.base.NodeIndexSpan()]
	}
	if o, ok := w.overN[ElemIdx(idx)]; ok {
		return o.rec
	}
	return w.base.rawNode(idx)
}

// effectiveEdgeLocked returns the current record of a live edge index.
func (ov *Overlay) effectiveEdgeLocked(idx int) *Edge {
	w := &ov.w
	if idx >= w.base.EdgeIndexSpan() {
		return w.edges[idx-w.base.EdgeIndexSpan()]
	}
	if o, ok := w.overE[ElemIdx(idx)]; ok {
		return o.rec
	}
	return w.base.rawEdge(idx)
}

// putNodeRecLocked installs an updated node record: delta records are
// replaced copy-on-write (published snapshots hold the old pointer in
// their own cloned slice), base records gain an override stamped with the
// current generation.
func (ov *Overlay) putNodeRecLocked(idx int, rec *Node) {
	if idx >= ov.w.base.NodeIndexSpan() {
		ov.w.nodes[idx-ov.w.base.NodeIndexSpan()] = rec
		return
	}
	ov.w.overN[ElemIdx(idx)] = nodeOver{rec, ov.gen}
}

// forEachLiveStepLocked visits the distinct edges currently incident to a
// node index — base arena steps plus delta steps — without liveness
// filtering of the node itself (the caller is deleting it).
func (ov *Overlay) forEachLiveStepLocked(idx int, f func(edge ElemIdx)) {
	w := &ov.w
	if idx < w.base.NodeIndexSpan() {
		w.base.Steps(idx, func(edge, other int, kind StepKind) bool {
			f(ElemIdx(edge))
			return true
		})
	}
	for _, d := range w.adj[int32(idx)] {
		f(ElemIdx(d.edge))
	}
}

// cloneNode copies a node record with a private Props map (labels are
// replaced wholesale by SetNodeLabels, never mutated in place, so the
// slice may be shared).
func cloneNode(n *Node) *Node {
	c := *n
	c.Props = copyProps(n.Props)
	return &c
}

// cloneEdge copies an edge record with a private Props map.
func cloneEdge(e *Edge) *Edge {
	c := *e
	c.Props = copyProps(e.Props)
	return &c
}

// The Overlay's own Store implementation delegates every read to the
// current epoch, pinned per call. Point reads through it are correct but
// multi-call consistency is not guaranteed across an Apply; evaluation
// pins one snapshot per query via Pin, and callers wanting a stable view
// hold a Snapshot.

// Node returns the node with the given id in the current epoch, or nil.
func (ov *Overlay) Node(id NodeID) *Node { return ov.cur.Load().Node(id) }

// Edge returns the edge with the given id in the current epoch, or nil.
func (ov *Overlay) Edge(id EdgeID) *Edge { return ov.cur.Load().Edge(id) }

// NumNodes reports |N| in the current epoch.
func (ov *Overlay) NumNodes() int { return ov.cur.Load().NumNodes() }

// NumEdges reports |E| in the current epoch.
func (ov *Overlay) NumEdges() int { return ov.cur.Load().NumEdges() }

// Nodes iterates the current epoch's live nodes in insertion order.
func (ov *Overlay) Nodes(f func(*Node) bool) { ov.cur.Load().Nodes(f) }

// Edges iterates the current epoch's live edges in insertion order.
func (ov *Overlay) Edges(f func(*Edge) bool) { ov.cur.Load().Edges(f) }

// NodesWithLabel iterates the current epoch's nodes carrying the label.
func (ov *Overlay) NodesWithLabel(label string, f func(*Node) bool) {
	ov.cur.Load().NodesWithLabel(label, f)
}

// CountNodesWithLabel counts the label's nodes in the current epoch.
func (ov *Overlay) CountNodesWithLabel(label string) int {
	return ov.cur.Load().CountNodesWithLabel(label)
}

// LabelStats reports the current epoch's cardinality statistics.
func (ov *Overlay) LabelStats() StoreStats { return ov.cur.Load().LabelStats() }
