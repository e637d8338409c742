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
// Snapshot. Writers go through Begin/Apply; Apply is atomic — it checks
// and applies the batch's ops one by one on a private fork of the current
// epoch and publishes the fork in one epoch swap, or drops it on the
// first error.
//
// An Overlay is safe for any number of concurrent readers and writers
// (writers serialize on an internal mutex).
type Overlay struct {
	mu  sync.Mutex // serializes writers, compaction swap, epoch publication
	cur atomic.Pointer[OverlaySnap]

	compactThreshold int // delta size triggering background compaction; <=0 disables
	compacting       bool
	compactDone      *sync.Cond // signalled under mu when a compaction finishes

	// Durability state (see durable.go); all zero on a plain in-memory
	// overlay. baseBatch is the batch cut baked into the current epoch's
	// base, replaying is true between OpenDurable and the end of Recover.
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

// NewOverlay layers a mutable delta over an immutable CSR base. The base
// must not be shared with concurrent mutators (CSRs are immutable, so any
// previously taken snapshot qualifies).
func NewOverlay(base *CSR, opts ...OverlayOption) *Overlay {
	ov := &Overlay{compactThreshold: DefaultCompactThreshold}
	for _, f := range opts {
		f(ov)
	}
	ov.compactDone = sync.NewCond(&ov.mu)
	ov.cur.Store(newEpoch(base, 1, 0))
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
	s, err := ov.commitLocked(b, 0, ov.dur)
	if err != nil {
		return err
	}
	ov.maybeCompactLocked(s)
	return nil
}

// commitLocked runs one batch on a fork of the current epoch and
// publishes the fork, as epoch minEpoch or later; on any error the fork is
// dropped and the current epoch stands. A non-nil d logs the batch to the
// WAL after its ops succeed and before any of it is visible
// (log-then-publish).
func (ov *Overlay) commitLocked(b *Batch, minEpoch uint64, d *durability) (*OverlaySnap, error) {
	s := ov.cur.Load().fork()
	s.batch++
	s.seq = max(s.seq, minEpoch)
	for i := range b.ops {
		if err := s.apply(&b.ops[i]); err != nil {
			return nil, err
		}
	}
	if d != nil {
		if err := d.logBatchLocked(s.batch, s.seq, b); err != nil {
			return nil, err
		}
	}
	ov.publishLocked(s)
	return s, nil
}

// apply checks one op's precondition against the fork s — the published
// epoch plus the batch's earlier ops — through the epoch's own lookups,
// then performs it on s. After an error s is half-written and must be
// dropped.
func (s *OverlaySnap) apply(o *op) error {
	s.gen++
	switch o.kind {
	case opAddNode:
		if _, live := s.InternNode(NodeID(o.id)); live {
			return fmt.Errorf("overlay: duplicate node id %q", o.id)
		}
		if _, live := s.InternEdge(EdgeID(o.id)); live {
			return fmt.Errorf("overlay: id %q already used by an edge (N and E must be disjoint)", o.id)
		}
		s.nodeIdx[NodeID(o.id)] = ElemIdx(s.NodeIndexSpan())
		s.nodes = append(s.nodes, &Node{ID: NodeID(o.id), Labels: normLabels(o.labels), Props: copyProps(o.props)})
		s.liveN++
	case opAddEdge:
		if _, live := s.InternEdge(EdgeID(o.id)); live {
			return fmt.Errorf("overlay: duplicate edge id %q", o.id)
		}
		if _, live := s.InternNode(NodeID(o.id)); live {
			return fmt.Errorf("overlay: id %q already used by a node (N and E must be disjoint)", o.id)
		}
		si, live := s.InternNode(o.src)
		if !live {
			return fmt.Errorf("overlay: edge %q references unknown node %q", o.id, o.src)
		}
		ti, live := s.InternNode(o.dst)
		if !live {
			return fmt.Errorf("overlay: edge %q references unknown node %q", o.id, o.dst)
		}
		gi := int32(s.EdgeIndexSpan())
		s.edgeIdx[EdgeID(o.id)] = ElemIdx(gi)
		s.edges = append(s.edges, &Edge{ID: EdgeID(o.id), Source: o.src, Target: o.dst, Direction: o.dir, Labels: normLabels(o.labels), Props: copyProps(o.props)})
		s.edgeEnds = append(s.edgeEnds, [2]int32{int32(si), int32(ti)})
		s.addSteps(gi, o.dir, int32(si), int32(ti))
		s.liveE++
	case opDelNode:
		i, live := s.InternNode(NodeID(o.id))
		if !live {
			return fmt.Errorf("overlay: delete of unknown node %q", o.id)
		}
		// Detach: tombstone every still-live incident edge, base and
		// delta. The dead check stays because a fork counts its dead base
		// edges only at seal, so its Steps may still yield a base edge
		// this batch deleted.
		s.Steps(int(i), func(edge, _ int, _ StepKind) bool {
			if _, dead := s.deadE[ElemIdx(edge)]; !dead {
				s.deadE[ElemIdx(edge)] = s.gen
				s.liveE--
			}
			return true
		})
		s.deadN[i] = s.gen
		delete(s.overN, i)
		s.liveN--
	case opDelEdge:
		i, live := s.InternEdge(EdgeID(o.id))
		if !live {
			return fmt.Errorf("overlay: delete of unknown edge %q", o.id)
		}
		s.deadE[i] = s.gen
		delete(s.overE, i)
		s.liveE--
	case opSetNodeProp, opSetNodeLabels:
		i, live := s.InternNode(NodeID(o.id))
		if !live {
			return fmt.Errorf("overlay: update of unknown node %q", o.id)
		}
		rec := cloneNode(s.nodeAtIdx(int(i)))
		if o.kind == opSetNodeLabels {
			rec.Labels = normLabels(o.labels)
		} else {
			if rec.Props == nil {
				rec.Props = map[string]value.Value{}
			}
			rec.Props[o.key] = o.val
		}
		// Delta records are replaced copy-on-write (published epochs hold
		// the old pointer in their own slice); base records gain an
		// override stamped with the op's generation.
		if int(i) >= s.baseN {
			s.nodes[int(i)-s.baseN] = rec
		} else {
			s.overN[i] = nodeOver{rec, s.gen}
		}
	case opSetEdgeProp:
		i, live := s.InternEdge(EdgeID(o.id))
		if !live {
			return fmt.Errorf("overlay: update of unknown edge %q", o.id)
		}
		rec := cloneEdge(s.edgeAtIdx(int(i)))
		if rec.Props == nil {
			rec.Props = map[string]value.Value{}
		}
		rec.Props[o.key] = o.val
		if int(i) >= s.baseE {
			s.edges[int(i)-s.baseE] = rec
		} else {
			s.overE[i] = edgeOver{rec, s.gen}
		}
	}
	return nil
}

// addSteps records the traversal steps of delta edge gi between node
// indices src and dst.
func (s *OverlaySnap) addSteps(gi int32, dir Direction, src, dst int32) {
	switch {
	case dir == Undirected:
		s.adj[src] = append(s.adj[src], deltaStep{gi, dst, StepUndirected})
		if src != dst {
			s.adj[dst] = append(s.adj[dst], deltaStep{gi, src, StepUndirected})
		}
	case src == dst:
		s.adj[src] = append(s.adj[src], deltaStep{gi, src, StepLoop})
	default:
		s.adj[src] = append(s.adj[src], deltaStep{gi, dst, StepOut})
		s.adj[dst] = append(s.adj[dst], deltaStep{gi, src, StepIn})
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
