package graph

import (
	"fmt"
	"strings"
)

// ElemIdx is the stable dense index of a node or edge within one Store.
// Every Store assigns each element its index in insertion order, and the
// whole execution path — binding entries, dedup keys, join keys, engine
// positions — runs on those integers; element id strings are materialized
// only when a result row (or a canonical sort key) is rendered. Node and
// edge index spaces are separate (a Ref carries the element kind).
// Indices are only meaningful relative to the store that issued them,
// and a query reads one pinned store, so element identity is (kind,
// index) everywhere inside it.
type ElemIdx uint32

// elemCore is the immutable element side of every snapshot store: the
// paper's (N, E, ρ, λ, π) as dense records in insertion order, the id
// interner, the label → nodes inverted index and the cardinality
// statistics. CSR embeds it and adds only the adjacency arena; an overlay
// epoch reads it through its CSR base. It implements every Store and
// Stepper method except Steps.
//
// A core built from a live store is fully live. One produced by overlay
// compaction (or loaded from its checkpoint) keeps tombstoned elements as
// dead holes at their original indices — index stability across epochs is
// worth more than a dense renumbering. A dead slot has a zero record, no
// adjacency, and no entry in the id maps, the label index or the
// statistics; stats.Nodes/Edges count the live elements, the slice
// lengths are the index spans.
type elemCore struct {
	nodes []Node
	edges []Edge

	nodeIdx map[NodeID]int32
	edgeIdx map[EdgeID]int32

	// edgeSrc and edgeTgt hold each edge's endpoint node indices (as
	// presented: equal for self-loops), so traversal checks and path
	// replay never round-trip through ids.
	edgeSrc []int32
	edgeTgt []int32

	// labelNodes maps a label to the indices of nodes carrying it, in
	// insertion order.
	labelNodes map[string][]int32

	// deadN/deadE mark the holes; each is only as long as its last hole
	// (empty on a fully live core), so read them through isDead.
	deadN []bool
	deadE []bool

	stats StoreStats
	// eq holds the lazily built equality indexes behind label scans with
	// a property filter and StoreStats.PropNDV. It is a pointer so the
	// value copies a build makes of the core share it.
	eq *eqIndex
}

// newElemCore returns an empty core with room for the given spans.
func newElemCore(spanN, spanE int) elemCore {
	return elemCore{
		nodes:      make([]Node, 0, spanN),
		edges:      make([]Edge, 0, spanE),
		nodeIdx:    make(map[NodeID]int32, spanN),
		edgeIdx:    make(map[EdgeID]int32, spanE),
		edgeSrc:    make([]int32, 0, spanE),
		edgeTgt:    make([]int32, 0, spanE),
		labelNodes: map[string][]int32{},
		stats:      StoreStats{NodeLabels: map[string]int{}, EdgeLabels: map[string]int{}},
		eq:         &eqIndex{},
	}
}

// indexStore builds the fully live core of s: records are copied in
// iteration order (labels and property maps are shared structurally with
// the source, which must not be mutated concurrently with the build).
func indexStore(s Store) elemCore {
	c := newElemCore(s.NumNodes(), s.NumEdges())
	s.Nodes(func(n *Node) bool {
		c.addNode(n)
		return true
	})
	s.Edges(func(e *Edge) bool {
		c.addEdge(e, c.nodeIdx[e.Source], c.nodeIdx[e.Target])
		return true
	})
	return c
}

// addNode appends the next node index: a copy of n, or a dead hole when
// n is nil.
func (c *elemCore) addNode(n *Node) {
	i := int32(len(c.nodes))
	if n == nil {
		c.nodes = append(c.nodes, Node{})
		c.deadN = markDead(c.deadN, int(i))
		return
	}
	c.nodes = append(c.nodes, *n)
	c.nodeIdx[n.ID] = i
	c.stats.Nodes++
	for _, l := range n.Labels {
		c.labelNodes[l] = append(c.labelNodes[l], i)
		c.stats.NodeLabels[l]++
	}
}

// addEdge appends the next edge index: a copy of e with its endpoint
// node indices, or a dead hole when e is nil.
func (c *elemCore) addEdge(e *Edge, src, tgt int32) {
	i := int32(len(c.edges))
	if e == nil {
		c.edges = append(c.edges, Edge{})
		c.edgeSrc, c.edgeTgt = append(c.edgeSrc, 0), append(c.edgeTgt, 0)
		c.deadE = markDead(c.deadE, int(i))
		return
	}
	c.edges = append(c.edges, *e)
	c.edgeSrc, c.edgeTgt = append(c.edgeSrc, src), append(c.edgeTgt, tgt)
	c.edgeIdx[e.ID] = i
	c.stats.Edges++
	for _, l := range e.Labels {
		c.stats.EdgeLabels[l]++
	}
}

// markDead extends a hole mask to cover index i and marks it.
func markDead(mask []bool, i int) []bool {
	for len(mask) < i {
		mask = append(mask, false)
	}
	return append(mask, true)
}

// isDead reads a hole mask, which may stop short of the index span.
func isDead(mask []bool, i int) bool { return i < len(mask) && mask[i] }

// arena is the CSR adjacency arena: node i's steps are the entries
// incOff[i]:incOff[i+1] of the parallel incEdge/incOther/incKind arrays
// (dense edge index, neighbour's node index, step kind), in edge
// insertion order, so product searches step without id lookups.
type arena struct {
	incOff   []int32
	incEdge  []int32
	incOther []int32
	incKind  []StepKind
}

// steps iterates node i's traversal steps.
func (a *arena) steps(i int32, f func(edge, other int, kind StepKind) bool) {
	for k := a.incOff[i]; k < a.incOff[i+1]; k++ {
		if !f(int(a.incEdge[k]), int(a.incOther[k]), a.incKind[k]) {
			return
		}
	}
}

// layout builds the adjacency arena of the core's live edges, one row per
// node index. Rows are filled in edge insertion order and a self-loop is
// incident once, matching the map graph's Incident contract.
func (c *elemCore) layout() arena {
	a := arena{incOff: make([]int32, len(c.nodes)+1)}
	// Count each node's degree into the row after it, then prefix-sum.
	for i := range c.edges {
		if isDead(c.deadE, i) {
			continue
		}
		a.incOff[c.edgeSrc[i]+1]++
		if c.edgeSrc[i] != c.edgeTgt[i] {
			a.incOff[c.edgeTgt[i]+1]++
		}
	}
	for i := range c.nodes {
		a.incOff[i+1] += a.incOff[i]
	}
	steps := a.incOff[len(c.nodes)]
	a.incEdge = make([]int32, steps)
	a.incOther = make([]int32, steps)
	a.incKind = make([]StepKind, steps)
	// cur is each row's fill cursor.
	cur := append([]int32(nil), a.incOff[:len(c.nodes)]...)
	put := func(n, edge, other int32, k StepKind) {
		a.incEdge[cur[n]], a.incOther[cur[n]], a.incKind[cur[n]] = edge, other, k
		cur[n]++
	}
	for i := range c.edges {
		if isDead(c.deadE, i) {
			continue
		}
		ei, si, ti := int32(i), c.edgeSrc[i], c.edgeTgt[i]
		switch {
		case c.edges[i].Direction == Undirected:
			put(si, ei, ti, StepUndirected)
			if si != ti {
				put(ti, ei, si, StepUndirected)
			}
		case si == ti:
			put(si, ei, si, StepLoop)
		default:
			put(si, ei, ti, StepOut)
			put(ti, ei, si, StepIn)
		}
	}
	return a
}

// Node returns the node with the given id, or nil.
func (c *elemCore) Node(id NodeID) *Node {
	i, ok := c.nodeIdx[id]
	if !ok {
		return nil
	}
	return &c.nodes[i]
}

// Edge returns the edge with the given id, or nil.
func (c *elemCore) Edge(id EdgeID) *Edge {
	i, ok := c.edgeIdx[id]
	if !ok {
		return nil
	}
	return &c.edges[i]
}

// NumNodes reports |N| (live nodes).
func (c *elemCore) NumNodes() int { return c.stats.Nodes }

// NumEdges reports |E| (live edges).
func (c *elemCore) NumEdges() int { return c.stats.Edges }

// Nodes iterates live nodes in insertion order.
func (c *elemCore) Nodes(f func(*Node) bool) {
	for i := range c.nodes {
		if !isDead(c.deadN, i) && !f(&c.nodes[i]) {
			return
		}
	}
}

// Edges iterates live edges in insertion order.
func (c *elemCore) Edges(f func(*Edge) bool) {
	for i := range c.edges {
		if !isDead(c.deadE, i) && !f(&c.edges[i]) {
			return
		}
	}
}

// NodesWithLabel iterates the nodes carrying the label from the inverted
// index, in insertion order.
func (c *elemCore) NodesWithLabel(label string, f func(*Node) bool) {
	for _, i := range c.labelNodes[label] {
		if !f(&c.nodes[i]) {
			return
		}
	}
}

// NodesWithLabelIdx iterates the dense indices of the nodes carrying the
// label, in insertion order, straight off the inverted index — or, given
// equality filters, off the smallest of their index buckets.
func (c *elemCore) NodesWithLabelIdx(label string, f func(i int) bool, eq ...PropEq) {
	for _, i := range c.labelIdx(label, eq) {
		if !f(int(i)) {
			return
		}
	}
}

// CountNodesWithLabel answers from the inverted index in O(1).
func (c *elemCore) CountNodesWithLabel(label string) int { return len(c.labelNodes[label]) }

// LabelStats returns the cardinality statistics computed at build time,
// answering PropNDV from the core.
func (c *elemCore) LabelStats() StoreStats {
	st := c.stats
	st.core = c
	return st
}

// InternNode maps a node id to its stable dense index (ok=false for
// unknown ids). The interner is not part of Store: overlay batch
// validation and id lookups call it on the concrete core.
func (c *elemCore) InternNode(id NodeID) (ElemIdx, bool) {
	i, ok := c.nodeIdx[id]
	return ElemIdx(i), ok
}

// InternEdge maps an edge id to its stable dense index.
func (c *elemCore) InternEdge(id EdgeID) (ElemIdx, bool) {
	i, ok := c.edgeIdx[id]
	return ElemIdx(i), ok
}

// NodeByIndex returns the node at a dense index, or nil when out of range
// or a dead hole.
func (c *elemCore) NodeByIndex(i int) *Node {
	if uint(i) >= uint(len(c.nodes)) || isDead(c.deadN, i) {
		return nil
	}
	return &c.nodes[i]
}

// EdgeByIndex returns the edge at a dense index, or nil when out of range
// or a dead hole.
func (c *elemCore) EdgeByIndex(i int) *Edge {
	if uint(i) >= uint(len(c.edges)) || isDead(c.deadE, i) {
		return nil
	}
	return &c.edges[i]
}

// rawNode returns the record at a node index with no dead-hole guard; for
// overlay internals that have already established liveness.
func (c *elemCore) rawNode(i int) *Node { return &c.nodes[i] }

// rawEdge returns the record at an edge index with no dead-hole guard.
func (c *elemCore) rawEdge(i int) *Edge { return &c.edges[i] }

// EdgeEnds returns the dense endpoint indices of the edge at index i.
func (c *elemCore) EdgeEnds(i int) (src, tgt int) {
	return int(c.edgeSrc[i]), int(c.edgeTgt[i])
}

// NodeIndexSpan reports the exclusive upper bound of node indices (the
// full array span, counting dead holes); dense scans iterate [0, span)
// and skip nil records.
func (c *elemCore) NodeIndexSpan() int { return len(c.nodes) }

// EdgeIndexSpan reports the exclusive upper bound of edge indices.
func (c *elemCore) EdgeIndexSpan() int { return len(c.edges) }

// summary renders the cardinalities for the stores' Stats methods.
func (c *elemCore) summary() string {
	directed := 0
	c.Edges(func(e *Edge) bool {
		if e.Direction == Directed {
			directed++
		}
		return true
	})
	labels := map[string]int{}
	for l, n := range c.stats.NodeLabels {
		labels[l] += n
	}
	for l, n := range c.stats.EdgeLabels {
		labels[l] += n
	}
	return fmt.Sprintf("nodes=%d edges=%d (directed=%d undirected=%d) labels=%s",
		c.stats.Nodes, c.stats.Edges, directed, c.stats.Edges-directed, strings.Join(sortedLabels(labels), ","))
}
