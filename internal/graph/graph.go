// Package graph implements the property graph data model of Definition 2.1
// of the paper: a finite mixed multigraph G = (N, E, ρ, λ, π) where N and E
// are disjoint sets of node and edge identifiers, ρ maps every edge to an
// ordered pair of nodes (directed edge) or an unordered pair (undirected
// edge), λ maps every element to a (possibly empty) set of labels, and π is
// a partial function from (element, property name) to property values.
//
// Multi-edges (several edges between the same endpoints) and self-loops are
// permitted for both directed and undirected edges, exactly as the paper's
// definition allows.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gpml/internal/value"
)

// NodeID identifies a node. IDs are user-supplied strings (the paper uses
// a1…a6, c1, c2, p1…p4, ip1, ip2).
type NodeID string

// EdgeID identifies an edge (t1…t8, li1…li6, hp1…hp6, sip1, sip2).
type EdgeID string

// Direction describes whether an edge is directed.
type Direction uint8

// Edge directions.
const (
	Directed   Direction = iota // ρ(e) ∈ N×N: e goes from Source to Target
	Undirected                  // ρ(e) = {u,v}: e connects u and v symmetrically
)

// String reports "directed" or "undirected".
func (d Direction) String() string {
	if d == Directed {
		return "directed"
	}
	return "undirected"
}

// Node is a graph node with its labels and properties.
type Node struct {
	ID     NodeID
	Labels []string // sorted, deduplicated
	Props  map[string]value.Value
}

// Edge is a graph edge. For directed edges Source→Target is the
// orientation; for undirected edges (Source, Target) is an arbitrary but
// fixed presentation of the unordered pair.
type Edge struct {
	ID        EdgeID
	Source    NodeID
	Target    NodeID
	Direction Direction
	Labels    []string
	Props     map[string]value.Value
}

// Other returns the endpoint opposite to n. For a self-loop it returns n.
func (e *Edge) Other(n NodeID) NodeID {
	if e.Source == n {
		return e.Target
	}
	return e.Source
}

// Connects reports whether the edge connects u and v (in either role).
func (e *Edge) Connects(u, v NodeID) bool {
	return (e.Source == u && e.Target == v) || (e.Source == v && e.Target == u)
}

// IsLoop reports whether the edge is a self-loop.
func (e *Edge) IsLoop() bool { return e.Source == e.Target }

// HasLabel reports whether the element carries the given label.
func (e *Edge) HasLabel(l string) bool { return hasLabel(e.Labels, l) }

// HasLabel reports whether the node carries the given label.
func (n *Node) HasLabel(l string) bool { return hasLabel(n.Labels, l) }

func hasLabel(labels []string, l string) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
}

// Prop returns the value of property p on the node, or NULL when π is
// undefined there (π is a partial function).
func (n *Node) Prop(p string) value.Value {
	if v, ok := n.Props[p]; ok {
		return v
	}
	return value.Null
}

// Prop returns the value of property p on the edge, or NULL.
func (e *Edge) Prop(p string) value.Value {
	if v, ok := e.Props[p]; ok {
		return v
	}
	return value.Null
}

// Graph is an in-memory property graph with adjacency indexes. The zero
// value is an empty graph ready to use. It is the builder of the store
// family, not a query backend: evaluation and the label statistics
// answer from a memoized CSR snapshot, rebuilt on the first query after a
// mutation (insertion is append-only, so every pre-existing element keeps
// its dense index across rebuilds). Overlay is the store for graphs that
// change while they are queried.
type Graph struct {
	nodes map[NodeID]*Node
	edges map[EdgeID]*Edge

	nodeOrder []NodeID // insertion order, for deterministic iteration
	edgeOrder []EdgeID

	// incident lists every edge id touching a node (directed in either
	// orientation, and undirected), in insertion order.
	incident map[NodeID][]EdgeID

	// snap memoizes the CSR snapshot every query on the graph runs
	// against; each mutation drops it. snapMu serializes rebuilds, readers
	// take one atomic load.
	snapMu sync.Mutex
	snap   atomic.Pointer[CSR]
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:    make(map[NodeID]*Node),
		edges:    make(map[EdgeID]*Edge),
		incident: make(map[NodeID][]EdgeID),
	}
}

// ensure lazily initializes the maps so the zero Graph works.
func (g *Graph) ensure() {
	if g.nodes == nil {
		g.nodes = make(map[NodeID]*Node)
		g.edges = make(map[EdgeID]*Edge)
		g.incident = make(map[NodeID][]EdgeID)
	}
}

// AddNode inserts a node. Labels are copied, sorted and deduplicated.
// It returns an error on duplicate IDs or an ID already used by an edge
// (Definition 2.1 requires N ∩ E = ∅).
func (g *Graph) AddNode(id NodeID, labels []string, props map[string]value.Value) error {
	g.ensure()
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("graph: duplicate node id %q", id)
	}
	if _, ok := g.edges[EdgeID(id)]; ok {
		return fmt.Errorf("graph: id %q already used by an edge (N and E must be disjoint)", id)
	}
	n := &Node{ID: id, Labels: normLabels(labels), Props: copyProps(props)}
	g.nodes[id] = n
	g.nodeOrder = append(g.nodeOrder, id)
	g.snap.Store(nil)
	return nil
}

// AddEdge inserts a directed edge from src to dst.
func (g *Graph) AddEdge(id EdgeID, src, dst NodeID, labels []string, props map[string]value.Value) error {
	return g.addEdge(id, src, dst, Directed, labels, props)
}

// AddUndirectedEdge inserts an undirected edge connecting u and v.
func (g *Graph) AddUndirectedEdge(id EdgeID, u, v NodeID, labels []string, props map[string]value.Value) error {
	return g.addEdge(id, u, v, Undirected, labels, props)
}

func (g *Graph) addEdge(id EdgeID, src, dst NodeID, dir Direction, labels []string, props map[string]value.Value) error {
	g.ensure()
	if _, ok := g.edges[id]; ok {
		return fmt.Errorf("graph: duplicate edge id %q", id)
	}
	if _, ok := g.nodes[NodeID(id)]; ok {
		return fmt.Errorf("graph: id %q already used by a node (N and E must be disjoint)", id)
	}
	if _, ok := g.nodes[src]; !ok {
		return fmt.Errorf("graph: edge %q references unknown node %q", id, src)
	}
	if _, ok := g.nodes[dst]; !ok {
		return fmt.Errorf("graph: edge %q references unknown node %q", id, dst)
	}
	e := &Edge{ID: id, Source: src, Target: dst, Direction: dir, Labels: normLabels(labels), Props: copyProps(props)}
	g.edges[id] = e
	g.edgeOrder = append(g.edgeOrder, id)
	g.incident[src] = append(g.incident[src], id)
	if src != dst {
		g.incident[dst] = append(g.incident[dst], id)
	}
	g.snap.Store(nil)
	return nil
}

// snapshot returns the memoized CSR snapshot, building it on first use
// after a mutation. Concurrent readers share one build.
func (g *Graph) snapshot() *CSR {
	if c := g.snap.Load(); c != nil {
		return c
	}
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if c := g.snap.Load(); c != nil {
		return c
	}
	c := Snapshot(g)
	g.snap.Store(c)
	return c
}

// SetNodeProp updates one property on a node. The record's property map
// is replaced, not mutated in place, so CSR snapshots taken earlier keep
// observing the pre-update map — which is why the memoized snapshot, a
// copy of the records, is dropped here too.
func (g *Graph) SetNodeProp(id NodeID, key string, v value.Value) error {
	n := g.Node(id)
	if n == nil {
		return fmt.Errorf("graph: update of unknown node %q", id)
	}
	props := make(map[string]value.Value, len(n.Props)+1)
	for k, pv := range n.Props {
		props[k] = pv
	}
	props[key] = v
	n.Props = props
	g.snap.Store(nil)
	return nil
}

// SetEdgeProp updates one property on an edge, with the same
// copy-on-write and invalidation contract as SetNodeProp.
func (g *Graph) SetEdgeProp(id EdgeID, key string, v value.Value) error {
	e := g.Edge(id)
	if e == nil {
		return fmt.Errorf("graph: update of unknown edge %q", id)
	}
	props := make(map[string]value.Value, len(e.Props)+1)
	for k, pv := range e.Props {
		props[k] = pv
	}
	props[key] = v
	e.Props = props
	g.snap.Store(nil)
	return nil
}

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if g.nodes == nil {
		return nil
	}
	return g.nodes[id]
}

// Edge returns the edge with the given id, or nil.
func (g *Graph) Edge(id EdgeID) *Edge {
	if g.edges == nil {
		return nil
	}
	return g.edges[id]
}

// NumNodes reports |N|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Nodes iterates nodes in insertion order.
func (g *Graph) Nodes(f func(*Node) bool) {
	for _, id := range g.nodeOrder {
		if !f(g.nodes[id]) {
			return
		}
	}
}

// Edges iterates edges in insertion order.
func (g *Graph) Edges(f func(*Edge) bool) {
	for _, id := range g.edgeOrder {
		if !f(g.edges[id]) {
			return
		}
	}
}

// NodeIDs returns all node ids in insertion order (copy).
func (g *Graph) NodeIDs() []NodeID {
	out := make([]NodeID, len(g.nodeOrder))
	copy(out, g.nodeOrder)
	return out
}

// EdgeIDs returns all edge ids in insertion order (copy).
func (g *Graph) EdgeIDs() []EdgeID {
	out := make([]EdgeID, len(g.edgeOrder))
	copy(out, g.edgeOrder)
	return out
}

// Incident iterates the edges touching node n in insertion order. A
// self-loop is visited once.
func (g *Graph) Incident(n NodeID, f func(*Edge) bool) {
	for _, id := range g.incident[n] {
		if !f(g.edges[id]) {
			return
		}
	}
}

// Degree reports the number of edges incident to n (a self-loop counts
// once).
func (g *Graph) Degree(n NodeID) int { return len(g.incident[n]) }

// IncidentIDs returns the ids of edges touching n (shared slice; do not
// mutate).
func (g *Graph) IncidentIDs(n NodeID) []EdgeID { return g.incident[n] }

// Labels returns the set of labels appearing on any node or edge, sorted.
func (g *Graph) Labels() []string {
	set := map[string]struct{}{}
	for _, id := range g.nodeOrder {
		for _, l := range g.nodes[id].Labels {
			set[l] = struct{}{}
		}
	}
	for _, id := range g.edgeOrder {
		for _, l := range g.edges[id].Labels {
			set[l] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Validate checks the structural invariants of Definition 2.1: ρ total on
// E with endpoints in N, N ∩ E = ∅, labels normalized. It returns the
// first violation found, or nil.
func (g *Graph) Validate() error {
	for _, id := range g.nodeOrder {
		if _, ok := g.edges[EdgeID(id)]; ok {
			return fmt.Errorf("graph: id %q is both a node and an edge", id)
		}
	}
	for _, id := range g.edgeOrder {
		e := g.edges[id]
		if g.nodes[e.Source] == nil {
			return fmt.Errorf("graph: edge %q has dangling source %q", id, e.Source)
		}
		if g.nodes[e.Target] == nil {
			return fmt.Errorf("graph: edge %q has dangling target %q", id, e.Target)
		}
		if !sort.StringsAreSorted(e.Labels) {
			return fmt.Errorf("graph: edge %q labels not normalized", id)
		}
	}
	return nil
}

// Stats summarizes the graph for logging and experiment output.
func (g *Graph) Stats() string {
	directed, undirected := 0, 0
	for _, id := range g.edgeOrder {
		if g.edges[id].Direction == Directed {
			directed++
		} else {
			undirected++
		}
	}
	return fmt.Sprintf("nodes=%d edges=%d (directed=%d undirected=%d) labels=%s",
		len(g.nodeOrder), len(g.edgeOrder), directed, undirected, strings.Join(g.Labels(), ","))
}

func normLabels(labels []string) []string {
	if len(labels) == 0 {
		return nil
	}
	out := make([]string, 0, len(labels))
	seen := map[string]struct{}{}
	for _, l := range labels {
		if _, ok := seen[l]; ok {
			continue
		}
		seen[l] = struct{}{}
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func copyProps(props map[string]value.Value) map[string]value.Value {
	if len(props) == 0 {
		return nil
	}
	out := make(map[string]value.Value, len(props))
	for k, v := range props {
		out[k] = v
	}
	return out
}
