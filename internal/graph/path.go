package graph

import (
	"fmt"
	"strings"
)

// Path is an alternating sequence of nodes and edges that starts and ends
// with a node, where consecutive nodes are connected by the edge between
// them (Section 2 of the paper; the graph-theory term is "walk"). A path of
// length zero is a single node.
//
// The paper writes paths as path(c1,li1,a1,t1,a3,hp3,p2); String renders
// that form.
type Path struct {
	Nodes []NodeID // len(Nodes) == len(Edges)+1
	Edges []EdgeID
}

// SingleNode returns the zero-length path at n.
func SingleNode(n NodeID) Path { return Path{Nodes: []NodeID{n}} }

// Len returns the number of edges in the path.
func (p Path) Len() int { return len(p.Edges) }

// First returns the first node; it panics on an empty (invalid) path.
func (p Path) First() NodeID { return p.Nodes[0] }

// Last returns the final node.
func (p Path) Last() NodeID { return p.Nodes[len(p.Nodes)-1] }

// Append returns a new path extended by edge e to node n. The receiver is
// not modified (paths are persistent during search).
func (p Path) Append(e EdgeID, n NodeID) Path {
	nodes := make([]NodeID, len(p.Nodes)+1)
	copy(nodes, p.Nodes)
	nodes[len(p.Nodes)] = n
	edges := make([]EdgeID, len(p.Edges)+1)
	copy(edges, p.Edges)
	edges[len(p.Edges)] = e
	return Path{Nodes: nodes, Edges: edges}
}

// Concat joins two paths; q must start where p ends.
func (p Path) Concat(q Path) (Path, error) {
	if len(p.Nodes) == 0 {
		return q, nil
	}
	if len(q.Nodes) == 0 {
		return p, nil
	}
	if p.Last() != q.First() {
		return Path{}, fmt.Errorf("graph: cannot concatenate path ending at %q with path starting at %q", p.Last(), q.First())
	}
	nodes := make([]NodeID, 0, len(p.Nodes)+len(q.Nodes)-1)
	nodes = append(nodes, p.Nodes...)
	nodes = append(nodes, q.Nodes[1:]...)
	edges := make([]EdgeID, 0, len(p.Edges)+len(q.Edges))
	edges = append(edges, p.Edges...)
	edges = append(edges, q.Edges...)
	return Path{Nodes: nodes, Edges: edges}, nil
}

// String renders the paper's path(n0,e1,n1,…) notation.
func (p Path) String() string { return string(p.AppendText(nil)) }

// AppendText appends the String rendering to dst.
func (p Path) AppendText(dst []byte) []byte {
	dst = append(dst, "path("...)
	for i, n := range p.Nodes {
		if i > 0 {
			dst = append(dst, ',')
			dst = append(dst, p.Edges[i-1]...)
			dst = append(dst, ',')
		}
		dst = append(dst, n...)
	}
	return append(dst, ')')
}

// IsTrail reports whether no edge repeats (Fig 7: TRAIL).
func (p Path) IsTrail() bool {
	seen := make(map[EdgeID]struct{}, len(p.Edges))
	for _, e := range p.Edges {
		if _, ok := seen[e]; ok {
			return false
		}
		seen[e] = struct{}{}
	}
	return true
}

// IsAcyclic reports whether no node repeats (Fig 7: ACYCLIC).
func (p Path) IsAcyclic() bool {
	seen := make(map[NodeID]struct{}, len(p.Nodes))
	for _, n := range p.Nodes {
		if _, ok := seen[n]; ok {
			return false
		}
		seen[n] = struct{}{}
	}
	return true
}

// IsSimple reports whether no node repeats except that the first and last
// node may coincide (Fig 7: SIMPLE).
func (p Path) IsSimple() bool {
	if len(p.Nodes) == 0 {
		return true
	}
	seen := make(map[NodeID]struct{}, len(p.Nodes))
	interior := p.Nodes[:len(p.Nodes)-1]
	for _, n := range interior {
		if _, ok := seen[n]; ok {
			return false
		}
		seen[n] = struct{}{}
	}
	last := p.Nodes[len(p.Nodes)-1]
	if _, ok := seen[last]; ok {
		return last == p.Nodes[0]
	}
	return true
}

// ValidIn reports whether the path is structurally valid in g: every
// consecutive (node, edge, node) triple is connected by that edge.
func (p Path) ValidIn(g *Graph) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	if len(p.Nodes) != len(p.Edges)+1 {
		return fmt.Errorf("graph: path has %d nodes and %d edges", len(p.Nodes), len(p.Edges))
	}
	for i, n := range p.Nodes {
		if g.Node(n) == nil {
			return fmt.Errorf("graph: path references unknown node %q", n)
		}
		if i == 0 {
			continue
		}
		e := g.Edge(p.Edges[i-1])
		if e == nil {
			return fmt.Errorf("graph: path references unknown edge %q", p.Edges[i-1])
		}
		if !e.Connects(p.Nodes[i-1], n) {
			return fmt.Errorf("graph: edge %q does not connect %q and %q", e.ID, p.Nodes[i-1], n)
		}
	}
	return nil
}

// IdxPath is a path in interned form: dense node and edge indices
// relative to one Stepper. The engines build and deduplicate paths in this
// representation; Materialize resolves it to element ids when a result
// row is rendered. A zero IdxPath (no nodes) is the "no path" marker the
// unstarted-search case uses; a single-node path has one node and no
// edges.
type IdxPath struct {
	Nodes []ElemIdx // len(Nodes) == len(Edges)+1 when non-empty
	Edges []ElemIdx
}

// Len returns the number of edges in the path.
func (p IdxPath) Len() int { return len(p.Edges) }

// First returns the first node index; it panics on an empty path.
func (p IdxPath) First() ElemIdx { return p.Nodes[0] }

// Last returns the final node index.
func (p IdxPath) Last() ElemIdx { return p.Nodes[len(p.Nodes)-1] }

// Materialize resolves the interned path to element ids against the
// store that issued the indices.
func (p IdxPath) Materialize(s Stepper) Path {
	if len(p.Nodes) == 0 {
		return Path{}
	}
	nodes := make([]NodeID, len(p.Nodes))
	for i, n := range p.Nodes {
		nodes[i] = s.NodeByIndex(int(n)).ID
	}
	edges := make([]EdgeID, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = s.EdgeByIndex(int(e)).ID
	}
	return Path{Nodes: nodes, Edges: edges}
}

// AppendText appends the materialized path's Path.AppendText rendering
// to dst, reading ids from the store's interned strings.
func (p IdxPath) AppendText(dst []byte, s Stepper) []byte {
	dst = append(dst, "path("...)
	for i, n := range p.Nodes {
		if i > 0 {
			dst = append(dst, ',')
			dst = append(dst, s.EdgeByIndex(int(p.Edges[i-1])).ID...)
			dst = append(dst, ',')
		}
		dst = append(dst, s.NodeByIndex(int(n)).ID...)
	}
	return append(dst, ')')
}

// AppendKeyString appends the materialized path's canonical key (the
// Path.Key format) to a builder, for canonical sort keys.
func (p IdxPath) AppendKeyString(b *strings.Builder, s Stepper) {
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('|')
			b.WriteString(string(s.EdgeByIndex(int(p.Edges[i-1])).ID))
			b.WriteByte('|')
		}
		b.WriteString(string(s.NodeByIndex(int(n)).ID))
	}
}

// Key returns a canonical identity key for the path.
func (p Path) Key() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('|')
			b.WriteString(string(p.Edges[i-1]))
			b.WriteByte('|')
		}
		b.WriteString(string(n))
	}
	return b.String()
}
