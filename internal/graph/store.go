package graph

import "sort"

// Store is the abstract graph the evaluator runs against: the paper's
// G = (N, E, ρ, λ, π) reduced to the operations pattern matching needs.
// Implementations must be safe for concurrent readers; the evaluator never
// mutates a Store.
//
// The package's stores are layers over one immutable element core: CSR
// (the core plus one adjacency arena) and Overlay (a mutable delta over a
// CSR base, optionally durable). The map-based *Graph is their builder and
// answers queries through a memoized CSR snapshot of itself. A third-party
// backend only needs to satisfy this interface: the evaluator snapshots it
// once per query (AsStepper) and reads only that snapshot, so incidence,
// dense indices and the id interner are not part of the contract.
type Store interface {
	// Node returns the node with the given id, or nil.
	Node(id NodeID) *Node
	// Edge returns the edge with the given id, or nil.
	Edge(id EdgeID) *Edge
	// NumNodes reports |N|.
	NumNodes() int
	// NumEdges reports |E|.
	NumEdges() int
	// Nodes iterates nodes in insertion order; f returns false to stop.
	Nodes(f func(*Node) bool)
	// Edges iterates edges in insertion order; f returns false to stop.
	Edges(f func(*Edge) bool)
	// NodesWithLabel iterates the nodes carrying the label, in insertion
	// order. It must visit exactly the nodes a full Nodes scan filtered by
	// HasLabel(label) would.
	NodesWithLabel(label string, f func(*Node) bool)
	// CountNodesWithLabel reports how many nodes carry the label, for
	// seed selection (cheaper than LabelStats when only a few labels are
	// of interest).
	CountNodesWithLabel(label string) int
	// LabelStats reports element cardinalities per label, for cost
	// estimates and reporting.
	LabelStats() StoreStats
}

// StoreStats summarizes a store's cardinalities.
type StoreStats struct {
	Nodes int
	Edges int
	// NodeLabels counts nodes per label; EdgeLabels counts edges per label.
	// An element with k labels contributes to k counters.
	NodeLabels map[string]int
	EdgeLabels map[string]int

	// core answers PropNDV; nil for statistics built by hand.
	core *elemCore
}

// PropNDV reports the exact number of distinct non-NULL values the
// property takes over the nodes carrying the label, counted up to
// value.Eq (int 1 and float 1.0 count once, as do all NaNs), or 0 when
// unknown: statistics built by hand, or no such node has the property. It
// is the bucket count of the core's equality index for the pair, built the
// first time a query asks and kept for the core's lifetime; an overlay
// epoch answers from its base core, so values its delta added or removed
// are not counted.
func (s StoreStats) PropNDV(label, prop string) int {
	if s.core == nil {
		return 0
	}
	return s.core.propNDV(label, prop)
}

// NodeLabelCount returns the number of nodes carrying the label.
func (s StoreStats) NodeLabelCount(label string) int { return s.NodeLabels[label] }

// EdgeLabelCount returns the number of edges carrying the label.
func (s StoreStats) EdgeLabelCount(label string) int { return s.EdgeLabels[label] }

// AvgDegree reports the mean number of incident edges per node (each edge
// touches two endpoints); the fanout baseline of the join cost model.
func (s StoreStats) AvgDegree() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return 2 * float64(s.Edges) / float64(s.Nodes)
}

// CheapestNodeLabel picks the label with the fewest nodes among the
// candidates, for seeding evaluation from the smallest candidate set. All
// candidate labels are required (conjunctive), so any of them is a sound
// seed set; the smallest is the cheapest.
func CheapestNodeLabel(s Store, candidates []string) (string, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	best := candidates[0]
	if len(candidates) == 1 {
		return best, true // nothing to compare; skip the count
	}
	bestCount := s.CountNodesWithLabel(best)
	for _, l := range candidates[1:] {
		if c := s.CountNodesWithLabel(l); c < bestCount {
			best, bestCount = l, c
		}
	}
	return best, true
}

// NodesWithLabel iterates the nodes carrying the label in insertion order
// (a filtered scan: the label index lives in the snapshot).
func (g *Graph) NodesWithLabel(label string, f func(*Node) bool) {
	for _, id := range g.nodeOrder {
		n := g.nodes[id]
		if n.HasLabel(label) && !f(n) {
			return
		}
	}
}

// CountNodesWithLabel and LabelStats answer from the memoized snapshot;
// callers must treat the returned maps as read-only.

// CountNodesWithLabel counts the nodes carrying the label.
func (g *Graph) CountNodesWithLabel(label string) int {
	return g.snapshot().CountNodesWithLabel(label)
}

// LabelStats returns cardinality statistics.
func (g *Graph) LabelStats() StoreStats { return g.snapshot().LabelStats() }

// statically assert what each store of the family satisfies.
var (
	_ Store       = (*Graph)(nil)
	_ EpochSource = (*Overlay)(nil)
	_ Stepper     = (*OverlaySnap)(nil)
	_ Stepper     = (*CSR)(nil)
)

// sortedLabels returns the map's keys sorted, for deterministic rendering.
func sortedLabels(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
