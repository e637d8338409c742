package graph

// StepKind classifies one traversal step relative to the current node.
// The evaluator's product search matches it against the seven edge-pattern
// orientations without consulting the edge's endpoint ids.
type StepKind uint8

// Step kinds.
const (
	StepOut        StepKind = iota // directed edge leaving the node
	StepIn                         // directed edge arriving at the node
	StepLoop                       // directed self-loop (traversable with or against)
	StepUndirected                 // undirected edge (a self-loop steps once)
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepOut:
		return "out"
	case StepIn:
		return "in"
	case StepLoop:
		return "loop"
	default:
		return "undirected"
	}
}

// Stepper extends Store with dense integer indexing of nodes and edges and
// an incident-step iterator, the traversal shape product-graph searches
// want: a (node index × automaton state) pair packs into one integer, and
// each step hands over the neighbour's index without id round-trips.
//
// Snapshots and overlay epochs implement Stepper natively from their
// adjacency arenas; any other Store is snapshotted by AsStepper. A query
// pins one Stepper and every stage of its pipeline reads that view, so
// bindings, join keys and element identity stay in its index space.
type Stepper interface {
	Store
	// NodeByIndex returns the node at a dense index (insertion order), or
	// nil when the index is out of range or a dead hole.
	NodeByIndex(i int) *Node
	// EdgeByIndex returns the edge at a dense index (insertion order), or
	// nil when the index is out of range or a dead hole.
	EdgeByIndex(i int) *Edge
	// EdgeEnds returns the dense endpoint indices of the edge at index i
	// (source and target as presented; equal for self-loops), so
	// orientation checks and path replay stay in index space.
	EdgeEnds(i int) (src, tgt int)
	// Steps iterates the traversal steps available from node index i: the
	// dense edge index, the neighbour's dense index, and the step kind.
	// A directed self-loop yields a single StepLoop step and an undirected
	// self-loop a single StepUndirected step, mirroring the map graph's
	// Incident, which visits a self-loop once. f returns false to stop.
	Steps(i int, f func(edge, other int, kind StepKind) bool)
	// NodesWithLabelIdx iterates the dense indices of the nodes carrying
	// the label, in insertion order — the seed path of the engines. Each
	// optional equality filter narrows the scan to a superset of the
	// label's nodes whose property equals the value: every such node is
	// visited, in the same order, but callers must re-check the filter.
	// A NULL value matches nothing.
	NodesWithLabelIdx(label string, f func(i int) bool, eq ...PropEq)
	// NodeIndexSpan reports the exclusive upper bound of node indices:
	// equal to NumNodes on fully-live stores, larger on stores with dead
	// holes (overlay epochs and compacted bases). Dense scans iterate
	// [0, span) and skip indices where NodeByIndex returns nil; dense
	// per-node tables size by the span.
	NodeIndexSpan() int
}

// AsStepper returns the store's native indexed view when it provides one
// (snapshots and overlay epochs do), the memoized CSR snapshot of a map
// graph (built once per graph generation, not once per call — repeated
// planned queries share it), or a fresh Snapshot of an arbitrary
// third-party store, which costs a full copy: evaluation calls it once
// per query. An EpochSource is pinned to its current epoch first, so the
// view is immutable.
func AsStepper(s Store) Stepper {
	s = Pin(s)
	if st, ok := s.(Stepper); ok {
		return st
	}
	if g, ok := s.(*Graph); ok {
		return g.snapshot()
	}
	return Snapshot(s)
}
