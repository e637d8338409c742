package graph

// CSR is an immutable compressed-sparse-row snapshot of a property graph:
// the shared element core (dense records, id interner, label index,
// statistics) plus one adjacency arena whose rows are the node indices.
//
// A CSR is safe for any number of concurrent readers and never changes;
// take a fresh Snapshot after mutating the source graph.
type CSR struct {
	elemCore
	arena
}

// Snapshot builds a CSR snapshot of s (an EpochSource is pinned first).
// The snapshot copies node and edge records (labels and property maps are
// shared structurally with the source, which must not be mutated
// concurrently with the build) and renumbers them densely in iteration
// order — insertion order, so a snapshot of a hole-free store agrees with
// it index for index.
func Snapshot(s Store) *CSR { return newCSR(indexStore(Pin(s))) }

// newCSR lays the core's adjacency out into its arena.
func newCSR(core elemCore) *CSR { return &CSR{elemCore: core, arena: core.layout()} }

// Steps iterates the traversal steps of node index i from the adjacency
// arena: dense edge index, neighbour index, and step kind.
func (c *CSR) Steps(i int, f func(edge, other int, kind StepKind) bool) {
	c.steps(int32(i), f)
}

// Stats summarizes the snapshot, mirroring Graph.Stats.
func (c *CSR) Stats() string { return "csr " + c.summary() }
