package graph

import "fmt"

// Partitioned is an immutable snapshot that hash-shards interned node
// indices across N adjacency arenas. The element core (records, id
// interner, label index, statistics) is the very one a CSR embeds — an
// ElemIdx issued by a Partitioned store is the same insertion-order index
// every other backend assigns, so bindings, join keys, and result rows
// are backend-agnostic. Only the adjacency is sharded: node i's incidence
// window lives in the arena of partition PartitionOf(i), and its entries
// hold global indices, so a cross-partition step is an ordinary array
// read — no pointer chasing between shards.
//
// Within each node's window, steps appear in global edge insertion order,
// exactly as in a single CSR (one layout routine fills both); every
// iteration method is therefore byte-identical to the CSR backend.
// Partitioning is a storage layout: the evaluator runs the same
// sequential and parallel paths on it as on any other store.
//
// A Partitioned snapshot is safe for any number of concurrent readers and
// never changes. With PartitionOptions.Mmap the arenas are carved from one
// unlinked mmap-backed temp file (unix builds), keeping the flat arrays
// out of the Go heap; Close releases the mapping.
type Partitioned struct {
	elemCore

	// partOf maps a global node index to its partition; local maps it to
	// its row within that partition's arena.
	partOf []int32
	local  []int32

	parts []arena

	mm *mmapArena // non-nil when the arenas are mmap-backed
}

// PartitionOptions configures PartitionSnapshot.
type PartitionOptions struct {
	// Partitions is the shard count; values below 1 are treated as 1.
	Partitions int
	// Mmap carves the adjacency arenas out of one mmap-backed unlinked
	// temp file instead of the Go heap (unix builds; elsewhere, and when
	// the mapping fails, the builder falls back to heap slices).
	Mmap bool
}

// partitionOfIdx is the sharding function: a Fibonacci multiplicative
// hash of the interned node index, reduced modulo the partition count.
// The multiplier scrambles low bits so runs of consecutively interned
// nodes spread evenly instead of landing in one shard.
func partitionOfIdx(i uint32, parts int) int {
	return int((i * 0x9E3779B1) % uint32(parts))
}

// PartitionSnapshot builds a hash-partitioned snapshot of s with
// opt.Partitions adjacency arenas over the same element core Snapshot
// builds.
func PartitionSnapshot(s Store, opt PartitionOptions) *Partitioned {
	nparts := max(opt.Partitions, 1)
	p := &Partitioned{elemCore: indexStore(Pin(s)), parts: make([]arena, nparts)}
	// Rows are assigned in ascending global order, so a partition's node
	// list ascends and label/seed scans touch each arena front to back.
	p.partOf = make([]int32, len(p.nodes))
	p.local = make([]int32, len(p.nodes))
	rows := make([]int32, nparts)
	for i := range p.nodes {
		part := partitionOfIdx(uint32(i), nparts)
		p.partOf[i] = int32(part)
		p.local[i] = rows[part]
		rows[part]++
	}
	p.mm = p.layout(p.parts, p.partOf, p.local, opt.Mmap)
	return p
}

// Close releases the mmap-backed arena region, if any. A heap-backed
// snapshot's Close is a no-op. The store must not be used afterwards.
func (p *Partitioned) Close() error {
	mm := p.mm
	p.mm = nil
	if mm == nil {
		return nil
	}
	clear(p.parts)
	return mm.Close()
}

// MmapBacked reports whether the adjacency arenas live in an mmap region
// rather than the Go heap.
func (p *Partitioned) MmapBacked() bool { return p.mm != nil }

// NumPartitions reports the shard count.
func (p *Partitioned) NumPartitions() int { return len(p.parts) }

// PartitionOf maps a dense node index to its partition.
func (p *Partitioned) PartitionOf(i int) int { return int(p.partOf[i]) }

// window resolves node index i to its partition's arena and its row.
func (p *Partitioned) window(i int) (*arena, int32) {
	return &p.parts[p.partOf[i]], p.local[i]
}

// Steps iterates the traversal steps of node index i from its partition's
// arena: global edge index, global neighbour index, and step kind — the
// same values, in the same order, as a single CSR's Steps.
func (p *Partitioned) Steps(i int, f func(edge, other int, kind StepKind) bool) {
	a, r := p.window(i)
	a.steps(r, f)
}

// Incident iterates the edges touching n in insertion order, off the
// owning partition's arena.
func (p *Partitioned) Incident(n NodeID, f func(*Edge) bool) {
	if i, ok := p.nodeIdx[n]; ok {
		a, r := p.window(int(i))
		p.incident(a, r, f)
	}
}

// Degree reports the number of edges incident to n.
func (p *Partitioned) Degree(n NodeID) int {
	i, ok := p.nodeIdx[n]
	if !ok {
		return 0
	}
	a, r := p.window(int(i))
	return int(a.incOff[r+1] - a.incOff[r])
}

// Stats summarizes the snapshot, mirroring CSR.Stats.
func (p *Partitioned) Stats() string {
	backing := "heap"
	if p.mm != nil {
		backing = "mmap"
	}
	return fmt.Sprintf("partitioned parts=%d (%s) %s", len(p.parts), backing, p.summary())
}

// arenaInt32s allocates n int32 words from the mmap region, or the heap
// when a is nil.
func arenaInt32s(a *mmapArena, n int) []int32 {
	if a != nil {
		return a.int32s(n)
	}
	return make([]int32, n)
}

// arenaKinds allocates n StepKind bytes from the mmap region, or the heap
// when a is nil.
func arenaKinds(a *mmapArena, n int) []StepKind {
	if a != nil {
		return a.kinds(n)
	}
	return make([]StepKind, n)
}

// arenaBytes sizes one arena's arrays: the offset table plus two int32
// arrays and one kind array over s steps, with alignment slack.
func arenaBytes(rows, s int) int {
	return 4*(rows+1) + 2*4*s + s + 8
}
