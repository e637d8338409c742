package graph

import (
	"fmt"
	"reflect"
	"testing"

	"gpml/internal/value"
)

// partitionTestGraph builds a pseudo-random multigraph (LCG-driven, no
// dataset dependency to keep the package acyclic) large enough that every
// partition of a small count is non-empty and cross-partition edges are
// the common case.
func partitionTestGraph(t *testing.T, nodes, edges int) *Graph {
	t.Helper()
	g := New()
	labels := [][]string{{"Person"}, {"Forum"}, {"Post"}, {"Person", "Moderator"}, nil}
	state := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < nodes; i++ {
		if err := g.AddNode(NodeID(fmt.Sprintf("n%d", i)), labels[next(len(labels))],
			map[string]value.Value{"ord": value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < edges; i++ {
		src := NodeID(fmt.Sprintf("n%d", next(nodes)))
		tgt := NodeID(fmt.Sprintf("n%d", next(nodes)))
		id := EdgeID(fmt.Sprintf("e%d", i))
		var err error
		if next(4) == 0 {
			err = g.AddUndirectedEdge(id, src, tgt, []string{"knows"}, nil)
		} else {
			err = g.AddEdge(id, src, tgt, []string{"likes"}, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPartitionedStoreConformance runs the structural Store suite over
// several partition counts (including more partitions than some shards
// can fill) and both arena backings.
func TestPartitionedStoreConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"corner", conformanceGraph(t)},
		{"random", partitionTestGraph(t, 200, 600)},
	} {
		for _, parts := range []int{1, 2, 3, 8, 64} {
			for _, mm := range []bool{false, true} {
				name := fmt.Sprintf("%s/parts=%d/mmap=%v", tc.name, parts, mm)
				p := PartitionSnapshot(tc.g, PartitionOptions{Partitions: parts, Mmap: mm})
				storeConformance(t, name, tc.g, p)
				if got := p.NumPartitions(); got != parts {
					t.Errorf("%s: NumPartitions = %d, want %d", name, got, parts)
				}
				if err := p.Close(); err != nil {
					t.Errorf("%s: Close: %v", name, err)
				}
			}
		}
	}
}

// TestPartitionedStepperMatchesCSR demands byte-identical Stepper
// behaviour between the partitioned arenas and a single CSR: same step
// order per node, same endpoints, same seed lists.
func TestPartitionedStepperMatchesCSR(t *testing.T) {
	g := partitionTestGraph(t, 300, 1200)
	c := Snapshot(g)
	for _, parts := range []int{1, 3, 4, 7} {
		p := PartitionSnapshot(g, PartitionOptions{Partitions: parts})
		name := fmt.Sprintf("parts=%d", parts)
		if p.NodeIndexSpan() != c.NodeIndexSpan() {
			t.Fatalf("%s: span %d vs %d", name, p.NodeIndexSpan(), c.NodeIndexSpan())
		}
		type step struct {
			edge, other int
			kind        StepKind
		}
		for i := 0; i < c.NodeIndexSpan(); i++ {
			var want, got []step
			c.Steps(i, func(e, o int, k StepKind) bool { want = append(want, step{e, o, k}); return true })
			p.Steps(i, func(e, o int, k StepKind) bool { got = append(got, step{e, o, k}); return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Steps(%d) = %v, want %v", name, i, got, want)
			}
		}
		for i := 0; i < c.EdgeIndexSpan(); i++ {
			cs, ct := c.EdgeEnds(i)
			ps, pt := p.EdgeEnds(i)
			if cs != ps || ct != pt {
				t.Fatalf("%s: EdgeEnds(%d) = (%d,%d), want (%d,%d)", name, i, ps, pt, cs, ct)
			}
		}
		for _, label := range append(g.Labels(), "NoSuchLabel") {
			var want, got []int
			c.NodesWithLabelIdx(label, func(i int) bool { want = append(want, i); return true })
			p.NodesWithLabelIdx(label, func(i int) bool { got = append(got, i); return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: NodesWithLabelIdx(%s) = %v, want %v", name, label, got, want)
			}
		}
		// Early stop on Steps.
		count := 0
		p.Steps(0, func(int, int, StepKind) bool { count++; return false })
		if c.Degree(c.NodeByIndex(0).ID) > 0 && count != 1 {
			t.Fatalf("%s: Steps ignored early stop (%d visits)", name, count)
		}
		if st := AsStepper(p); st != Stepper(p) {
			t.Fatalf("%s: AsStepper returned a non-native view %T", name, st)
		}
	}
}

// TestPartitionedInternerAgreement pins the cross-backend ElemIdx
// contract: the map graph, the CSR snapshot, and the partitioned
// snapshot must agree index-for-index on every node and edge.
func TestPartitionedInternerAgreement(t *testing.T) {
	g := partitionTestGraph(t, 150, 400)
	c := Snapshot(g)
	p := PartitionSnapshot(g, PartitionOptions{Partitions: 3})
	g.Nodes(func(n *Node) bool {
		gi, ok1 := g.InternNode(n.ID)
		ci, ok2 := c.InternNode(n.ID)
		pi, ok3 := p.InternNode(n.ID)
		if !ok1 || !ok2 || !ok3 || gi != ci || ci != pi {
			t.Fatalf("node %q: intern disagree map=%d csr=%d part=%d", n.ID, gi, ci, pi)
		}
		if got := p.NodeAt(pi); got == nil || got.ID != n.ID {
			t.Fatalf("node %q: NodeAt(%d) = %v", n.ID, pi, got)
		}
		return true
	})
	g.Edges(func(e *Edge) bool {
		gi, ok1 := g.InternEdge(e.ID)
		ci, ok2 := c.InternEdge(e.ID)
		pi, ok3 := p.InternEdge(e.ID)
		if !ok1 || !ok2 || !ok3 || gi != ci || ci != pi {
			t.Fatalf("edge %q: intern disagree map=%d csr=%d part=%d", e.ID, gi, ci, pi)
		}
		if got := p.EdgeAt(pi); got == nil || got.ID != e.ID {
			t.Fatalf("edge %q: EdgeAt(%d) = %v", e.ID, pi, got)
		}
		return true
	})
	if _, ok := p.InternNode("zzz"); ok {
		t.Fatal("InternNode of an unknown id reported ok")
	}
	if p.NodeAt(ElemIdx(g.NumNodes())) != nil || p.EdgeAt(ElemIdx(g.NumEdges())) != nil {
		t.Fatal("out-of-range NodeAt/EdgeAt must return nil")
	}
}

// TestPartitionedSharding checks the hash assignment is total, stable,
// and consistent with the PartitionOf fast path.
func TestPartitionedSharding(t *testing.T) {
	g := partitionTestGraph(t, 128, 0)
	p := PartitionSnapshot(g, PartitionOptions{Partitions: 4})
	counts := make([]int, 4)
	for i := 0; i < p.NodeIndexSpan(); i++ {
		part := p.PartitionOf(i)
		if part != partitionOfIdx(uint32(i), 4) {
			t.Fatalf("PartitionOf(%d) = %d, want %d", i, part, partitionOfIdx(uint32(i), 4))
		}
		counts[part]++
	}
	total := 0
	for part, n := range counts {
		if n == 0 {
			t.Errorf("partition %d is empty for 128 nodes across 4 shards", part)
		}
		total += n
	}
	if total != 128 {
		t.Fatalf("sharded %d nodes, want 128", total)
	}
	// Partitions below 1 clamp to a single shard.
	if q := PartitionSnapshot(g, PartitionOptions{}); q.NumPartitions() != 1 {
		t.Fatalf("zero-partition snapshot has %d partitions, want 1", q.NumPartitions())
	}
}

// TestPartitionedMmapLifecycle exercises the mmap arena path explicitly:
// queries read through the mapped arrays, and Close releases the region.
func TestPartitionedMmapLifecycle(t *testing.T) {
	g := partitionTestGraph(t, 100, 300)
	p := PartitionSnapshot(g, PartitionOptions{Partitions: 2, Mmap: true})
	if !p.MmapBacked() {
		t.Skip("mmap arenas unavailable on this platform")
	}
	c := Snapshot(g)
	for i := 0; i < c.NodeIndexSpan(); i++ {
		var want, got int
		c.Steps(i, func(int, int, StepKind) bool { want++; return true })
		p.Steps(i, func(int, int, StepKind) bool { got++; return true })
		if got != want {
			t.Fatalf("mmap Steps(%d): %d steps, want %d", i, got, want)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
