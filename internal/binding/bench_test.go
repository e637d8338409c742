package binding

import (
	"fmt"
	"hash/fnv"
	"testing"

	"gpml/internal/graph"
)

// benchStore builds a chain graph with n+1 nodes and n edges, the element
// pool the bench bindings intern against.
func benchStore(n int) graph.Stepper {
	g := graph.New()
	for i := 0; i <= n; i++ {
		if err := g.AddNode(graph.NodeID(fmt.Sprintf("n%d", i)), nil, nil); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		id := graph.EdgeID(fmt.Sprintf("e%d", i))
		if err := g.AddEdge(id, graph.NodeID(fmt.Sprintf("n%d", i)), graph.NodeID(fmt.Sprintf("n%d", i+1)), nil, nil); err != nil {
			panic(err)
		}
	}
	return graph.Snapshot(g)
}

// makeBindings builds n reduced bindings with duplicate groups every
// dupEvery entries.
func makeBindings(n, dupEvery int) []*Reduced {
	s := benchStore(n + 1)
	out := make([]*Reduced, n)
	for i := 0; i < n; i++ {
		id := i
		if dupEvery > 0 && i%dupEvery == 0 {
			id = 0
		}
		na, nb, e := graph.ElemIdx(id), graph.ElemIdx(id+1), graph.ElemIdx(id)
		out[i] = &Reduced{
			Cols: []ReducedCol{
				{Var: "a", Kind: NodeElem, Idx: na},
				{Var: "e", Kind: EdgeElem, Idx: e},
				{Var: "b", Kind: NodeElem, Idx: nb},
			},
			Path: graph.IdxPath{Nodes: []graph.ElemIdx{na, nb}, Edges: []graph.ElemIdx{e}},
			Src:  s,
		}
	}
	return out
}

// Ablation 2 (DESIGN.md §5): compact binary dedup keys (the
// implementation) against 64-bit FNV hashing with no collision handling
// (the fast-but-unsound alternative) — what exactness costs over a raw
// hash.
func BenchmarkAblation_DedupKey(b *testing.B) {
	bindings := makeBindings(10_000, 7)
	b.Run("interned_binary_key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := Dedup(bindings); len(out) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("fnv64_hash_key", func(b *testing.B) {
		b.ReportAllocs()
		keyer := NewKeyer()
		for i := 0; i < b.N; i++ {
			seen := make(map[uint64]struct{}, len(bindings))
			kept := 0
			for _, r := range bindings {
				h := fnv.New64a()
				h.Write(keyer.Key(r))
				k := h.Sum64()
				if _, ok := seen[k]; ok {
					continue
				}
				seen[k] = struct{}{}
				kept++
			}
			if kept == 0 {
				b.Fatal("empty")
			}
		}
	})
}

func BenchmarkReduce(b *testing.B) {
	s := benchStore(8)
	pb := &PathBinding{
		Entries: []Entry{
			{Var: "a", Kind: NodeElem, Idx: 0},
			{Var: "b", Iters: IterOf(0), Kind: EdgeElem, Idx: 0},
			{Var: "$n2", Iters: IterOf(0), Kind: NodeElem, Idx: 1},
			{Var: "b", Iters: IterOf(1), Kind: EdgeElem, Idx: 1},
			{Var: "a", Kind: NodeElem, Idx: 0},
		},
		Path: graph.IdxPath{
			Nodes: []graph.ElemIdx{0, 1, 0},
			Edges: []graph.ElemIdx{0, 1},
		},
		Src: s,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := pb.Reduce(); len(r.Cols) != 5 {
			b.Fatal("bad reduce")
		}
	}
}

func BenchmarkKey(b *testing.B) {
	r := makeBindings(1, 0)[0]
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		keyer := NewKeyer()
		for i := 0; i < b.N; i++ {
			if k := keyer.Key(r); len(k) == 0 {
				b.Fatal("empty key")
			}
		}
	})
	b.Run("canon", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.canon = ""
			if k := r.CanonKey(); len(k) == 0 {
				b.Fatal("empty key")
			}
		}
	})
}
