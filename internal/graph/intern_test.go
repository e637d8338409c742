package graph

import (
	"fmt"
	"sync"
	"testing"

	"gpml/internal/value"
)

// internFixture builds a graph with a few labels, multi-edges, self-loops
// and an undirected edge — every structural case the interner must index.
func internFixture(t testing.TB) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 20; i++ {
		labels := []string{"N"}
		if i%3 == 0 {
			labels = append(labels, "Third")
		}
		if err := g.AddNode(NodeID(fmt.Sprintf("n%d", i)), labels, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 19; i++ {
		if err := g.AddEdge(EdgeID(fmt.Sprintf("e%d", i)), NodeID(fmt.Sprintf("n%d", i)), NodeID(fmt.Sprintf("n%d", i+1)), []string{"E"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("loop", "n0", "n0", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUndirectedEdge("und", "n1", "n5", nil, nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInternerConformance: the map graph (answering from its memoized
// snapshot) and an explicit CSR snapshot must agree index-for-index (both
// assign in insertion order), and Intern/Lookup must round-trip on both.
func TestInternerConformance(t *testing.T) {
	g := internFixture(t)
	snap := Snapshot(g)
	for _, s := range []struct {
		name string
		st   Stepper
	}{{"map", AsStepper(g)}, {"csr", snap}} {
		t.Run(s.name, func(t *testing.T) {
			i := 0
			g.Nodes(func(n *Node) bool {
				idx, ok := internNode(s.st, n.ID)
				if !ok || int(idx) != i {
					t.Fatalf("InternNode(%q) = (%d, %v), want (%d, true)", n.ID, idx, ok, i)
				}
				if got := s.st.NodeByIndex(int(idx)); got == nil || got.ID != n.ID {
					t.Fatalf("NodeByIndex(%d) round-trip: got %v, want %q", idx, got, n.ID)
				}
				i++
				return true
			})
			i = 0
			g.Edges(func(e *Edge) bool {
				idx, ok := internEdge(s.st, e.ID)
				if !ok || int(idx) != i {
					t.Fatalf("InternEdge(%q) = (%d, %v), want (%d, true)", e.ID, idx, ok, i)
				}
				if got := s.st.EdgeByIndex(int(idx)); got == nil || got.ID != e.ID {
					t.Fatalf("EdgeByIndex(%d) round-trip: got %v, want %q", idx, got, e.ID)
				}
				i++
				return true
			})
			// Unknown ids and out-of-range indices answer negatively, not
			// by panicking.
			if _, ok := internNode(s.st, "missing"); ok {
				t.Error("InternNode on an unknown id must report !ok")
			}
			if _, ok := internEdge(s.st, "missing"); ok {
				t.Error("InternEdge on an unknown id must report !ok")
			}
			if s.st.NodeByIndex(1<<30) != nil || s.st.EdgeByIndex(1<<30) != nil || s.st.NodeByIndex(-1) != nil {
				t.Error("out-of-range lookups must return nil")
			}
		})
	}
}

// TestInternerStableAcrossMutation: mutating the map graph drops its
// memoized snapshot, but the rebuilt one assigns every pre-existing
// element the same index (insertion order is append-only).
func TestInternerStableAcrossMutation(t *testing.T) {
	g := internFixture(t)
	before := map[NodeID]ElemIdx{}
	g.Nodes(func(n *Node) bool {
		idx, _ := internNode(g, n.ID)
		before[n.ID] = idx
		return true
	})
	if err := g.AddNode("late", []string{"N"}, nil); err != nil {
		t.Fatal(err)
	}
	for id, want := range before {
		if got, ok := internNode(g, id); !ok || got != want {
			t.Fatalf("index of %q changed after mutation: %d -> %d", id, want, got)
		}
	}
	if idx, ok := internNode(g, "late"); !ok || int(idx) != g.NumNodes()-1 {
		t.Fatalf("new node interned at %d, want %d", idx, g.NumNodes()-1)
	}
}

// TestInternerConcurrent hammers the first use of a fresh graph from many
// goroutines (run under -race): the memoized snapshot is built once and
// all observe it.
func TestInternerConcurrent(t *testing.T) {
	g := internFixture(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	views := make([]Stepper, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			views[w] = AsStepper(g)
			for i := 0; i < 20; i++ {
				id := NodeID(fmt.Sprintf("n%d", i))
				idx, ok := internNode(g, id)
				if !ok || int(idx) != i {
					errs <- fmt.Errorf("worker %d: InternNode(%q) = (%d, %v)", w, id, idx, ok)
					return
				}
				if n := AsStepper(g).NodeByIndex(int(idx)); n == nil || n.ID != id {
					errs <- fmt.Errorf("worker %d: NodeByIndex(%d) mismatch", w, idx)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for w, v := range views {
		if v != views[0] {
			t.Errorf("worker %d saw a second snapshot: the memo was built more than once", w)
		}
	}
}

// TestAsStepperMemoized: repeated AsStepper calls on the map graph reuse
// one snapshot until a mutation — a property update included, since the
// snapshot copies records — drops it; native steppers pass through
// unchanged.
func TestAsStepperMemoized(t *testing.T) {
	g := internFixture(t)
	st1 := AsStepper(g)
	st2 := AsStepper(g)
	if st1 != st2 {
		t.Fatalf("AsStepper must memoize the map graph's snapshot")
	}
	if err := g.AddNode("invalidate", nil, nil); err != nil {
		t.Fatal(err)
	}
	st3 := AsStepper(g)
	if st3 == st1 {
		t.Fatalf("mutation must invalidate the memoized snapshot")
	}
	if _, ok := internNode(st3, "invalidate"); !ok {
		t.Fatalf("rebuilt snapshot must see the new node")
	}
	if err := g.SetNodeProp("n0", "k", value.Int(1)); err != nil {
		t.Fatal(err)
	}
	if st4 := AsStepper(g); st4 == st3 || !value.Identical(st4.Node("n0").Prop("k"), value.Int(1)) {
		t.Fatalf("a property update must drop the memoized snapshot and show in the next one")
	}
	snap := Snapshot(g)
	if AsStepper(snap) != Stepper(snap) {
		t.Fatalf("a native Stepper must be returned as-is")
	}
}

// TestStepperEdgeEnds: endpoint indices agree with the interner on both
// backends, including self-loops and undirected edges.
func TestStepperEdgeEnds(t *testing.T) {
	g := internFixture(t)
	for _, st := range []Stepper{AsStepper(g), Snapshot(g)} {
		g.Edges(func(e *Edge) bool {
			ei, _ := internEdge(st, e.ID)
			src, tgt := st.EdgeEnds(int(ei))
			wantSrc, _ := internNode(st, e.Source)
			wantTgt, _ := internNode(st, e.Target)
			if src != int(wantSrc) || tgt != int(wantTgt) {
				t.Fatalf("EdgeEnds(%q) = (%d,%d), want (%d,%d)", e.ID, src, tgt, wantSrc, wantTgt)
			}
			return true
		})
	}
}

// TestNodesWithLabelIdx: the dense label iteration agrees with the
// id-based one on both backends (order included).
func TestNodesWithLabelIdx(t *testing.T) {
	g := internFixture(t)
	for _, s := range []struct {
		name string
		st   Stepper
	}{{"map", AsStepper(g)}, {"csr", Snapshot(g)}} {
		for _, label := range []string{"N", "Third", "absent"} {
			var want []int
			s.st.NodesWithLabel(label, func(n *Node) bool {
				i, _ := internNode(s.st, n.ID)
				want = append(want, int(i))
				return true
			})
			var got []int
			s.st.NodesWithLabelIdx(label, func(i int) bool {
				got = append(got, i)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %s: NodesWithLabelIdx = %v, want %v", s.name, label, got, want)
			}
		}
	}
}

// interner is the id → index direction the package's concrete stores keep
// off the Store interface (overlay batch validation and id lookups use it).
type interner interface {
	InternNode(id NodeID) (ElemIdx, bool)
	InternEdge(id EdgeID) (ElemIdx, bool)
}

// internNode interns a node id against the store's pinned indexed view.
func internNode(s Store, id NodeID) (ElemIdx, bool) {
	return AsStepper(s).(interner).InternNode(id)
}

// internEdge interns an edge id against the store's pinned indexed view.
func internEdge(s Store, id EdgeID) (ElemIdx, bool) {
	return AsStepper(s).(interner).InternEdge(id)
}

// TestIdxPathAppendText: rendering an index path straight from the store
// equals rendering its materialized Path, the empty path included.
func TestIdxPathAppendText(t *testing.T) {
	s := Snapshot(internFixture(t))
	n := func(id NodeID) ElemIdx { i, _ := s.InternNode(id); return i }
	e := func(id EdgeID) ElemIdx { i, _ := s.InternEdge(id); return i }
	for _, p := range []IdxPath{
		{},
		{Nodes: []ElemIdx{n("n3")}},
		{Nodes: []ElemIdx{n("n0"), n("n0"), n("n1"), n("n5")}, Edges: []ElemIdx{e("loop"), e("e0"), e("und")}},
	} {
		want := string(p.Materialize(s).AppendText([]byte("x:")))
		if got := string(p.AppendText([]byte("x:"), s)); got != want {
			t.Errorf("AppendText %q, want %q", got, want)
		}
	}
}
