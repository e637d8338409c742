package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gpml/internal/value"
)

// overlayFixture applies a structured mutation history to an overlay over
// the conformance graph and returns, alongside it, a reference map graph
// built directly to the same final state (same element order as the
// overlay's index order: surviving base elements first, surviving delta
// elements after, re-added elements at their re-insertion position).
func overlayFixture(t *testing.T) (*Overlay, *Graph) {
	t.Helper()
	base := conformanceGraph(t)
	ov := NewOverlay(Snapshot(base))

	apply := func(b *Batch) {
		t.Helper()
		if err := ov.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Growth: new nodes and edges, including a delta self-loop and a
	// delta undirected edge touching a base node.
	apply(ov.Begin().
		AddNode("e", []string{"Account"}, map[string]value.Value{"owner": value.Str("eve")}).
		AddNode("f", []string{"City", "Vip"}, nil).
		AddEdge("x1", "e", "f", []string{"Transfer"}, nil).
		AddEdge("x2", "b", "e", []string{"Transfer"}, map[string]value.Value{"amount": value.Int(7)}).
		AddUndirectedEdge("xu", "f", "c", []string{"near"}, nil).
		AddEdge("x3", "e", "e", []string{"Transfer"}, nil))
	// Tombstones and overrides: delete an isolated base node and a base
	// edge, update a base node's property, replace a base node's labels,
	// update a delta node's property, delete a delta edge.
	apply(ov.Begin().
		DeleteNode("d").
		DeleteEdge("e2").
		SetNodeProp("a", "owner", value.Str("anna")).
		SetNodeLabels("b", []string{"Account", "Gold"}).
		SetNodeProp("e", "owner", value.Str("EVE")).
		DeleteEdge("x1"))
	// Detach-delete of a node with live incident delta edges, and a
	// re-add of a previously deleted id with different labels.
	apply(ov.Begin().
		AddNode("g", []string{"Account"}, nil).
		AddEdge("y1", "g", "a", []string{"Transfer"}, nil))
	apply(ov.Begin().
		DeleteNode("g").
		AddNode("d", []string{"Account"}, map[string]value.Value{"owner": value.Str("dee")}))

	ref := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ref.AddNode("a", []string{"Account", "Vip"}, map[string]value.Value{"owner": value.Str("anna")}))
	must(ref.AddNode("b", []string{"Account", "Gold"}, nil))
	must(ref.AddNode("c", []string{"City"}, nil))
	must(ref.AddNode("e", []string{"Account"}, map[string]value.Value{"owner": value.Str("EVE")}))
	must(ref.AddNode("f", []string{"City", "Vip"}, nil))
	must(ref.AddNode("d", []string{"Account"}, map[string]value.Value{"owner": value.Str("dee")}))
	must(ref.AddEdge("e1", "a", "b", []string{"Transfer"}, map[string]value.Value{"amount": value.Int(5)}))
	must(ref.AddEdge("e3", "b", "a", []string{"Transfer"}, nil))
	must(ref.AddEdge("e4", "a", "a", []string{"Transfer"}, nil))
	must(ref.AddUndirectedEdge("u1", "a", "c", []string{"near"}, nil))
	must(ref.AddUndirectedEdge("u2", "a", "c", []string{"near"}, nil))
	must(ref.AddUndirectedEdge("u3", "c", "c", []string{"near"}, nil))
	must(ref.AddEdge("e5", "b", "c", nil, nil))
	must(ref.AddEdge("x2", "b", "e", []string{"Transfer"}, map[string]value.Value{"amount": value.Int(7)}))
	must(ref.AddUndirectedEdge("xu", "f", "c", []string{"near"}, nil))
	must(ref.AddEdge("x3", "e", "e", []string{"Transfer"}, nil))
	return ov, ref
}

func TestOverlayStoreConformance(t *testing.T) {
	ov, ref := overlayFixture(t)
	pinned := ov.Snapshot()
	storeConformance(t, "overlay", ref, ov)
	storeConformance(t, "overlay-snap", ref, pinned)

	ov.Compact()
	storeConformance(t, "overlay-compacted", ref, ov)
	// The epoch pinned before compaction serves the same state afterwards.
	storeConformance(t, "overlay-pinned-epoch", ref, pinned)
	// The compacted base itself, with its dead holes, conforms too.
	storeConformance(t, "compacted-csr", ref, ov.Snapshot().base)
}

func TestOverlayBaseOnlyMatchesCSR(t *testing.T) {
	g := conformanceGraph(t)
	ov := NewOverlay(Snapshot(g))
	storeConformance(t, "overlay-base-only", g, ov)
}

func TestOverlayIndexStability(t *testing.T) {
	ov, _ := overlayFixture(t)
	baseSpan := ov.Snapshot().base.NodeIndexSpan()
	type ids map[NodeID]ElemIdx
	capture := func(s Store) ids {
		out := ids{}
		s.Nodes(func(n *Node) bool {
			i, ok := internNode(s, n.ID)
			if !ok {
				t.Fatalf("live node %q does not intern", n.ID)
			}
			out[n.ID] = i
			return true
		})
		return out
	}
	before := capture(ov)
	// Base elements keep their base indices verbatim; delta elements sit
	// above the base high-water mark.
	for _, id := range []NodeID{"a", "b", "c"} {
		if int(before[id]) >= baseSpan {
			t.Errorf("base node %q escaped the base index range: %d", id, before[id])
		}
	}
	for _, id := range []NodeID{"e", "f", "d"} {
		if int(before[id]) < baseSpan {
			t.Errorf("delta node %q below the base high-water mark: %d", id, before[id])
		}
	}
	ov.Compact()
	after := capture(ov)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("compaction renumbered elements:\nbefore %v\nafter  %v", before, after)
	}
	// NodeByIndex at the stable index resolves the same element.
	for id, i := range after {
		if n := AsStepper(ov).NodeByIndex(int(i)); n == nil || n.ID != id {
			t.Errorf("NodeByIndex(%d) = %v, want %q", i, n, id)
		}
	}
}

func TestOverlayDetachDelete(t *testing.T) {
	g := conformanceGraph(t)
	ov := NewOverlay(Snapshot(g))
	if err := ov.Apply(ov.Begin().
		AddNode("h", []string{"Hub"}, nil).
		AddEdge("z1", "h", "a", nil, nil).
		AddUndirectedEdge("z2", "h", "b", nil, nil).
		AddEdge("z3", "c", "h", nil, nil)); err != nil {
		t.Fatal(err)
	}
	wantEdges := ov.NumEdges() - 3
	if err := ov.Apply(ov.Begin().DeleteNode("h")); err != nil {
		t.Fatal(err)
	}
	if ov.NumEdges() != wantEdges {
		t.Fatalf("detach delete left %d edges, want %d", ov.NumEdges(), wantEdges)
	}
	for _, id := range []EdgeID{"z1", "z2", "z3"} {
		if ov.Edge(id) != nil {
			t.Errorf("edge %q survived its endpoint's deletion", id)
		}
	}
	// The invariant behind hole-aware traversal: no live edge references a
	// dead node, checked through every neighbour's Steps.
	snap := ov.Snapshot()
	snap.Nodes(func(n *Node) bool {
		i, _ := snap.InternNode(n.ID)
		snap.Steps(int(i), func(edge, other int, kind StepKind) bool {
			if snap.NodeByIndex(other) == nil {
				t.Errorf("live step from %q reaches dead node index %d", n.ID, other)
			}
			if snap.EdgeByIndex(edge) == nil {
				t.Errorf("dead edge index %d served from %q", edge, n.ID)
			}
			return true
		})
		return true
	})
	// Deleting a base node detaches its base edges the same way.
	if err := ov.Apply(ov.Begin().DeleteNode("a")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []EdgeID{"e1", "e2", "e3", "e4", "u1", "u2"} {
		if ov.Edge(id) != nil {
			t.Errorf("base edge %q survived its endpoint's deletion", id)
		}
	}
	if got := stepIncident(ov.Snapshot(), "b"); fmt.Sprint(got) != "[e5]" { // b's only surviving edge
		t.Errorf("steps(b) after detaching a = %v, want [e5]", got)
	}
}

func TestOverlayRelabelRoundTrip(t *testing.T) {
	g := conformanceGraph(t)
	ov := NewOverlay(Snapshot(g))
	labels := func() []NodeID {
		var out []NodeID
		ov.NodesWithLabel("Vip", func(n *Node) bool { out = append(out, n.ID); return true })
		return out
	}
	if got := labels(); !reflect.DeepEqual(got, []NodeID{"a"}) {
		t.Fatalf("Vip = %v, want [a]", got)
	}
	// Remove the label, then re-add it: the index round-trips exactly,
	// including the node's position in label iteration order.
	if err := ov.Apply(ov.Begin().SetNodeLabels("a", []string{"Account"})); err != nil {
		t.Fatal(err)
	}
	if got := labels(); len(got) != 0 {
		t.Fatalf("Vip after removal = %v, want none", got)
	}
	if err := ov.Apply(ov.Begin().SetNodeLabels("a", []string{"Account", "Vip"})); err != nil {
		t.Fatal(err)
	}
	if got := labels(); !reflect.DeepEqual(got, []NodeID{"a"}) {
		t.Fatalf("Vip after re-add = %v, want [a]", got)
	}
	if c := ov.CountNodesWithLabel("Vip"); c != 1 {
		t.Fatalf("count(Vip) = %d, want 1", c)
	}
	// Stats agree after compaction folds the override in.
	ov.Compact()
	if got := labels(); !reflect.DeepEqual(got, []NodeID{"a"}) {
		t.Fatalf("Vip after compaction = %v, want [a]", got)
	}
}

func TestOverlayValidation(t *testing.T) {
	g := conformanceGraph(t)
	ov := NewOverlay(Snapshot(g))
	seqBefore := ov.Snapshot().Seq()
	for _, c := range []struct {
		name string
		b    *Batch
		want string
	}{
		{"duplicate node", ov.Begin().AddNode("a", nil, nil), `overlay: duplicate node id "a"`},
		{"duplicate edge", ov.Begin().AddEdge("e1", "a", "b", nil, nil), `overlay: duplicate edge id "e1"`},
		{"node id used by edge", ov.Begin().AddNode("e1", nil, nil), `overlay: id "e1" already used by an edge (N and E must be disjoint)`},
		{"edge id used by node", ov.Begin().AddEdge("a", "b", "c", nil, nil), `overlay: id "a" already used by a node (N and E must be disjoint)`},
		{"unknown endpoint", ov.Begin().AddEdge("nz", "a", "nope", nil, nil), `overlay: edge "nz" references unknown node "nope"`},
		{"unknown source", ov.Begin().AddEdge("nz", "nope", "a", nil, nil), `overlay: edge "nz" references unknown node "nope"`},
		{"delete unknown node", ov.Begin().DeleteNode("nope"), `overlay: delete of unknown node "nope"`},
		{"delete unknown edge", ov.Begin().DeleteEdge("nope"), `overlay: delete of unknown edge "nope"`},
		{"update unknown node", ov.Begin().SetNodeProp("nope", "k", value.Int(1)), `overlay: update of unknown node "nope"`},
		{"relabel unknown node", ov.Begin().SetNodeLabels("nope", nil), `overlay: update of unknown node "nope"`},
		{"update unknown edge", ov.Begin().SetEdgeProp("nope", "k", value.Int(1)), `overlay: update of unknown edge "nope"`},
		{"edge to node deleted here", ov.Begin().DeleteNode("d").AddEdge("nz", "d", "a", nil, nil), `overlay: edge "nz" references unknown node "d"`},
		{"update node deleted here", ov.Begin().DeleteNode("d").SetNodeProp("d", "k", value.Int(1)), `overlay: update of unknown node "d"`},
		{"update edge detached here", ov.Begin().DeleteNode("a").SetEdgeProp("e1", "k", value.Int(1)), `overlay: update of unknown edge "e1"`},
		{"staged edge detached here", ov.Begin().AddNode("n1", nil, nil).AddEdge("nz", "n1", "a", nil, nil).DeleteNode("n1").DeleteEdge("nz"), `overlay: delete of unknown edge "nz"`},
		{"edge deleted twice", ov.Begin().DeleteEdge("e1").DeleteEdge("e1"), `overlay: delete of unknown edge "e1"`},
		{"dup within batch", ov.Begin().AddNode("n1", nil, nil).AddNode("n1", nil, nil), `overlay: duplicate node id "n1"`},
	} {
		before := ov.Snapshot()
		err := ov.Apply(c.b)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Apply error %v, want %q", c.name, err, c.want)
		}
		// A rejected batch publishes nothing: the current epoch is the
		// very snapshot that stood before it.
		if ov.Snapshot() != before {
			t.Errorf("%s: rejected batch replaced the current snapshot", c.name)
		}
	}
	// Atomicity: every failed batch left the epoch untouched.
	if got := ov.Snapshot().Seq(); got != seqBefore {
		t.Errorf("failed batches advanced the epoch: %d -> %d", seqBefore, got)
	}
	storeConformance(t, "overlay-after-rejects", g, ov)

	// Legal same-batch sequences: delete-then-readd, and an edge whose
	// endpoint is staged earlier in the batch.
	if err := ov.Apply(ov.Begin().
		DeleteNode("d").
		AddNode("d", []string{"Fresh"}, nil).
		AddNode("n2", nil, nil).
		AddEdge("nz2", "n2", "d", nil, nil)); err != nil {
		t.Fatal(err)
	}
	if n := ov.Node("d"); n == nil || !n.HasLabel("Fresh") {
		t.Errorf("re-added node in one batch: got %+v", n)
	}
}

// TestOverlayDifferentialFuzz drives an overlay and a model (ordered id
// lists + records) through randomized batched mutations, interleaved with
// compactions, rebuilding a reference map graph from the model after
// every batch and running the full store-conformance battery against it.
// Snapshots pinned along the way are re-verified at the end against the
// reference frozen when they were pinned.
func TestOverlayDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labelsPool := []string{"A", "B", "C"}

	type mEdge struct {
		id       EdgeID
		src, tgt NodeID
		dir      Direction
		labels   []string
		props    map[string]value.Value
	}
	type mNode struct {
		id     NodeID
		labels []string
		props  map[string]value.Value
	}
	var nodes []mNode
	var edges []mEdge

	build := func() *Graph {
		g := New()
		for _, n := range nodes {
			if err := g.AddNode(n.id, n.labels, n.props); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			var err error
			if e.dir == Directed {
				err = g.AddEdge(e.id, e.src, e.tgt, e.labels, e.props)
			} else {
				err = g.AddUndirectedEdge(e.id, e.src, e.tgt, e.labels, e.props)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	randLabels := func() []string {
		var out []string
		for _, l := range labelsPool {
			if rng.Intn(2) == 0 {
				out = append(out, l)
			}
		}
		return out
	}
	deleteNode := func(id NodeID) {
		for i, n := range nodes {
			if n.id == id {
				nodes = append(nodes[:i], nodes[i+1:]...)
				break
			}
		}
		kept := edges[:0]
		for _, e := range edges {
			if e.src != id && e.tgt != id {
				kept = append(kept, e)
			}
		}
		edges = kept
	}

	// Seed state.
	for i := 0; i < 6; i++ {
		nodes = append(nodes, mNode{NodeID(fmt.Sprintf("n%d", i)), randLabels(), nil})
	}
	for i := 0; i < 8; i++ {
		s, tgt := nodes[rng.Intn(len(nodes))].id, nodes[rng.Intn(len(nodes))].id
		edges = append(edges, mEdge{EdgeID(fmt.Sprintf("s%d", i)), s, tgt, Direction(rng.Intn(2)), randLabels(), nil})
	}
	ov := NewOverlay(Snapshot(build()), WithCompactThreshold(0)) // compaction only when the test asks

	nextID := 100
	type pin struct {
		snap *OverlaySnap
		ref  *Graph
	}
	var pins []pin
	for round := 0; round < 40; round++ {
		b := ov.Begin()
		for op := 0; op < 1+rng.Intn(4); op++ {
			switch k := rng.Intn(6); {
			case k == 0 || len(nodes) == 0: // add node
				id := NodeID(fmt.Sprintf("n%d", nextID))
				nextID++
				labels, props := randLabels(), map[string]value.Value{"v": value.Int(int64(rng.Intn(10)))}
				b.AddNode(id, labels, props)
				nodes = append(nodes, mNode{id, normLabels(labels), copyProps(props)})
			case k == 1: // add edge
				id := EdgeID(fmt.Sprintf("e%d", nextID))
				nextID++
				s, tgt := nodes[rng.Intn(len(nodes))].id, nodes[rng.Intn(len(nodes))].id
				dir := Direction(rng.Intn(2))
				labels := randLabels()
				if dir == Directed {
					b.AddEdge(id, s, tgt, labels, nil)
				} else {
					b.AddUndirectedEdge(id, s, tgt, labels, nil)
				}
				edges = append(edges, mEdge{id, s, tgt, dir, normLabels(labels), nil})
			case k == 2 && len(edges) > 0: // delete edge
				e := edges[rng.Intn(len(edges))]
				b.DeleteEdge(e.id)
				for i := range edges {
					if edges[i].id == e.id {
						edges = append(edges[:i], edges[i+1:]...)
						break
					}
				}
			case k == 3 && len(nodes) > 1: // delete node (detach)
				id := nodes[rng.Intn(len(nodes))].id
				b.DeleteNode(id)
				deleteNode(id)
			case k == 4: // set node prop
				i := rng.Intn(len(nodes))
				v := value.Int(int64(rng.Intn(100)))
				b.SetNodeProp(nodes[i].id, "v", v)
				props := copyProps(nodes[i].props)
				if props == nil {
					props = map[string]value.Value{}
				}
				props["v"] = v
				nodes[i].props = props
			default: // set node labels
				i := rng.Intn(len(nodes))
				labels := randLabels()
				b.SetNodeLabels(nodes[i].id, labels)
				nodes[i].labels = normLabels(labels)
			}
		}
		if err := ov.Apply(b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ref := build()
		storeConformance(t, fmt.Sprintf("fuzz-round-%d", round), ref, ov)
		// Edge property/label record equality, which the shared battery
		// doesn't cover in full.
		for _, e := range edges {
			got := ov.Edge(e.id)
			if !reflect.DeepEqual(got.Labels, ref.Edge(e.id).Labels) || !reflect.DeepEqual(got.Props, ref.Edge(e.id).Props) {
				t.Fatalf("round %d: edge %q record mismatch", round, e.id)
			}
		}
		if round%7 == 3 {
			pins = append(pins, pin{ov.Snapshot(), ref})
		}
		if round%11 == 10 {
			ov.Compact()
			storeConformance(t, fmt.Sprintf("fuzz-round-%d-compacted", round), ref, ov)
		}
	}
	ov.Compact()
	storeConformance(t, "fuzz-final-compacted", build(), ov)
	// Epoch immutability: every pinned snapshot still serves exactly the
	// state it was pinned at, through all later mutations and compactions.
	for i, p := range pins {
		storeConformance(t, fmt.Sprintf("fuzz-pin-%d", i), p.ref, p.snap)
	}
}

// TestOverlayConcurrentReadWrite hammers snapshots with full-store reads
// while a writer applies batches and compactions run; meaningful under
// -race (readers must never observe a mix of epochs or a torn delta).
func TestOverlayConcurrentReadWrite(t *testing.T) {
	g := conformanceGraph(t)
	ov := NewOverlay(Snapshot(g), WithCompactThreshold(16))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := ov.Snapshot()
				n, e := 0, 0
				snap.Nodes(func(*Node) bool { n++; return true })
				snap.Edges(func(*Edge) bool { e++; return true })
				if n != snap.NumNodes() || e != snap.NumEdges() {
					t.Errorf("torn epoch: iterated %d/%d, counters %d/%d", n, e, snap.NumNodes(), snap.NumEdges())
					return
				}
				snap.Nodes(func(nd *Node) bool {
					i, _ := snap.InternNode(nd.ID)
					snap.Steps(int(i), func(edge, other int, kind StepKind) bool {
						if snap.NodeByIndex(other) == nil {
							t.Errorf("live step to dead node %d", other)
						}
						return true
					})
					return true
				})
				snap.LabelStats()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		id := NodeID(fmt.Sprintf("w%d", i))
		b := ov.Begin().AddNode(id, []string{"W"}, nil).AddEdge(EdgeID(fmt.Sprintf("we%d", i)), id, "a", nil, nil)
		if i%3 == 2 {
			b.DeleteNode(NodeID(fmt.Sprintf("w%d", i-1)))
		}
		if i%5 == 4 {
			b.SetNodeProp("a", "owner", value.Int(int64(i)))
		}
		if err := ov.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	ov.Wait()
}

// TestGraphPropUpdateDropsSnapshot pins the builder contract for property
// updates: the memoized snapshot copies records, so SetNodeProp and
// SetEdgeProp drop it like a structural mutation does. A view taken
// before the update is immutable and keeps the old records; the next one
// serves the new ones at unchanged indices.
func TestGraphPropUpdateDropsSnapshot(t *testing.T) {
	g := conformanceGraph(t)
	before := AsStepper(g)
	i, _ := internNode(before, "a")

	if err := g.SetNodeProp("a", "owner", value.Str("updated")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeProp("e1", "amount", value.Int(6)); err != nil {
		t.Fatal(err)
	}
	after := AsStepper(g)
	if after == before {
		t.Fatal("property update kept the memoized snapshot")
	}
	if got := before.NodeByIndex(int(i)).Prop("owner"); got != value.Str("ann") {
		t.Errorf("pre-update view sees owner=%v, want ann", got)
	}
	if got := after.NodeByIndex(int(i)).Prop("owner"); got != value.Str("updated") {
		t.Errorf("post-update view sees owner=%v at the old index, want updated", got)
	}
	if got := AsStepper(g).EdgeByIndex(0).Prop("amount"); got != value.Int(6) {
		t.Errorf("interner sees amount=%v, want 6", got)
	}
	if got := g.LabelStats(); got.Nodes != g.NumNodes() || got.Edges != g.NumEdges() {
		t.Errorf("stats after update: %+v", got)
	}
}

func TestGraphSetPropSnapshotIsolation(t *testing.T) {
	g := conformanceGraph(t)
	snap := Snapshot(g)
	if err := g.SetNodeProp("a", "owner", value.Str("changed")); err != nil {
		t.Fatal(err)
	}
	if got := snap.Node("a").Prop("owner"); got != value.Str("ann") {
		t.Errorf("snapshot observed a later property update: %v", got)
	}
	if got := g.Node("a").Prop("owner"); got != value.Str("changed") {
		t.Errorf("graph lost the update: %v", got)
	}
	if err := g.SetNodeProp("zzz", "k", value.Int(1)); err == nil {
		t.Error("SetNodeProp on unknown node must error")
	}
	if err := g.SetEdgeProp("zzz", "k", value.Int(1)); err == nil {
		t.Error("SetEdgeProp on unknown edge must error")
	}
}
