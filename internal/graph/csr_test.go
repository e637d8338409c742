package graph

import (
	"reflect"
	"testing"

	"gpml/internal/value"
)

// conformanceGraph builds a graph exercising every structural corner the
// Store contract covers: multiple labels, directed multi-edges between the
// same endpoints, undirected multi-edges, self-loops (directed and
// undirected), isolated nodes and unlabeled elements.
func conformanceGraph(t testing.TB) *Graph {
	t.Helper()
	g := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode("a", []string{"Account", "Vip"}, map[string]value.Value{"owner": value.Str("ann")}))
	must(g.AddNode("b", []string{"Account"}, nil))
	must(g.AddNode("c", []string{"City"}, nil))
	must(g.AddNode("d", nil, nil)) // unlabeled, isolated
	must(g.AddEdge("e1", "a", "b", []string{"Transfer"}, map[string]value.Value{"amount": value.Int(5)}))
	must(g.AddEdge("e2", "a", "b", []string{"Transfer"}, nil)) // directed multi-edge
	must(g.AddEdge("e3", "b", "a", []string{"Transfer"}, nil))
	must(g.AddEdge("e4", "a", "a", []string{"Transfer"}, nil)) // directed self-loop
	must(g.AddUndirectedEdge("u1", "a", "c", []string{"near"}, nil))
	must(g.AddUndirectedEdge("u2", "a", "c", []string{"near"}, nil)) // undirected multi-edge
	must(g.AddUndirectedEdge("u3", "c", "c", []string{"near"}, nil)) // undirected self-loop
	must(g.AddEdge("e5", "b", "c", nil, nil))                        // unlabeled edge
	return g
}

// storeConformance checks one Store implementation against the reference
// behaviour of the graph it was built from.
func storeConformance(t *testing.T, name string, g *Graph, s Store) {
	t.Helper()
	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: size %d/%d, want %d/%d", name, s.NumNodes(), s.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// Node and edge iteration in insertion order.
	var nodeIDs []NodeID
	s.Nodes(func(n *Node) bool { nodeIDs = append(nodeIDs, n.ID); return true })
	if !(len(nodeIDs) == 0 && g.NumNodes() == 0) && !reflect.DeepEqual(nodeIDs, g.NodeIDs()) {
		t.Errorf("%s: node order %v, want %v", name, nodeIDs, g.NodeIDs())
	}
	var edgeIDs []EdgeID
	s.Edges(func(e *Edge) bool { edgeIDs = append(edgeIDs, e.ID); return true })
	if !(len(edgeIDs) == 0 && g.NumEdges() == 0) && !reflect.DeepEqual(edgeIDs, g.EdgeIDs()) {
		t.Errorf("%s: edge order %v, want %v", name, edgeIDs, g.EdgeIDs())
	}
	// Lookup round-trips and misses.
	for _, id := range g.NodeIDs() {
		n := s.Node(id)
		ref := g.Node(id)
		if n == nil || n.ID != id || !reflect.DeepEqual(n.Labels, ref.Labels) || !reflect.DeepEqual(n.Props, ref.Props) {
			t.Errorf("%s: node %q mismatch: %+v vs %+v", name, id, n, ref)
		}
	}
	for _, id := range g.EdgeIDs() {
		e := s.Edge(id)
		ref := g.Edge(id)
		if e == nil || e.ID != id || e.Source != ref.Source || e.Target != ref.Target || e.Direction != ref.Direction {
			t.Errorf("%s: edge %q mismatch: %+v vs %+v", name, id, e, ref)
		}
	}
	if s.Node("zzz") != nil || s.Edge("zzz") != nil {
		t.Errorf("%s: lookups of unknown ids must return nil", name)
	}
	// Step order per node is the map graph's Incident order, including
	// self-loops visited once and multi-edges visited individually.
	st := AsStepper(s)
	for _, id := range g.NodeIDs() {
		if got, want := stepIncident(st, id), g.IncidentIDs(id); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: steps(%s) = %v, want %v", name, id, got, want)
		}
	}
	// Label index equals a filtered scan, per label and for absent labels.
	for _, label := range append(g.Labels(), "NoSuchLabel") {
		var got, want []NodeID
		s.NodesWithLabel(label, func(n *Node) bool { got = append(got, n.ID); return true })
		g.Nodes(func(n *Node) bool {
			if n.HasLabel(label) {
				want = append(want, n.ID)
			}
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: nodesWithLabel(%s) = %v, want %v", name, label, got, want)
		}
		if c := s.CountNodesWithLabel(label); c != len(want) {
			t.Errorf("%s: countNodesWithLabel(%s) = %d, want %d", name, label, c, len(want))
		}
	}
	// Cardinality statistics.
	stats := s.LabelStats()
	ref := g.LabelStats()
	if stats.Nodes != ref.Nodes || stats.Edges != ref.Edges ||
		!reflect.DeepEqual(stats.NodeLabels, ref.NodeLabels) || !reflect.DeepEqual(stats.EdgeLabels, ref.EdgeLabels) {
		t.Errorf("%s: stats %+v, want %+v", name, stats, ref)
	}
	// Early termination of the iterators.
	count := 0
	s.Nodes(func(*Node) bool { count++; return false })
	if count != 1 {
		t.Errorf("%s: Nodes ignored early stop (%d visits)", name, count)
	}
}

// stepIncident lists the edges Steps visits at node id, in step order:
// the Stepper counterpart of the map graph's Incident.
func stepIncident(st Stepper, id NodeID) []EdgeID {
	var out []EdgeID
	if i, ok := internNode(st, id); ok {
		st.Steps(int(i), func(edge, _ int, _ StepKind) bool {
			out = append(out, st.EdgeByIndex(edge).ID)
			return true
		})
	}
	return out
}

func TestStoreConformance(t *testing.T) {
	g := conformanceGraph(t)
	storeConformance(t, "map", g, g)
	storeConformance(t, "csr", g, Snapshot(g))
}

func TestCheapestNodeLabel(t *testing.T) {
	g := conformanceGraph(t)
	for _, s := range []Store{g, Snapshot(g)} {
		if l, ok := CheapestNodeLabel(s, []string{"Account", "Vip"}); !ok || l != "Vip" {
			t.Errorf("cheapest of Account/Vip = %q (%v), want Vip", l, ok)
		}
		if _, ok := CheapestNodeLabel(s, nil); ok {
			t.Error("cheapest of no candidates must report !ok")
		}
		// A label absent from the graph has count 0: cheapest of all.
		if l, _ := CheapestNodeLabel(s, []string{"Account", "Ghost"}); l != "Ghost" {
			t.Errorf("cheapest with absent label = %q, want Ghost", l)
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	g := conformanceGraph(t)
	snap := Snapshot(g)
	before := snap.NumNodes()
	if err := g.AddNode("late", []string{"Account"}, nil); err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes() != before || snap.Node("late") != nil {
		t.Error("snapshot must not observe later mutations of the source graph")
	}
	var accounts int
	snap.NodesWithLabel("Account", func(*Node) bool { accounts++; return true })
	if accounts != 2 {
		t.Errorf("snapshot label index: %d Account nodes, want 2", accounts)
	}
}
