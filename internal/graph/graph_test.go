package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gpml/internal/value"
)

func small(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder().
		Node("a", []string{"Account"}, "owner", "Ann").
		Node("b", []string{"Account"}, "owner", "Bob").
		Node("c", nil).
		Edge("e1", "a", "b", []string{"Transfer"}, "amount", 5).
		UndirectedEdge("e2", "b", "c", []string{"knows"}).
		Edge("e3", "b", "b", []string{"Transfer"}). // directed self-loop
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicConstruction(t *testing.T) {
	g := small(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("counts: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	n := g.Node("a")
	if n == nil || !n.HasLabel("Account") || n.HasLabel("IP") {
		t.Fatalf("node a labels wrong: %+v", n)
	}
	if got := n.Prop("owner"); !value.Identical(got, value.Str("Ann")) {
		t.Errorf("prop owner: %v", got)
	}
	if got := n.Prop("missing"); !got.IsNull() {
		t.Errorf("missing property must be NULL (π is partial)")
	}
	e := g.Edge("e1")
	if e.Source != "a" || e.Target != "b" || e.Direction != Directed {
		t.Errorf("edge e1 wrong: %+v", e)
	}
	if e.Other("a") != "b" || e.Other("b") != "a" {
		t.Errorf("Other wrong")
	}
	if !e.Connects("a", "b") || !e.Connects("b", "a") || e.Connects("a", "c") {
		t.Errorf("Connects wrong")
	}
	if !g.Edge("e3").IsLoop() || g.Edge("e1").IsLoop() {
		t.Errorf("IsLoop wrong")
	}
	if g.Edge("e2").Direction != Undirected {
		t.Errorf("e2 should be undirected")
	}
}

func TestDefinitionInvariants(t *testing.T) {
	g := New()
	if err := g.AddNode("x", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("x", nil, nil); err == nil {
		t.Errorf("duplicate node id must fail")
	}
	// N ∩ E = ∅ (Definition 2.1).
	if err := g.AddEdge("x", "x", "x", nil, nil); err == nil {
		t.Errorf("edge id reusing node id must fail")
	}
	if err := g.AddNode("y", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("e", "x", "y", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("e", nil, nil); err == nil {
		t.Errorf("node id reusing edge id must fail")
	}
	if err := g.AddEdge("e2", "x", "ghost", nil, nil); err == nil {
		t.Errorf("dangling target must fail")
	}
	if err := g.AddEdge("e3", "ghost", "x", nil, nil); err == nil {
		t.Errorf("dangling source must fail")
	}
	// Self-loops and multi-edges are allowed.
	if err := g.AddEdge("loop", "x", "x", nil, nil); err != nil {
		t.Errorf("self-loop must be allowed: %v", err)
	}
	if err := g.AddEdge("e4", "x", "y", nil, nil); err != nil {
		t.Errorf("multi-edge must be allowed: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsNormalized(t *testing.T) {
	g := New()
	if err := g.AddNode("n", []string{"B", "A", "B"}, nil); err != nil {
		t.Fatal(err)
	}
	got := g.Node("n").Labels
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("labels must be sorted and deduplicated: %v", got)
	}
	if all := g.Labels(); len(all) != 2 {
		t.Errorf("graph labels: %v", all)
	}
}

func TestIncidentAndIteration(t *testing.T) {
	g := small(t)
	var ids []string
	g.Incident("b", func(e *Edge) bool {
		ids = append(ids, string(e.ID))
		return true
	})
	if strings.Join(ids, ",") != "e1,e2,e3" {
		t.Errorf("incident order: %v", ids)
	}
	// Self-loop appears exactly once in its node's incident list.
	count := 0
	for _, id := range g.IncidentIDs("b") {
		if id == "e3" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("self-loop must be listed once, got %d", count)
	}
	// Early termination.
	seen := 0
	g.Nodes(func(*Node) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Errorf("iteration should stop early, saw %d", seen)
	}
	if len(g.NodeIDs()) != 3 || len(g.EdgeIDs()) != 3 {
		t.Errorf("id lists wrong")
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if err := g.AddNode("a", nil, nil); err != nil {
		t.Fatalf("zero-value graph must be usable: %v", err)
	}
	if g.Node("missing") != nil || g.Edge("missing") != nil {
		t.Errorf("missing lookups must return nil")
	}
}

func TestPathOperations(t *testing.T) {
	g := small(t)
	p := SingleNode("a")
	if p.Len() != 0 || p.First() != "a" || p.Last() != "a" {
		t.Errorf("single node path wrong")
	}
	p2 := p.Append("e1", "b")
	if p2.Len() != 1 || p2.Last() != "b" {
		t.Errorf("append wrong: %v", p2)
	}
	// Persistence: p unchanged.
	if p.Len() != 0 {
		t.Errorf("Append must not mutate the receiver")
	}
	if err := p2.ValidIn(g); err != nil {
		t.Errorf("p2 should be valid: %v", err)
	}
	bad := Path{Nodes: []NodeID{"a", "c"}, Edges: []EdgeID{"e1"}}
	if err := bad.ValidIn(g); err == nil {
		t.Errorf("edge e1 does not connect a and c")
	}
	if got := p2.String(); got != "path(a,e1,b)" {
		t.Errorf("String: %q", got)
	}
	q := Path{Nodes: []NodeID{"b", "c"}, Edges: []EdgeID{"e2"}}
	joined, err := p2.Concat(q)
	if err != nil || joined.String() != "path(a,e1,b,e2,c)" {
		t.Errorf("concat: %v %v", joined, err)
	}
	if _, err := q.Concat(p2); err == nil {
		t.Errorf("mismatched concat must fail")
	}
}

func TestPathRestrictorPredicates(t *testing.T) {
	trail := Path{Nodes: []NodeID{"a", "b", "a"}, Edges: []EdgeID{"e1", "e2"}}
	if !trail.IsTrail() {
		t.Errorf("distinct edges: trail")
	}
	if trail.IsAcyclic() {
		t.Errorf("node a repeats: not acyclic")
	}
	if !trail.IsSimple() {
		t.Errorf("first==last: simple")
	}
	notTrail := Path{Nodes: []NodeID{"a", "b", "a", "b"}, Edges: []EdgeID{"e1", "e1", "e1"}}
	if notTrail.IsTrail() {
		t.Errorf("repeated edge: not a trail")
	}
	interior := Path{Nodes: []NodeID{"a", "b", "b"}, Edges: []EdgeID{"e1", "e2"}}
	if interior.IsSimple() {
		t.Errorf("interior repeat: not simple")
	}
	empty := Path{}
	if !empty.IsTrail() || !empty.IsAcyclic() || !empty.IsSimple() {
		t.Errorf("empty path satisfies all restrictors")
	}
}

// Property: ACYCLIC implies SIMPLE implies (for our generator) the node
// multiset constraints; TRAIL is implied by ACYCLIC on simple graphs.
func TestRestrictorImplicationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		p := Path{Nodes: []NodeID{NodeID(rune('a' + rng.Intn(n)))}}
		for i := 0; i < rng.Intn(8); i++ {
			p = p.Append(EdgeID(rune('p'+rng.Intn(10))), NodeID(rune('a'+rng.Intn(n))))
		}
		if p.IsAcyclic() && !p.IsSimple() {
			return false // acyclic ⊂ simple
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundtrip(t *testing.T) {
	g := small(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip counts differ")
	}
	if got := back.Node("a").Prop("owner"); !value.Identical(got, value.Str("Ann")) {
		t.Errorf("roundtrip property: %v", got)
	}
	if back.Edge("e2").Direction != Undirected {
		t.Errorf("roundtrip direction lost")
	}
	if amt := back.Edge("e1").Prop("amount"); !value.Identical(amt, value.Int(5)) {
		t.Errorf("roundtrip int property became %v", amt)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Errorf("invalid JSON must fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":"a"},{"id":"a"}]}`)); err == nil {
		t.Errorf("duplicate ids must fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"edges":[{"id":"e","source":"x","target":"y"}]}`)); err == nil {
		t.Errorf("dangling edge must fail")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Node("a", nil, "key").Build(); err == nil {
		t.Errorf("odd kv list must fail")
	}
	if _, err := NewBuilder().Node("a", nil, 42, "v").Build(); err == nil {
		t.Errorf("non-string key must fail")
	}
	if _, err := NewBuilder().Node("a", nil, "k", struct{}{}).Build(); err == nil {
		t.Errorf("unsupported value type must fail")
	}
	if _, err := NewBuilder().Edge("e", "a", "b", nil).Build(); err == nil {
		t.Errorf("edge before nodes must fail")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustBuild must panic on error")
		}
	}()
	NewBuilder().Node("a", nil).Node("a", nil).MustBuild()
}

func TestToValue(t *testing.T) {
	for _, x := range []any{nil, "s", 1, int64(2), 1.5, true, value.Int(3)} {
		if _, err := ToValue(x); err != nil {
			t.Errorf("ToValue(%T): %v", x, err)
		}
	}
	if _, err := ToValue([]int{1}); err == nil {
		t.Errorf("ToValue(slice) must fail")
	}
}

func TestStats(t *testing.T) {
	s := small(t).Stats()
	if !strings.Contains(s, "nodes=3") || !strings.Contains(s, "directed=2") || !strings.Contains(s, "undirected=1") {
		t.Errorf("stats: %s", s)
	}
}

// Path keys are injective over structurally distinct paths (property).
func TestPathKeyInjectiveProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		p1 := Path{Nodes: []NodeID{NodeID(rune('a' + a%4))}}
		p2 := Path{Nodes: []NodeID{NodeID(rune('a' + b%4))}}
		if p1.Key() == p2.Key() {
			return p1.Nodes[0] == p2.Nodes[0]
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	g := small(t)
	r := Reverse(g)
	if r.NumNodes() != g.NumNodes() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("reverse counts differ")
	}
	e := r.Edge("e1")
	if e.Source != "b" || e.Target != "a" {
		t.Errorf("e1 not reversed: %s→%s", e.Source, e.Target)
	}
	if r.Edge("e2").Direction != Undirected {
		t.Errorf("undirected edges keep their kind")
	}
	// Double reversal is the identity on structure.
	rr := Reverse(r)
	if rr.Edge("e1").Source != "a" {
		t.Errorf("double reverse broken")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLabelStatsMemoInvalidation pins the stats memo: repeated calls
// return consistent counts, and a mutation refreshes them.
func TestLabelStatsMemoInvalidation(t *testing.T) {
	g := New()
	if err := g.AddNode("n1", []string{"A"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := g.LabelStats().NodeLabelCount("A"); got != 1 {
		t.Fatalf("A count = %d, want 1", got)
	}
	if got := g.LabelStats().NodeLabelCount("A"); got != 1 {
		t.Fatalf("memoized A count = %d, want 1", got)
	}
	if err := g.AddNode("n2", []string{"A"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("e1", "n1", "n2", []string{"T"}, nil); err != nil {
		t.Fatal(err)
	}
	st := g.LabelStats()
	if st.NodeLabelCount("A") != 2 || st.EdgeLabelCount("T") != 1 {
		t.Fatalf("post-mutation stats = %+v, want A=2 T=1", st)
	}
	if st.AvgDegree() != 1 {
		t.Fatalf("AvgDegree = %v, want 1 (2 edges-ends / 2 nodes)", st.AvgDegree())
	}
}
