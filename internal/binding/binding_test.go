package binding

import (
	"strings"
	"testing"
	"testing/quick"

	"gpml/internal/graph"
)

// fixture builds the sample store and interning helpers: nodes and edges
// carry the paper's ids, and bindings are constructed through the
// interner exactly like the engines do.
type fixture struct {
	s *graph.CSR
}

func newFixture(t testing.TB) fixture {
	t.Helper()
	g := graph.New()
	for _, id := range []string{"a4", "a6", "c2", "n1", "x", "a", "b", "c", "d", "e"} {
		if err := g.AddNode(graph.NodeID(id), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{
		{"t4", "a4"}, {"t5", "a6"}, {"li4", "a4"}, {"t9", "a6"},
	} {
		if err := g.AddEdge(graph.EdgeID(e[0]), graph.NodeID(e[1]), graph.NodeID(e[1]), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fixture{s: graph.Snapshot(g)}
}

func (f fixture) node(t testing.TB, id string) graph.ElemIdx {
	t.Helper()
	i, ok := f.s.InternNode(graph.NodeID(id))
	if !ok {
		t.Fatalf("unknown node %q", id)
	}
	return i
}

func (f fixture) edge(t testing.TB, id string) graph.ElemIdx {
	t.Helper()
	i, ok := f.s.InternEdge(graph.EdgeID(id))
	if !ok {
		t.Fatalf("unknown edge %q", id)
	}
	return i
}

func (f fixture) entry(t testing.TB, v string, iters IterAnn, kind ElemKind, id string) Entry {
	t.Helper()
	if kind == NodeElem {
		return Entry{Var: v, Iters: iters, Kind: kind, Idx: f.node(t, id)}
	}
	return Entry{Var: v, Iters: iters, Kind: kind, Idx: f.edge(t, id)}
}

func (f fixture) path(t testing.TB, nodes []string, edges []string) graph.IdxPath {
	t.Helper()
	p := graph.IdxPath{}
	for _, n := range nodes {
		p.Nodes = append(p.Nodes, f.node(t, n))
	}
	for _, e := range edges {
		p.Edges = append(p.Edges, f.edge(t, e))
	}
	return p
}

func (f fixture) sample(t testing.TB) *PathBinding {
	return &PathBinding{
		Entries: []Entry{
			f.entry(t, "a", IterOf(), NodeElem, "a4"),
			f.entry(t, "b", IterOf(0), EdgeElem, "t4"),
			f.entry(t, "$n2", IterOf(0), NodeElem, "a6"),
			f.entry(t, "b", IterOf(1), EdgeElem, "t5"),
			f.entry(t, "a", IterOf(), NodeElem, "a4"),
			f.entry(t, "$e1", IterOf(), EdgeElem, "li4"),
			f.entry(t, "c", IterOf(), NodeElem, "c2"),
		},
		Path: f.path(t, []string{"a4", "a6", "a4", "c2"}, []string{"t4", "t5", "li4"}),
		Src:  f.s,
	}
}

func TestReduceStripsAnnotations(t *testing.T) {
	f := newFixture(t)
	r := f.sample(t).Reduce()
	hdr := strings.Join(r.HeaderRow(), " ")
	if hdr != "a b □ b a − c" {
		t.Errorf("header: %q", hdr)
	}
	val := strings.Join(r.ValueRow(), " ")
	if val != "a4 t4 a6 t5 a4 li4 c2" {
		t.Errorf("values: %q", val)
	}
}

func TestDisplayVarAnnotations(t *testing.T) {
	e := Entry{Var: "b", Iters: IterOf(0), Kind: EdgeElem}
	if got := e.DisplayVar(); got != "b1" {
		t.Errorf("iteration 0 displays as b1 (paper numbering): %q", got)
	}
	e = Entry{Var: "b", Iters: IterOf(2, 1), Kind: EdgeElem}
	if got := e.DisplayVar(); got != "b3.2" {
		t.Errorf("nested annotation: %q", got)
	}
	e = Entry{Var: "$n1", Iters: IterOf(0), Kind: NodeElem}
	if got := e.DisplayVar(); got != "□1" {
		t.Errorf("anonymous annotated: %q", got)
	}
}

func TestIterAnnSpillsDeepNests(t *testing.T) {
	a := IterOf(3, 1, 4, 1, 5)
	if a.Len() != 5 {
		t.Fatalf("len: %d", a.Len())
	}
	for i, want := range []int{3, 1, 4, 1, 5} {
		if a.At(i) != want {
			t.Errorf("At(%d) = %d, want %d", i, a.At(i), want)
		}
	}
	e := Entry{Var: "b", Iters: a}
	if got := e.DisplayVar(); got != "b4.2.5.2.6" {
		t.Errorf("deep annotation: %q", got)
	}
}

// dedupKeys materializes the compact keys of a binding list under one
// Keyer, for equality assertions.
func dedupKeys(rs ...*Reduced) []string {
	k := NewKeyer()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = string(k.Key(r))
	}
	return out
}

func TestKeyDistinguishesTagsAndPaths(t *testing.T) {
	f := newFixture(t)
	a := f.sample(t).Reduce()
	b := f.sample(t).Reduce()
	tagged := f.sample(t)
	tagged.Tags = []Tag{{Union: 0, Branch: 1}}
	other := f.sample(t)
	other.Path.Edges[0] = f.edge(t, "t9")
	keys := dedupKeys(a, b, tagged.Reduce(), other.Reduce())
	if keys[0] != keys[1] {
		t.Fatalf("identical bindings must share keys")
	}
	if keys[2] == keys[0] {
		t.Errorf("multiset tags must distinguish keys (§4.5)")
	}
	if keys[3] == keys[0] {
		t.Errorf("different paths must have different keys")
	}
	// The canonical textual key distinguishes the same pairs.
	if a.CanonKey() != b.CanonKey() {
		t.Fatalf("identical bindings must share canon keys")
	}
	if tagged.Reduce().CanonKey() == a.CanonKey() || other.Reduce().CanonKey() == a.CanonKey() {
		t.Errorf("canon keys must distinguish tags and paths")
	}
}

// dedupStrings is the reference Dedup is checked against: the same
// first-occurrence set, keyed by the canonical textual identity instead of
// the Keyer's compact binary key. The two agree by the Keyer's injectivity.
func dedupStrings(in []*Reduced) []*Reduced {
	seen := make(map[string]struct{}, len(in))
	out := make([]*Reduced, 0, len(in))
	for _, r := range in {
		k := r.CanonKey()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

func TestDedup(t *testing.T) {
	f := newFixture(t)
	a := f.sample(t).Reduce()
	b := f.sample(t).Reduce()
	c := f.sample(t)
	c.Tags = []Tag{{0, 1}}
	for name, dedup := range map[string]func([]*Reduced) []*Reduced{
		"binary": Dedup, "strings": dedupStrings,
	} {
		out := dedup([]*Reduced{a, b, c.Reduce()})
		if len(out) != 2 {
			t.Errorf("%s dedup: want 2, got %d", name, len(out))
		}
		// Order preserved, first kept.
		if out[0] != a {
			t.Errorf("%s dedup must keep the first occurrence", name)
		}
	}
}

func TestSingletonGroupAccessors(t *testing.T) {
	f := newFixture(t)
	r := f.sample(t).Reduce()
	if ref, ok := r.Singleton("a"); !ok || r.RefID(ref) != "a4" || ref.Kind != NodeElem {
		t.Errorf("singleton a: %+v %v", ref, ok)
	}
	if _, ok := r.Singleton("zzz"); ok {
		t.Errorf("missing singleton must report !ok")
	}
	g := r.Group("b")
	if len(g) != 2 || r.RefID(g[0]) != "t4" || r.RefID(g[1]) != "t5" {
		t.Errorf("group b: %+v", g)
	}
	vars := r.Vars()
	if strings.Join(vars, ",") != "a,b,c" {
		t.Errorf("vars: %v", vars)
	}
}

func TestFormatTable(t *testing.T) {
	f := newFixture(t)
	out := FormatTable([]*Reduced{f.sample(t).Reduce()})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[1], "a4") {
		t.Errorf("table:\n%s", out)
	}
}

func TestSortStable(t *testing.T) {
	f := newFixture(t)
	long := f.sample(t).Reduce()
	short := &Reduced{
		Cols: []ReducedCol{{Var: "x", Kind: NodeElem, Idx: f.node(t, "n1")}},
		Path: f.path(t, []string{"n1"}, nil),
		Src:  f.s,
	}
	in := []*Reduced{long, short}
	SortStable(in)
	if in[0] != short {
		t.Errorf("shorter paths sort first")
	}
}

func TestStringRendering(t *testing.T) {
	f := newFixture(t)
	r := f.sample(t).Reduce()
	s := r.String()
	if !strings.Contains(s, "a↦a4") || !strings.Contains(s, "−↦li4") {
		t.Errorf("rendering: %s", s)
	}
	if NodeElem.String() != "node" || EdgeElem.String() != "edge" {
		t.Errorf("kind strings wrong")
	}
}

// Dedup is idempotent and order-preserving (property).
func TestDedupIdempotentProperty(t *testing.T) {
	fx := newFixture(t)
	f := func(ids []uint8) bool {
		var in []*Reduced
		for _, id := range ids {
			n := fx.node(t, string(rune('a'+id%5)))
			in = append(in, &Reduced{
				Cols: []ReducedCol{{Var: "x", Kind: NodeElem, Idx: n}},
				Path: graph.IdxPath{Nodes: []graph.ElemIdx{n}},
				Src:  fx.s,
			})
		}
		once := Dedup(in)
		twice := Dedup(once)
		if len(once) != len(twice) {
			return false
		}
		seen := map[string]bool{}
		for _, r := range once {
			if seen[r.CanonKey()] {
				return false
			}
			seen[r.CanonKey()] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOwnedCopies: Reduce, Clone and Arena.Clone copy everything they
// return, so overwriting the source binding — as an engine does for its
// next match — changes none of them; ReduceInto borrows the arena's
// storage, which Reset hands out again; Reverse flips an owned copy.
func TestOwnedCopies(t *testing.T) {
	f := newFixture(t)
	src := f.sample(t)
	src.Tags = []Tag{{Union: 1, Branch: 2}}
	want := src.Reduce().CanonKey()

	reduced, cloned := src.Reduce(), src.Clone()
	var a Arena
	into := src.ReduceInto(&a)
	kept := new(Arena).Clone(into)
	// Overwrite the source in place, as accept does for the next match.
	for i := range src.Entries {
		src.Entries[i].Idx = f.node(t, "x")
		src.Entries[i].Var = "z"
	}
	for i := range src.Path.Nodes {
		src.Path.Nodes[i] = f.node(t, "x")
	}
	src.Path.Edges[0] = f.edge(t, "t9")
	src.Tags[0] = Tag{}
	for name, r := range map[string]*Reduced{"Reduce": reduced, "Clone": cloned.Reduce(), "ReduceInto": into, "Arena.Clone": kept} {
		if got := r.CanonKey(); got != want {
			t.Errorf("%s after the source changed:\ngot  %s\nwant %s", name, got, want)
		}
	}

	a.Reset()
	reused := src.ReduceInto(&a)
	if reused != into || into.CanonKey() == want {
		t.Errorf("Reset did not hand the arena's storage out again")
	}

	kept.Reverse()
	if n := len(kept.Cols); kept.Cols[0] != reduced.Cols[n-1] || kept.Path.Nodes[0] != reduced.Path.Last() || kept.CanonKey() == want {
		t.Errorf("Reverse: cols %v path %v", kept.Cols, kept.Path)
	}
}
