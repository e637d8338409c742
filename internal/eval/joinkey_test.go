package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Key-encoding battery for the dedup and join keys. Two encodings exist:
// the compact binary forms (varint-packed dedup keys, fixed-width
// index join components) used on a shared store, and the materialized
// string forms (the canonical textual dedup key the sort orders by, and
// the join key of multi-graph joins). The adversarial
// ids below — NUL bytes, kind-tag prefixes, shared prefixes, digit
// prefixes, the literal unbound marker — were chosen to break naive
// concatenation encodings; the differential fuzz proves the compact keys
// introduce no new collisions (and lose none): two binding tuples share a
// compact key exactly when they share a string key.

// adversarialIDs is the id alphabet; every one is a node in keyGraph.
var adversarialIDs = []string{
	"a", "a\x00nb", "b\x00nc", "c", "n", "e", "?", "", "1n", "1", "nz",
	"ab", "abc", "0n?", "\x00", "n\x00",
}

// keyGraph builds a store whose node set is the adversarial alphabet
// (plus a few edges so edge components can be exercised too).
func keyGraph(t testing.TB) graph.Store {
	t.Helper()
	b := graph.NewBuilder()
	for _, id := range adversarialIDs {
		b.Node(id, []string{"N"})
	}
	for i, id := range adversarialIDs[:4] {
		b.Edge("edge-"+id, id, adversarialIDs[(i+1)%4], []string{"E"})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func solutionOf(t testing.TB, s graph.Store, vars map[string]string) *binding.Reduced {
	t.Helper()
	r := &binding.Reduced{Src: s}
	for v, id := range vars {
		idx, ok := s.InternNode(graph.NodeID(id))
		if !ok {
			t.Fatalf("unknown node %q", id)
		}
		r.Cols = append(r.Cols, binding.ReducedCol{Var: v, Kind: binding.NodeElem, Idx: idx})
	}
	return r
}

func rowOf(t testing.TB, s graph.Store, vars map[string]string) *Row {
	t.Helper()
	row := &Row{}
	for v, id := range vars {
		idx, ok := s.InternNode(graph.NodeID(id))
		if !ok {
			t.Fatalf("unknown node %q", id)
		}
		row.vars = append(row.vars, rowVar{name: v, kind: BoundNode, idx: idx, id: id, sol: &binding.Reduced{Src: s}})
	}
	return row
}

func TestJoinKeyAdversarialIDs(t *testing.T) {
	g := keyGraph(t)
	shared := []string{"x", "y"}
	cases := []struct {
		name string
		a    map[string]string // solution-side bindings
		b    map[string]string // row-side bindings
	}{
		{"nul-shifts-boundary", map[string]string{"x": "a\x00nb", "y": "c"}, map[string]string{"x": "a", "y": "b\x00nc"}},
		{"leading-kind-tag", map[string]string{"x": "nz", "y": "ab"}, map[string]string{"x": "n", "y": "abc"}},
		{"empty-vs-tag-only", map[string]string{"x": "", "y": "n"}, map[string]string{"x": "n", "y": ""}},
		{"digit-prefix", map[string]string{"x": "1n", "y": "c"}, map[string]string{"x": "1", "y": "c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, byIdx := range []bool{true, false} {
				solKey := string(appendJoinKeyOfSolution(nil, solutionOf(t, g, tc.a), shared, byIdx))
				rowKey := string(appendJoinKeyOfRow(nil, rowOf(t, g, tc.b), shared, byIdx))
				if solKey == rowKey {
					t.Errorf("byIdx=%v: distinct binding tuples %v and %v encode to the same key %q", byIdx, tc.a, tc.b, solKey)
				}
				// Sanity: equal tuples must still collide on purpose.
				same := string(appendJoinKeyOfRow(nil, rowOf(t, g, tc.a), shared, byIdx))
				if string(appendJoinKeyOfSolution(nil, solutionOf(t, g, tc.a), shared, byIdx)) != same {
					t.Errorf("byIdx=%v: equal binding tuple %v encodes differently on the two join sides", byIdx, tc.a)
				}
			}
		})
	}
}

// TestJoinKeyUnboundDistinct pins the unbound marker: a conditional
// singleton left unbound must not collide with any bound element,
// including ids chosen to mimic the marker in either encoding.
func TestJoinKeyUnboundDistinct(t *testing.T) {
	g := keyGraph(t)
	shared := []string{"x"}
	for _, byIdx := range []bool{true, false} {
		unbound := string(appendJoinKeyOfSolution(nil, &binding.Reduced{Src: g}, shared, byIdx))
		for _, id := range []string{"?", "", "0n?"} {
			if bound := string(appendJoinKeyOfSolution(nil, solutionOf(t, g, map[string]string{"x": id}), shared, byIdx)); bound == unbound {
				t.Errorf("byIdx=%v: bound id %q collides with the unbound marker %q", byIdx, id, unbound)
			}
		}
	}
}

// TestJoinKeyDifferentialFuzz is the adversarial differential suite: over
// random binding tuples drawn from the adversarial alphabet, the compact
// index keys and the materialized string keys must induce exactly the
// same equivalence classes — no new collisions (a compact collision
// without a string collision) and no lost ones (ids are in bijection with
// indices, so the reverse would be a materialization bug).
func TestJoinKeyDifferentialFuzz(t *testing.T) {
	g := keyGraph(t)
	shared := []string{"x", "y", "z"}
	rng := rand.New(rand.NewSource(7))
	randTuple := func() map[string]string {
		vars := map[string]string{}
		for _, v := range shared {
			if rng.Intn(5) == 0 {
				continue // leave unbound
			}
			vars[v] = adversarialIDs[rng.Intn(len(adversarialIDs))]
		}
		return vars
	}
	type keyed struct {
		tuple map[string]string
		idx   string
		str   string
	}
	var all []keyed
	for i := 0; i < 400; i++ {
		tuple := randTuple()
		var idxKey, strKey string
		if i%2 == 0 { // alternate sides so sol/sol, sol/row and row/row pairs occur
			sol := solutionOf(t, g, tuple)
			idxKey = string(appendJoinKeyOfSolution(nil, sol, shared, true))
			strKey = string(appendJoinKeyOfSolution(nil, sol, shared, false))
		} else {
			row := rowOf(t, g, tuple)
			idxKey = string(appendJoinKeyOfRow(nil, row, shared, true))
			strKey = string(appendJoinKeyOfRow(nil, row, shared, false))
		}
		all = append(all, keyed{tuple, idxKey, strKey})
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if (all[i].idx == all[j].idx) != (all[i].str == all[j].str) {
				t.Fatalf("key encodings disagree on %v vs %v: idx %v, str %v",
					all[i].tuple, all[j].tuple, all[i].idx == all[j].idx, all[i].str == all[j].str)
			}
		}
	}
}

// TestDedupKeyDifferentialFuzz does the same for the dedup keys: over
// random reduced bindings (columns, multiset tags, paths) on the
// adversarial graph, the compact Keyer must be exactly injective — keys
// collide iff the bindings are structurally identical — and in particular
// introduce no collision the canonical string key lacks. (The reverse
// direction is deliberately not required: the textual key itself can
// collide on adversarial ids — an empty node id makes a no-path binding
// and a single-node path render identically — which the binary keys fix.)
func TestDedupKeyDifferentialFuzz(t *testing.T) {
	g := keyGraph(t)
	rng := rand.New(rand.NewSource(11))
	nNodes, nEdges := g.NumNodes(), g.NumEdges()
	randReduced := func() *binding.Reduced {
		r := &binding.Reduced{Src: g}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			v := []string{"x", "y", "□"}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				r.Cols = append(r.Cols, binding.ReducedCol{Var: v, Kind: binding.NodeElem, Idx: graph.ElemIdx(rng.Intn(nNodes))})
			} else {
				r.Cols = append(r.Cols, binding.ReducedCol{Var: v, Kind: binding.EdgeElem, Idx: graph.ElemIdx(rng.Intn(nEdges))})
			}
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			r.Tags = append(r.Tags, binding.Tag{Union: rng.Intn(2), Branch: rng.Intn(3)})
		}
		if rng.Intn(4) > 0 {
			steps := rng.Intn(3)
			r.Path.Nodes = append(r.Path.Nodes, graph.ElemIdx(rng.Intn(nNodes)))
			for i := 0; i < steps; i++ {
				r.Path.Edges = append(r.Path.Edges, graph.ElemIdx(rng.Intn(nEdges)))
				r.Path.Nodes = append(r.Path.Nodes, graph.ElemIdx(rng.Intn(nNodes)))
			}
		}
		return r
	}
	keyer := binding.NewKeyer()
	type keyed struct {
		r   *binding.Reduced
		bin string
	}
	var all []keyed
	for i := 0; i < 300; i++ {
		r := randReduced()
		all = append(all, keyed{r, string(keyer.Key(r))})
	}
	structEq := func(a, b *binding.Reduced) bool {
		return reflect.DeepEqual(a.Cols, b.Cols) && reflect.DeepEqual(a.Tags, b.Tags) &&
			reflect.DeepEqual(a.Path, b.Path)
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			binEq := all[i].bin == all[j].bin
			if binEq != structEq(all[i].r, all[j].r) {
				t.Fatalf("binary dedup key equality diverges from structural equality:\n  a=%#v\n  b=%#v\n  binary equal: %v",
					all[i].r, all[j].r, binEq)
			}
			if binEq && all[i].r.CanonKey() != all[j].r.CanonKey() {
				t.Fatalf("new collision: binary keys equal but canon keys differ:\n  a=%#v\n  b=%#v", all[i].r, all[j].r)
			}
		}
	}
}

// TestJoinAdversarialIDsEndToEnd runs a two-pattern join over a graph
// whose element ids are built from NUL bytes and kind-tag characters, in
// both key forms — one shared store joins on compact index keys, the map
// graph paired with its CSR snapshot (same ids, distinct stores) joins on
// the string form — and against the classic oracle: the equi-join on x
// and y must produce exactly the rows where both endpoints truly coincide.
func TestJoinAdversarialIDsEndToEnd(t *testing.T) {
	b := graph.NewBuilder()
	ids := []string{"a", "a\x00nb", "b\x00nc", "c", "n", "?"}
	for _, id := range ids {
		b.Node(id, []string{"N"})
	}
	// A-edges for the first pattern, B-edges for the second. Only the
	// ("a" -> "c") pair is present in both, so the join must return
	// exactly one row — any key collision would surface as extra
	// candidate pairs or, with a broken encoding, missed matches.
	b.Edge("eA1", "a", "c", []string{"A"})
	b.Edge("eA2", "a\x00nb", "c", []string{"A"})
	b.Edge("eA3", "n", "b\x00nc", []string{"A"})
	b.Edge("eB1", "a", "c", []string{"B"})
	b.Edge("eB2", "a", "b\x00nc", []string{"B"})
	b.Edge("eB3", "?", "c", []string{"B"})
	g := b.MustBuild()
	p := compile(t, `MATCH (x)-[e1:A]->(y), (x)-[e2:B]->(y)`, plan.Options{})
	for name, stores := range map[string][]graph.Store{
		"index keys":  {g, g},
		"string keys": {g, graph.Snapshot(g)},
	} {
		res, err := EvalPlanOn(stores, p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for side, r := range map[string]*Result{"bind-join": res, "classic": classicJoin(t, stores, p, Config{})} {
			if len(r.Rows) != 1 {
				t.Fatalf("%s %s: got %d rows, want 1", name, side, len(r.Rows))
			}
			x, _ := r.Rows[0].Get("x")
			y, _ := r.Rows[0].Get("y")
			if string(x.Node) != "a" || string(y.Node) != "c" {
				t.Fatalf("%s %s: joined (%q, %q), want (a, c)", name, side, x.Node, y.Node)
			}
		}
	}
}

func formatRows(t *testing.T, res *Result) string {
	t.Helper()
	out := ""
	for _, row := range res.Rows {
		for _, v := range row.Vars() {
			b, _ := row.Get(v)
			out += fmt.Sprintf("%s=%s;", v, b)
		}
		out += "\n"
	}
	return out
}

// TestMultiGraphPostfilterRouting pins multi-graph index routing: the
// bind-join planner may bind a shared variable from a store other than
// its textually-first declaring one, and the postfilter must still read
// the element's properties from the declaring store by id — dense indices
// are not portable across stores. The two stores below deliberately place
// the shared node at different indices; the bind-join pipeline and the
// classic oracle must agree.
func TestMultiGraphPostfilterRouting(t *testing.T) {
	// Store A: many Hub nodes first — the pattern scanning store A is
	// deliberately expensive, so the cost-ordered planner joins the
	// store-B pattern first and y's row binding carries store B's index —
	// and "target" lands at a high index whose flag property is the one
	// the postfilter must see.
	ba := graph.NewBuilder()
	for i := 0; i < 50; i++ {
		ba.Node(fmt.Sprintf("fillerA%d", i), []string{"Hub"}, "flag", "no")
	}
	ba.Node("target", []string{"Mid"}, "flag", "yes")
	ba.Node("endA", []string{"Plain"})
	for i := 0; i < 50; i++ {
		ba.Edge(fmt.Sprintf("ea%d", i), fmt.Sprintf("fillerA%d", i), "target", []string{"E"})
	}
	ga := ba.MustBuild()

	// Store B: "target" is its very first node (index 0), with a
	// conflicting flag value that must NOT win.
	bb := graph.NewBuilder()
	bb.Node("target", []string{"Sel"}, "flag", "no")
	bb.Node("endB", []string{"Plain"})
	bb.Edge("eb", "target", "endB", []string{"F"})
	gb := bb.MustBuild()

	p := compile(t, `MATCH (x:Hub)-[e1:E]->(y:Mid), (y)-[e2:F]->(z:Plain) WHERE y.flag='yes'`, plan.Options{})
	stores := []graph.Store{ga, gb}
	res, err := EvalPlanOn(stores, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("got %d rows, want 50 (y.flag must resolve against store A)", len(res.Rows))
	}
	y, _ := res.Rows[0].Get("y")
	if string(y.Node) != "target" {
		t.Fatalf("y = %q, want target", y.Node)
	}
	if got, want := formatRows(t, res), formatRows(t, classicJoin(t, stores, p, Config{})); got != want {
		t.Fatalf("bind-join and classic rows diverge:\n%s\n--- vs ---\n%s", got, want)
	}
}
