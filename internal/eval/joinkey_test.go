package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Key-encoding battery for the dedup and join keys: the compact binary
// forms (varint-packed dedup keys, fixed-width index join components) and,
// for dedup, the canonical textual key the sort orders by. The adversarial
// ids below — NUL bytes, kind-tag prefixes, shared prefixes, digit
// prefixes, the literal unbound marker — were chosen to break naive
// concatenation encodings; the differential fuzz proves the compact keys
// introduce no collisions (and lose none): two binding tuples share a
// join key exactly when they bind the same elements.

// adversarialIDs is the id alphabet; every one is a node in keyGraph.
var adversarialIDs = []string{
	"a", "a\x00nb", "b\x00nc", "c", "n", "e", "?", "", "1n", "1", "nz",
	"ab", "abc", "0n?", "\x00", "n\x00",
}

// keyGraph builds a store whose node set is the adversarial alphabet
// (plus a few edges so edge components can be exercised too).
func keyGraph(t testing.TB) *graph.CSR {
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
	return graph.Snapshot(g)
}

func solutionOf(t testing.TB, s *graph.CSR, vars map[string]string) *binding.Reduced {
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

// rowOf builds a one-pattern row binding vars, from its one solution and
// a variable table that declares each variable a node of pattern 0.
func rowOf(t testing.TB, s *graph.CSR, vars map[string]string) *Row {
	t.Helper()
	table := map[string]*plan.VarInfo{}
	for v := range vars {
		table[v] = &plan.VarInfo{Name: v, Kind: plan.VarNode, Patterns: []int{0}}
	}
	return &Row{Bindings: []*binding.Reduced{solutionOf(t, s, vars)}, table: table}
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
			solKey := string(appendJoinKeyOfSolution(nil, solutionOf(t, g, tc.a), shared))
			rowKey := string(appendJoinKeyOfRow(nil, rowOf(t, g, tc.b), shared))
			if solKey == rowKey {
				t.Errorf("distinct binding tuples %v and %v encode to the same key %q", tc.a, tc.b, solKey)
			}
			// Sanity: equal tuples must still collide on purpose.
			same := string(appendJoinKeyOfRow(nil, rowOf(t, g, tc.a), shared))
			if string(appendJoinKeyOfSolution(nil, solutionOf(t, g, tc.a), shared)) != same {
				t.Errorf("equal binding tuple %v encodes differently on the two join sides", tc.a)
			}
		})
	}
}

// TestJoinKeyUnboundDistinct pins the unbound marker: a conditional
// singleton left unbound must not collide with any bound element,
// including ids chosen to mimic a textual marker.
func TestJoinKeyUnboundDistinct(t *testing.T) {
	g := keyGraph(t)
	shared := []string{"x"}
	unbound := string(appendJoinKeyOfSolution(nil, &binding.Reduced{Src: g}, shared))
	for _, id := range []string{"?", "", "0n?"} {
		if bound := string(appendJoinKeyOfSolution(nil, solutionOf(t, g, map[string]string{"x": id}), shared)); bound == unbound {
			t.Errorf("bound id %q collides with the unbound marker %q", id, unbound)
		}
	}
}

// TestJoinKeyDifferentialFuzz is the adversarial differential suite: over
// random binding tuples drawn from the adversarial alphabet, the join keys
// must induce exactly the equivalence of the tuples themselves — no
// collision between distinct tuples and no split of equal ones, whichever
// join side built each key.
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
		key   string
	}
	var all []keyed
	for i := 0; i < 400; i++ {
		tuple := randTuple()
		var key string
		if i%2 == 0 { // alternate sides so sol/sol, sol/row and row/row pairs occur
			key = string(appendJoinKeyOfSolution(nil, solutionOf(t, g, tuple), shared))
		} else {
			key = string(appendJoinKeyOfRow(nil, rowOf(t, g, tuple), shared))
		}
		all = append(all, keyed{tuple, key})
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if keyEq, tupleEq := all[i].key == all[j].key, reflect.DeepEqual(all[i].tuple, all[j].tuple); keyEq != tupleEq {
				t.Fatalf("join key equality %v disagrees with tuple equality %v on %v vs %v",
					keyEq, tupleEq, all[i].tuple, all[j].tuple)
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
// whose element ids are built from NUL bytes and kind-tag characters,
// against the classic oracle: the equi-join on x and y must produce
// exactly the rows where both endpoints truly coincide.
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
	res, err := EvalPlan(g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for side, r := range map[string]*Result{"bind-join": res, "classic": classicJoin(t, g, p, Config{})} {
		if len(r.Rows) != 1 {
			t.Fatalf("%s: got %d rows, want 1", side, len(r.Rows))
		}
		x, _ := r.Rows[0].Get("x")
		y, _ := r.Rows[0].Get("y")
		if string(x.Node) != "a" || string(y.Node) != "c" {
			t.Fatalf("%s: joined (%q, %q), want (a, c)", side, x.Node, y.Node)
		}
	}
}
