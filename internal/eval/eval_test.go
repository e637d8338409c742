package eval

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
)

// compile builds a plan for one query.
func compile(t *testing.T, src string, opts plan.Options) *plan.Plan {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	p, err := plan.Analyze(norm, opts)
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return p
}

func evalQuery(t *testing.T, g *graph.Graph, src string) *Result {
	t.Helper()
	p := compile(t, src, plan.Options{})
	res, err := EvalPlan(g, p, Config{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return res
}

func patternBindings(t *testing.T, g *graph.Graph, src string) []*binding.Reduced {
	t.Helper()
	p := compile(t, src, plan.Options{})
	if len(p.Paths) != 1 {
		t.Fatalf("want single path pattern")
	}
	rs, err := MatchPattern(g, p.Paths[0], Config{})
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	return rs
}

// Oracle: single-edge traversal semantics for each of the seven
// orientations, checked against a direct computation over the graph.
func TestOrientationOracle(t *testing.T) {
	g := dataset.Fig1()
	type traversal struct{ x, e, y string }
	oracle := func(o ast.Orientation) []traversal {
		var out []traversal
		g.Nodes(func(n *graph.Node) bool {
			g.Incident(n.ID, func(e *graph.Edge) bool {
				if e.Direction == graph.Directed {
					if e.Source == n.ID && o.AllowsRight() {
						out = append(out, traversal{string(n.ID), string(e.ID), string(e.Target)})
					}
					if e.Target == n.ID && o.AllowsLeft() {
						out = append(out, traversal{string(n.ID), string(e.ID), string(e.Source)})
					}
				} else if o.AllowsUndirected() {
					out = append(out, traversal{string(n.ID), string(e.ID), string(e.Other(n.ID))})
				}
				return true
			})
			return true
		})
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			return a.x+a.e+a.y < b.x+b.e+b.y
		})
		return out
	}
	patterns := map[ast.Orientation]string{
		ast.Left:           `MATCH (x)<-[e]-(y)`,
		ast.UndirectedEdge: `MATCH (x)~[e]~(y)`,
		ast.Right:          `MATCH (x)-[e]->(y)`,
		ast.LeftOrUndir:    `MATCH (x)<~[e]~(y)`,
		ast.UndirOrRight:   `MATCH (x)~[e]~>(y)`,
		ast.LeftOrRight:    `MATCH (x)<-[e]->(y)`,
		ast.AnyOrientation: `MATCH (x)-[e]-(y)`,
	}
	for o, src := range patterns {
		res := evalQuery(t, g, src)
		var got []traversal
		for _, row := range res.Rows {
			x, _ := row.Get("x")
			e, _ := row.Get("e")
			y, _ := row.Get("y")
			got = append(got, traversal{string(x.Node), string(e.Edge), string(y.Node)})
		}
		sort.Slice(got, func(i, j int) bool {
			a, b := got[i], got[j]
			return a.x+a.e+a.y < b.x+b.e+b.y
		})
		// Note: for Left patterns the oracle's "x" is the node the edge
		// points away from when traversing; the engine binds x as the
		// pattern's left node. Both enumerate traversals (position, edge,
		// target), so the sets must agree exactly.
		want := oracle(o)
		if len(got) != len(want) {
			t.Errorf("%v: %d traversals, oracle %d", o, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v: traversal %d: got %+v want %+v", o, i, got[i], want[i])
				break
			}
		}
	}
}

// All restrictor outputs satisfy the corresponding path predicate, and are
// exactly the brute-force-filtered walk sets.
func TestRestrictorInvariants(t *testing.T) {
	g := dataset.Cycle(5)
	for _, tc := range []struct {
		restr string
		check func(graph.Path) bool
	}{
		{"TRAIL", graph.Path.IsTrail},
		{"ACYCLIC", graph.Path.IsAcyclic},
		{"SIMPLE", graph.Path.IsSimple},
	} {
		src := fmt.Sprintf(`MATCH %s p = (a)-[e:Transfer]->*(b)`, tc.restr)
		res := evalQuery(t, g, src)
		for _, row := range res.Rows {
			pb, _ := row.Get("p")
			if !tc.check(pb.Path) {
				t.Errorf("%s produced violating path %s", tc.restr, pb.Path)
			}
			if err := pb.Path.ValidIn(g); err != nil {
				t.Errorf("%s produced structurally invalid path: %v", tc.restr, err)
			}
		}
	}
}

// On a directed n-cycle the restrictor outputs have closed forms:
// TRAIL/SIMPLE walks from each start: lengths 0..n (wrapping once back to
// the start allowed); ACYCLIC: lengths 0..n-1.
func TestRestrictorCountsOnCycle(t *testing.T) {
	const n = 6
	g := dataset.Cycle(n)
	count := func(src string) int {
		return len(evalQuery(t, g, src).Rows)
	}
	// Each start node yields walks of length 0..n-1 acyclically.
	if got := count(`MATCH ACYCLIC (a)-[e:Transfer]->*(b)`); got != n*n {
		t.Errorf("ACYCLIC on C%d: got %d, want %d", n, got, n*n)
	}
	// TRAIL and SIMPLE additionally allow the full cycle (length n).
	if got := count(`MATCH TRAIL (a)-[e:Transfer]->*(b)`); got != n*n+n {
		t.Errorf("TRAIL on C%d: got %d, want %d", n, got, n*n+n)
	}
	if got := count(`MATCH SIMPLE (a)-[e:Transfer]->*(b)`); got != n*n+n {
		t.Errorf("SIMPLE on C%d: got %d, want %d", n, got, n*n+n)
	}
}

// DFS and BFS modes agree wherever both apply: a bounded quantifier with a
// selector evaluates by DFS; the same pattern with an unbounded quantifier
// on an acyclic graph has identical matches.
func TestDFSBFSEquivalenceOnChain(t *testing.T) {
	g := dataset.Chain(8) // acyclic: bounded {1,7} ≡ unbounded *
	dfsRes := patternBindings(t, g, `MATCH ALL SHORTEST TRAIL (a)-[e:Transfer]->{1,7}(b)`)
	bfsRes := patternBindings(t, g, `MATCH ALL SHORTEST (a)-[e:Transfer]->+(b)`)
	key := func(rs []*binding.Reduced) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = strings.Join(r.ValueRow(), " ")
		}
		sort.Strings(out)
		return out
	}
	a, b := key(dfsRes), key(bfsRes)
	if len(a) != len(b) {
		t.Fatalf("DFS %d vs BFS %d matches", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d: DFS %q vs BFS %q", i, a[i], b[i])
		}
	}
}

// ALL SHORTEST on a grid returns exactly the binomial number of shortest
// corner-to-corner paths.
func TestAllShortestGridCount(t *testing.T) {
	g := dataset.Grid(4, 4)
	res := evalQuery(t, g, `
		MATCH ALL SHORTEST p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
		      (b WHERE b.owner='u3_3')`)
	// C(6,3) = 20 shortest paths of length 6.
	if len(res.Rows) != 20 {
		t.Fatalf("ALL SHORTEST on 4x4 grid: got %d, want 20", len(res.Rows))
	}
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		if p.Path.Len() != 6 {
			t.Errorf("non-shortest path %s", p.Path)
		}
	}
}

// ANY SHORTEST returns exactly one shortest path per endpoint pair;
// SHORTEST k returns min(k, available); SHORTEST k GROUP keeps whole
// length groups.
func TestSelectorFamilies(t *testing.T) {
	g := dataset.Cycle(5)
	anyShortest := evalQuery(t, g, `MATCH ANY SHORTEST p = (a)-[e:Transfer]->+(b)`)
	// Partitions: every ordered pair (a,b) including a==b via the full
	// cycle: 5 starts × 5 ends = 25 partitions, one row each.
	if len(anyShortest.Rows) != 25 {
		t.Errorf("ANY SHORTEST on C5: got %d rows, want 25", len(anyShortest.Rows))
	}
	for _, row := range anyShortest.Rows {
		p, _ := row.Get("p")
		// On a cycle the shortest a→b walk has length (b-a) mod 5, in 1..5.
		if p.Path.Len() < 1 || p.Path.Len() > 5 {
			t.Errorf("suspicious shortest length %d", p.Path.Len())
		}
	}

	// SHORTEST 2: the two shortest walks per pair have lengths d and d+5.
	shortest2 := evalQuery(t, g, `MATCH SHORTEST 2 p = (a)-[e:Transfer]->+(b)`)
	if len(shortest2.Rows) != 50 {
		t.Errorf("SHORTEST 2 on C5: got %d rows, want 50", len(shortest2.Rows))
	}
	perPair := map[string][]int{}
	for _, row := range shortest2.Rows {
		p, _ := row.Get("p")
		k := string(p.Path.First()) + "→" + string(p.Path.Last())
		perPair[k] = append(perPair[k], p.Path.Len())
	}
	for k, lens := range perPair {
		sort.Ints(lens)
		if len(lens) != 2 || lens[1]-lens[0] != 5 {
			t.Errorf("pair %s: lengths %v, want d and d+5", k, lens)
		}
	}

	// On a cycle every length group has exactly one path, so SHORTEST 2
	// GROUP equals SHORTEST 2 here.
	group2 := evalQuery(t, g, `MATCH SHORTEST 2 GROUP p = (a)-[e:Transfer]->+(b)`)
	if len(group2.Rows) != 50 {
		t.Errorf("SHORTEST 2 GROUP on C5: got %d rows, want 50", len(group2.Rows))
	}

	// ANY k.
	any3 := evalQuery(t, g, `MATCH ANY 3 p = (a)-[e:Transfer]->+(b)`)
	if len(any3.Rows) != 75 {
		t.Errorf("ANY 3 on C5: got %d rows, want 75", len(any3.Rows))
	}
}

// SHORTEST k GROUP keeps all paths of a tied length group (grid: the
// second group on a 2x3 grid).
func TestShortestKGroupTies(t *testing.T) {
	g := dataset.Grid(2, 2)
	res := evalQuery(t, g, `
		MATCH SHORTEST 1 GROUP p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
		      (b WHERE b.owner='u1_1')`)
	// Both length-2 corner paths are in the first group.
	if len(res.Rows) != 2 {
		t.Errorf("SHORTEST 1 GROUP on 2x2 grid: got %d rows, want 2 (tied group)", len(res.Rows))
	}
}

// The limits abort pathological searches with a descriptive error.
func TestLimits(t *testing.T) {
	g := dataset.Cycle(4)
	p := compile(t, `MATCH TRAIL (a)-[e:Transfer]->*(b)`, plan.Options{})
	_, err := EvalPlan(g, p, Config{Limits: Limits{MaxMatches: 3}})
	if err == nil {
		t.Fatalf("expected match-count limit error")
	}
	le, ok := err.(*LimitError)
	if !ok || le.Limit != 3 {
		t.Errorf("error: %v", err)
	}
	_, err = EvalPlan(g, p, Config{Limits: Limits{MaxDepth: 2}})
	if err == nil {
		t.Fatalf("expected depth limit error")
	}
	// BFS thread limit.
	p = compile(t, `MATCH ALL SHORTEST (a)-[e:Transfer]->*(b)`, plan.Options{})
	_, err = EvalPlan(g, p, Config{Limits: Limits{MaxThreads: 2}})
	if err == nil {
		t.Fatalf("expected thread limit error")
	}
}

// Zero-width quantifier bodies terminate (the empty-iteration guard).
func TestZeroWidthQuantifier(t *testing.T) {
	g := dataset.Chain(3)
	res := evalQuery(t, g, `MATCH (x:Account) [(y:Account)]{0,5} (z:Account)`)
	// Each node matches; the zero-width loop must not spin. x==y==z when
	// iterated; x==z always (same position).
	if len(res.Rows) == 0 {
		t.Fatalf("zero-width quantifier produced no matches")
	}
	for _, row := range res.Rows {
		x, _ := row.Get("x")
		z, _ := row.Get("z")
		if x.Node != z.Node {
			t.Errorf("zero-width pattern must stay in place: %v vs %v", x.Node, z.Node)
		}
	}
}

// Question-mark skip keeps later pattern parts anchored at the position.
func TestQuestionMarkPositioning(t *testing.T) {
	g := dataset.Chain(4)
	res := evalQuery(t, g, `MATCH (x:Account) [-[e:Transfer]->(m)]? -[f:Transfer]->(y)`)
	// Either x-f->y directly (3 edges × each), or x-e->m-f->y (2 chains).
	if len(res.Rows) != 5 {
		t.Errorf("optional leg: got %d rows, want 5", len(res.Rows))
	}
}

// A directed self-loop is traversed once even where the orientation
// admits both directions: the two traversals would bind the same entries,
// so the engines take one and the pattern stays duplicate-free.
func TestSelfLoopDedup(t *testing.T) {
	b := graph.NewBuilder().
		Node("n", []string{"X"}).
		Edge("loop", "n", "n", []string{"L"})
	g := b.MustBuild()
	for _, src := range []string{`MATCH (x)<-[e]->(y)`, `MATCH (x)-[e]-(y)`} {
		if res := evalQuery(t, g, src); len(res.Rows) != 1 {
			t.Errorf("directed self-loop, %s: got %d rows, want 1", src, len(res.Rows))
		}
		raw, err := Enumerate(g, compile(t, src, plan.Options{}).Paths[0], Config{})
		if err != nil || len(raw) != 1 {
			t.Errorf("directed self-loop, %s: %d raw matches (%v), want 1", src, len(raw), err)
		}
	}
}

// Undirected self-loops traverse once.
func TestUndirectedSelfLoop(t *testing.T) {
	b := graph.NewBuilder().
		Node("n", []string{"X"}).
		UndirectedEdge("loop", "n", "n", []string{"L"})
	g := b.MustBuild()
	res := evalQuery(t, g, `MATCH (x)~[e]~(y)`)
	if len(res.Rows) != 1 {
		t.Errorf("undirected self-loop: got %d rows, want 1", len(res.Rows))
	}
}

// SIMPLE restrictor on a closed pattern: first==last allowed, interior
// revisits pruned.
func TestSimpleRestrictorClosure(t *testing.T) {
	g := dataset.Cycle(4)
	res := evalQuery(t, g, `MATCH SIMPLE p = (a)-[e:Transfer]->{4,}(a)`)
	// Only the full cycles close simply: 4 rotations; longer multiples
	// repeat interior nodes.
	if len(res.Rows) != 4 {
		t.Errorf("SIMPLE closed cycles: got %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		if p.Path.Len() != 4 || !p.Path.IsSimple() {
			t.Errorf("bad simple cycle %s", p.Path)
		}
	}
}

// Prefilter WHERE inside a paren sees iteration-local bindings (§4.4) and
// outer singletons.
func TestParenWhereScoping(t *testing.T) {
	g := dataset.Fig1()
	res := evalQuery(t, g, `
		MATCH (a:Account WHERE a.owner='Dave')
		      [(x)-[e:Transfer]->(y) WHERE x.isBlocked='no']{1,3}
		      (b:Account WHERE b.owner='Jay')`)
	// Chains Dave→Jay of ≤3 hops avoiding blocked intermediates as
	// sources: a6-t5->a3-t2->a2-t3->a4.
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
}

// Group aggregation in postfilters spans the whole accumulated list even
// across a selector (effectively bounded, §5.3).
func TestPostfilterAggregateAfterSelector(t *testing.T) {
	g := dataset.Chain(6)
	res := evalQuery(t, g, `
		MATCH ANY SHORTEST (a WHERE a.owner='owner0')-[e:Transfer]->+
		      (b WHERE b.owner='owner5')
		WHERE COUNT(e) = 5`)
	if len(res.Rows) != 1 {
		t.Errorf("postfilter COUNT over selector output: got %d rows", len(res.Rows))
	}
	res = evalQuery(t, g, `
		MATCH ANY SHORTEST (a WHERE a.owner='owner0')-[e:Transfer]->+
		      (b WHERE b.owner='owner5')
		WHERE COUNT(e) = 4`)
	if len(res.Rows) != 0 {
		t.Errorf("shortest chain has 5 edges; COUNT(e)=4 must filter it out")
	}
}

// Rows expose their variables and bindings.
func TestRowAccessors(t *testing.T) {
	g := dataset.Fig1()
	res := evalQuery(t, g, `MATCH p = (x:Account WHERE x.owner='Jay')-[e:Transfer]->(y)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	row := res.Rows[0]
	vars := row.Vars()
	if strings.Join(vars, ",") != "e,p,x,y" {
		t.Errorf("vars: %v", vars)
	}
	if b, ok := row.Get("p"); !ok || b.Kind != BoundPath || b.Path.String() != "path(a4,t4,a6)" {
		t.Errorf("path binding: %+v", b)
	}
	if b, ok := row.Get("e"); !ok || b.String() != "t4" {
		t.Errorf("edge binding: %+v", b)
	}
	if _, ok := row.Get("nope"); ok {
		t.Errorf("missing var must be !ok")
	}
	if got := string(row.AppendCell(nil, "nope")); got != "NULL" {
		t.Errorf("missing var renders %q, want NULL", got)
	}
	if res.Columns[0] != "p" {
		t.Errorf("columns: %v", res.Columns)
	}
	// Anonymous variables are the plan's, not the row's.
	row = evalQuery(t, g, `MATCH (x:Account WHERE x.owner='Jay')-[]->()`).Rows[0]
	if vars := row.Vars(); strings.Join(vars, ",") != "x" {
		t.Errorf("vars with anonymous elements: %v", vars)
	}
	for _, anon := range []string{ast.AnonNodeVar(0), ast.AnonNodeVar(1), ast.AnonEdgeVar(0)} {
		if _, ok := row.Get(anon); ok {
			t.Errorf("anonymous %s must be !ok", anon)
		}
	}
}

// Bound.String renders every kind. Group bindings materialize through the
// row's pinned view, so the case builds one.
func TestBoundString(t *testing.T) {
	g := graph.New()
	if err := g.AddNode("a1", nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.EdgeID{"t1", "t2"} {
		if err := g.AddEdge(e, "a1", "a1", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		b    Bound
		want string
	}{
		{Bound{Kind: BoundNull}, "NULL"},
		{Bound{Kind: BoundNode, Node: "a1"}, "a1"},
		{Bound{Kind: BoundEdge, Edge: "t1"}, "t1"},
		{Bound{Kind: BoundGroup, Group: []binding.Ref{{Kind: binding.EdgeElem, Idx: 0}, {Kind: binding.EdgeElem, Idx: 1}}, src: graph.Snapshot(g)}, "[t1,t2]"},
		{Bound{Kind: BoundPath, Path: graph.Path{Nodes: []graph.NodeID{"a"}}}, "path(a)"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("Bound.String() = %q, want %q", got, c.want)
		}
	}
}

// TestConfigHasNoHatches pins Config's field set. Evaluation has one
// pipeline and engineFor picks the engine from the plan alone, so nothing
// in Config selects a code path; adding a field is a deliberate edit of
// this list.
func TestConfigHasNoHatches(t *testing.T) {
	want := []string{"Limits", "EdgeIsomorphic", "Limit", "Params"}
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("eval.Config fields = %v, want %v", got, want)
	}
}

// A zero-width iteration below the quantifier minimum repeats in place
// until the minimum is met, under every selector and so on every engine:
// {2,2}, {2,3} and {2,} all match Scott's account once, with x bound
// twice to it (a {2,2} match is also a {2,3} and a {2,} match).
func TestZeroWidthMinimumAgreesAcrossSelectors(t *testing.T) {
	g := dataset.Fig1()
	for _, sel := range []string{"", "TRAIL", "ANY", "ANY SHORTEST", "ALL SHORTEST", "ANY 2", "SHORTEST 2", "SHORTEST 2 GROUP"} {
		for _, q := range []string{"{2,2}", "{2,3}", "{2,}"} {
			if sel == "" && q == "{2,}" {
				continue // unbounded needs a selector or restrictor
			}
			src := `MATCH ` + sel + ` (a WHERE a.owner='Scott')[(x)]` + q + `(b)`
			var got []string
			for _, row := range evalQuery(t, g, src).Rows {
				var cells []string
				for _, v := range []string{"a", "x", "b"} {
					b, _ := row.Get(v)
					cells = append(cells, b.String())
				}
				got = append(got, strings.Join(cells, " | "))
			}
			if want := "a1 | [a1,a1] | a1"; len(got) != 1 || got[0] != want {
				t.Errorf("%s: got %q, want one row %q", src, got, want)
			}
		}
	}
}
