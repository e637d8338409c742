package gpml_test

import (
	"sort"
	"strings"
	"testing"

	"gpml"
)

func TestQuickstartFlow(t *testing.T) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='no')`)
	res, err := q.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("unblocked accounts: %d", len(res.Rows))
	}
	if cols := q.Columns(); len(cols) != 1 || cols[0] != "x" {
		t.Errorf("columns: %v", cols)
	}
	if q.Source() == "" || !strings.Contains(q.Normalized(), "Account") {
		t.Errorf("introspection accessors broken")
	}
}

func TestBuilderAPI(t *testing.T) {
	g, err := gpml.NewBuilder().
		Node("u1", []string{"User"}, "name", "ada").
		Node("u2", []string{"User"}, "name", "bob").
		Edge("f1", "u1", "u2", []string{"follows"}, "since", 2021).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpml.Match(g, `MATCH (a:User)-[f:follows WHERE f.since >= 2021]->(b:User)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	a, _ := res.Rows[0].Get("a")
	if a.Kind != gpml.BoundNode || a.Node != "u1" {
		t.Errorf("binding: %+v", a)
	}
}

func TestValueConstructors(t *testing.T) {
	g := gpml.NewGraph()
	if err := g.AddNode("n", nil, map[string]gpml.Value{
		"s": gpml.Str("x"), "i": gpml.Int(1), "f": gpml.Float(1.5),
		"b": gpml.Bool(true), "n": gpml.Null,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := gpml.Match(g, `MATCH (v WHERE v.i = 1 AND v.n IS NULL AND v.b)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows: %d", len(res.Rows))
	}
}

func TestGQLModeOption(t *testing.T) {
	const q = `MATCH (a)-[:Transfer]->(b)-[:Transfer]->(c)-[:Transfer]->(d) WHERE a = d`
	if _, err := gpml.Compile(q); err == nil {
		t.Fatalf("default (PGQ) mode must reject element equality")
	}
	cq, err := gpml.Compile(q, gpml.GQLMode())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cq.Eval(gpml.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("triangles: %d", len(res.Rows))
	}
}

func TestWithLimits(t *testing.T) {
	q := gpml.MustCompile(`MATCH TRAIL p = (a)-[e:Transfer]->*(b)`,
		gpml.WithLimits(gpml.Limits{MaxMatches: 2}))
	if _, err := q.Eval(gpml.Fig1()); err == nil {
		t.Fatalf("limit must trip")
	}
	// Per-eval override.
	q2 := gpml.MustCompile(`MATCH (x:Account)`)
	if _, err := q2.Eval(gpml.Fig1(), gpml.WithLimits(gpml.Limits{MaxMatches: 100})); err != nil {
		t.Fatal(err)
	}
}

// EdgeIsomorphic drops exactly the rows whose patterns reuse an edge:
// two Transfer patterns keep every ordered pair of distinct transfers.
func TestEdgeIsomorphicOption(t *testing.T) {
	const src = `MATCH (a)-[e:Transfer]->(b), (c)-[f:Transfer]->(d)`
	all, err := gpml.MustCompile(src).Eval(gpml.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	iso, err := gpml.MustCompile(src, gpml.EdgeIsomorphic()).Eval(gpml.Fig1())
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(res *gpml.Result) (distinct, reused []string) {
		for _, row := range res.Rows {
			e, _ := row.Get("e")
			f, _ := row.Get("f")
			if pair := string(e.Edge) + "," + string(f.Edge); e.Edge == f.Edge {
				reused = append(reused, pair)
			} else {
				distinct = append(distinct, pair)
			}
		}
		return distinct, reused
	}
	wantKept, dropped := pairs(all)
	gotKept, reused := pairs(iso)
	if len(dropped) == 0 || len(wantKept) == 0 {
		t.Fatalf("fixture: %d distinct and %d reusing rows, want both", len(wantKept), len(dropped))
	}
	if len(reused) != 0 {
		t.Errorf("EdgeIsomorphic kept rows that reuse an edge: %v", reused)
	}
	if strings.Join(gotKept, " ") != strings.Join(wantKept, " ") {
		t.Errorf("EdgeIsomorphic kept %v, want the distinct-edge rows %v", gotKept, wantKept)
	}
}

func TestGraphTableFacade(t *testing.T) {
	cols, err := gpml.ParseColumns("x.owner AS A, y.owner AS B")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := gpml.GraphTable(gpml.Fig1(), `
		MATCH (x:Account)-[:isLocatedIn]->(g:City)<-[:isLocatedIn]-(y:Account),
		      TRAIL (x)-[e:Transfer]->+(y)
		WHERE x.isBlocked='no' AND y.isBlocked='yes' AND g.name='Ankh-Morpork'`, cols)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for r := 0; r < tbl.NumRows(); r++ {
		a, _ := tbl.Get(r, "A")
		b, _ := tbl.Get(r, "B")
		pairs = append(pairs, a.Display()+"→"+b.Display())
	}
	sort.Strings(pairs)
	uniq := map[string]bool{}
	for _, p := range pairs {
		uniq[p] = true
	}
	if !uniq["Aretha→Jay"] || !uniq["Dave→Jay"] || len(uniq) != 2 {
		t.Errorf("fig4 pairs: %v", pairs)
	}
}

func TestTabularFacade(t *testing.T) {
	tables := gpml.Tabular(gpml.Fig1())
	found := false
	for _, tbl := range tables {
		if tbl.Name == "CityCountry" {
			found = true
		}
	}
	if !found {
		t.Errorf("Figure 2 CityCountry relation missing")
	}
}

func TestGQLSessionFacade(t *testing.T) {
	cat := gpml.NewCatalog()
	if err := cat.Register("bank", gpml.Fig1()); err != nil {
		t.Fatal(err)
	}
	s := gpml.NewSession(cat)
	if err := s.Use("bank"); err != nil {
		t.Fatal(err)
	}
	view, err := s.MatchGraph(`MATCH (x:Account WHERE x.owner='Jay')-[e:Transfer]->(y)`)
	if err != nil {
		t.Fatal(err)
	}
	if view.Graph.NumEdges() != 1 {
		t.Errorf("graph view edges: %d", view.Graph.NumEdges())
	}
}

func TestBuildGraphViewFacade(t *testing.T) {
	g := gpml.Fig1()
	res, err := gpml.Match(g, `MATCH (p:Phone)~[h:hasPhone]~(a:Account WHERE a.owner='Scott')`)
	if err != nil {
		t.Fatal(err)
	}
	view, err := gpml.BuildGraphView(g, res)
	if err != nil {
		t.Fatal(err)
	}
	// Scott (a1) carries phone p1 (edge hp1).
	if view.Graph.NumNodes() != 2 || view.Graph.NumEdges() != 1 {
		t.Errorf("view: %s", view.Graph.Stats())
	}
	if view.Graph.Node("p1") == nil || view.Graph.Edge("hp1") == nil {
		t.Errorf("view must contain p1 and hp1: %s", view.Graph.Stats())
	}

	// Figure 9: one pattern, both host outputs. The seven transfers above
	// 5M are seven GRAPH_TABLE rows and the seven edges of the GQL view.
	const big = `MATCH (x:Account)-[e:Transfer WHERE e.amount>5M]->(y:Account)`
	cols, err := gpml.ParseColumns("x.owner AS A, y.owner AS B")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := gpml.GraphTable(g, big, cols)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = gpml.Match(g, big); err != nil {
		t.Fatal(err)
	}
	if view, err = gpml.BuildGraphView(g, res); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 7 || view.Graph.NumEdges() != 7 {
		t.Errorf("Figure 9: table %d rows, view %s; want 7 rows and 7 edges", tbl.NumRows(), view.Graph.Stats())
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	for _, src := range []string{
		`not gpml`,
		`MATCH (a)-[e]->*(b)`,                  // §5 termination
		`MATCH [(x)->(y)]|[(x)->(z)], (y)->()`, // §4.6
	} {
		if _, err := gpml.Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustCompile must panic on bad input")
		}
	}()
	gpml.MustCompile(`broken`)
}

func TestPathsInResults(t *testing.T) {
	res, err := gpml.Match(gpml.Fig1(), `
		MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[e:Transfer]->+
		      (b WHERE b.owner='Aretha')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	p, _ := res.Rows[0].Get("p")
	if p.Kind != gpml.BoundPath || p.Path.String() != "path(a6,t5,a3,t2,a2)" {
		t.Errorf("path: %v", p)
	}
}

// TestExplainJoinPlan pins the public Explain surface of the bind-join
// planner: multi-pattern statements report the cost-ordered join steps,
// and a store passed through WithStore feeds real cardinality statistics
// into the ranking.
func TestExplainJoinPlan(t *testing.T) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`
		MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->(c:City),
		      (x)-[t:Transfer]->(y:Account)`)
	lines := q.Explain(gpml.WithStore(g))
	if len(lines) != 5 {
		t.Fatalf("want 2 pattern + 1 stats + 2 join lines, got %d: %v", len(lines), lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "join stats: nodes=14 edges=22") {
		t.Errorf("missing stats line:\n%s", joined)
	}
	if !strings.Contains(joined, "join step 0: pattern 0 scan") {
		t.Errorf("missing scan step:\n%s", joined)
	}
	if !strings.Contains(joined, "join step 1: pattern 1 bind-join seed=x") {
		t.Errorf("missing bind-join step:\n%s", joined)
	}
	// Single-pattern statements have no join plan.
	single := gpml.MustCompile(`MATCH (x:Account)`).Explain()
	if len(single) != 1 {
		t.Errorf("single pattern should explain in one line, got %v", single)
	}
}
