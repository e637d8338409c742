package core_test

import (
	"sort"
	"testing"

	"gpml/internal/core"
	"gpml/internal/dataset"
	"gpml/internal/eval"
	"gpml/internal/graph"
)

// evalPaths compiles and evaluates a query on the Fig 1 graph, returning
// the matched paths of the path variable p as strings.
func evalPaths(t *testing.T, src string) []string {
	t.Helper()
	q, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := eval.EvalPlan(dataset.Fig1(), q.Plan, eval.Config{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	var out []string
	for _, row := range res.Rows {
		b, ok := row.Get("p")
		if !ok {
			t.Fatalf("row has no binding for p")
		}
		if b.Kind != eval.BoundPath {
			t.Fatalf("p is not a path: %v", b)
		}
		out = append(out, b.Path.String())
	}
	sort.Strings(out)
	return out
}

func sorted(ss ...string) []string {
	sort.Strings(ss)
	return ss
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// §5.1: the TRAIL query from Dave to Aretha returns exactly the three
// listed trails.
func TestSection51_TrailDaveToAretha(t *testing.T) {
	got := evalPaths(t, `
		MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		          (b WHERE b.owner='Aretha')`)
	want := sorted(
		"path(a6,t5,a3,t2,a2)",
		"path(a6,t6,a5,t8,a1,t1,a3,t2,a2)",
		"path(a6,t5,a3,t7,a5,t8,a1,t1,a3,t2,a2)",
	)
	if !equalStrings(got, want) {
		t.Errorf("TRAIL Dave→Aretha:\n got  %v\n want %v", got, want)
	}
}

// §5.1: ACYCLIC forbids the third trail (node a3 repeats).
func TestSection51_AcyclicDaveToAretha(t *testing.T) {
	got := evalPaths(t, `
		MATCH ACYCLIC p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		          (b WHERE b.owner='Aretha')`)
	want := sorted(
		"path(a6,t5,a3,t2,a2)",
		"path(a6,t6,a5,t8,a1,t1,a3,t2,a2)",
	)
	if !equalStrings(got, want) {
		t.Errorf("ACYCLIC Dave→Aretha:\n got  %v\n want %v", got, want)
	}
}

// §5.1: ANY SHORTEST keeps only path(a6,t5,a3,t2,a2).
func TestSection51_AnyShortestDaveToAretha(t *testing.T) {
	got := evalPaths(t, `
		MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		          (b WHERE b.owner='Aretha')`)
	want := []string{"path(a6,t5,a3,t2,a2)"}
	if !equalStrings(got, want) {
		t.Errorf("ANY SHORTEST Dave→Aretha:\n got  %v\n want %v", got, want)
	}
}

// §5.1: ALL SHORTEST TRAIL from Dave through Aretha to Mike returns the two
// listed trails of length 7, and not the shorter non-trail.
func TestSection51_AllShortestTrailDaveArethaMike(t *testing.T) {
	got := evalPaths(t, `
		MATCH ALL SHORTEST TRAIL
		p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		    (b WHERE b.owner='Aretha')-[r:Transfer]->*(c WHERE c.owner='Mike')`)
	want := sorted(
		"path(a6,t5,a3,t2,a2,t3,a4,t4,a6,t6,a5,t8,a1,t1,a3)",
		"path(a6,t6,a5,t8,a1,t1,a3,t2,a2,t3,a4,t4,a6,t5,a3)",
	)
	if !equalStrings(got, want) {
		t.Errorf("ALL SHORTEST TRAIL Dave→Aretha→Mike:\n got  %v\n want %v", got, want)
	}
}

// §5: without restrictor or selector the unbounded query must be rejected
// at compile time. §5.3: so must an aggregate prefilter over an
// effectively unbounded group, while its postfilter and TRAIL-bounded
// forms compile and, on Fig 1, match nothing.
func TestSection5_UnboundedRejected(t *testing.T) {
	_, err := core.Compile(`
		MATCH p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		      (b WHERE b.owner='Aretha')`, core.Options{})
	if err == nil {
		t.Fatalf("unbounded quantifier without restrictor/selector must be rejected")
	}
	if _, err := core.Compile(`MATCH ALL SHORTEST [(x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1)>1]`, core.Options{}); err == nil {
		t.Errorf("aggregate prefilter over an unbounded group must be rejected")
	}
	for _, src := range []string{
		`MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1`,
		`MATCH ALL SHORTEST [TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1]`,
	} {
		if got := len(run(t, src).Rows); got != 0 {
			t.Errorf("%s: want 0 rows, got %d", src, got)
		}
	}
}

// §5.2: prefilter vs postfilter. With the blocked-account condition as a
// prefilter the solution passes through a4 (Jay); as a postfilter the
// shortest Scott→Charles path has an unblocked middle account and the
// result is empty.
//
// Note on the arXiv text: §5.2 claims the only solution is the six-edge
// path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t5,a3,t7,a5) — but Figure 1's edge t6
// (a6→a5), which §5.1's trails and §6.4 both use, yields the strictly
// shorter five-edge path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t6,a5). The engine
// returns the correct shortest path for the figure's graph; on the graph
// with t6 removed it returns the paper's printed answer exactly
// (EXPERIMENTS.md records the discrepancy).
func TestSection52_PrefilterVsPostfilter(t *testing.T) {
	pre := evalPaths(t, `
		MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+
		      (q:Account WHERE q.isBlocked='yes')-[e2:Transfer]->+
		      (r:Account WHERE r.owner='Charles')`)
	want := []string{"path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t6,a5)"}
	if !equalStrings(pre, want) {
		t.Errorf("prefilter variant:\n got  %v\n want %v", pre, want)
	}

	post := evalPaths(t, `
		MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+
		      (q:Account)-[e2:Transfer]->+
		      (r:Account WHERE r.owner='Charles')
		WHERE q.isBlocked='yes'`)
	if len(post) != 0 {
		t.Errorf("postfilter variant should be empty, got %v", post)
	}
}

// §5.2 on Figure 1 without edge t6: the paper's printed six-edge answer is
// recovered exactly.
func TestSection52_PrefilterWithoutT6MatchesPaperText(t *testing.T) {
	g := fig1WithoutEdge(t, "t6")
	q, err := core.Compile(`
		MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+
		      (q:Account WHERE q.isBlocked='yes')-[e2:Transfer]->+
		      (r:Account WHERE r.owner='Charles')`, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := eval.EvalPlan(g, q.Plan, eval.Config{})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	var got []string
	for _, row := range res.Rows {
		b, _ := row.Get("p")
		got = append(got, b.Path.String())
	}
	want := []string{"path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t5,a3,t7,a5)"}
	if !equalStrings(got, want) {
		t.Errorf("prefilter on Fig1−t6:\n got  %v\n want %v", got, want)
	}
}

// fig1WithoutEdge rebuilds Fig 1 minus one edge.
func fig1WithoutEdge(t *testing.T, drop graph.EdgeID) *graph.Graph {
	t.Helper()
	src := dataset.Fig1()
	g := graph.New()
	src.Nodes(func(n *graph.Node) bool {
		if err := g.AddNode(n.ID, n.Labels, n.Props); err != nil {
			t.Fatal(err)
		}
		return true
	})
	src.Edges(func(e *graph.Edge) bool {
		if e.ID == drop {
			return true
		}
		var err error
		if e.Direction == graph.Directed {
			err = g.AddEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		} else {
			err = g.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
		if err != nil {
			t.Fatal(err)
		}
		return true
	})
	return g
}

// §5.1: adding a selector to a query with matches always keeps at least one
// match, whereas a restrictor can empty it. The Natalia-free variant of the
// paper's example: the shortest a5→a1 solution of length 4 repeats edge t8,
// so TRAIL has no solution with those endpoints through that route.
func TestSection51_SelectorVsRestrictorAsymmetry(t *testing.T) {
	// path(a5,t8,a1,t1,a3,t7,a5,t8,a1) is a solution of the unrestricted
	// query; it repeats t8, hence fails TRAIL.
	p := graph.Path{
		Nodes: []graph.NodeID{"a5", "a1", "a3", "a5", "a1"},
		Edges: []graph.EdgeID{"t8", "t1", "t7", "t8"},
	}
	if err := p.ValidIn(dataset.Fig1()); err != nil {
		t.Fatalf("paper path invalid in Fig1: %v", err)
	}
	if p.IsTrail() {
		t.Fatalf("paper path should repeat edge t8")
	}
}
