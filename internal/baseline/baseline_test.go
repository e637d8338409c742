package baseline

import (
	"sort"
	"strings"
	"testing"

	"gpml/internal/core"
	"gpml/internal/dataset"
	"gpml/internal/eval"
	"gpml/internal/graph"
)

func TestEnumerateWalksChain(t *testing.T) {
	g := dataset.Chain(5)
	walks := EnumerateWalks(g, "a0", "a4", "Transfer", 10)
	if len(walks) != 1 {
		t.Fatalf("chain walks: %d", len(walks))
	}
	if walks[0].Len() != 4 {
		t.Errorf("walk length: %d", walks[0].Len())
	}
}

func TestEnumerateWalksCycleBounded(t *testing.T) {
	g := dataset.Cycle(4)
	// Walks a0→a0 of length ≤ 8: one of length 4 and one of length 8.
	walks := EnumerateWalks(g, "a0", "a0", "Transfer", 8)
	if len(walks) != 2 {
		t.Fatalf("cycle walks: %d, want 2", len(walks))
	}
}

func TestEnumerateTrails(t *testing.T) {
	g := dataset.Fig1()
	trails := EnumerateTrails(g, "a6", "a2", "Transfer")
	var got []string
	for _, p := range trails {
		got = append(got, p.String())
	}
	sort.Strings(got)
	want := []string{
		"path(a6,t5,a3,t2,a2)",
		"path(a6,t5,a3,t7,a5,t8,a1,t1,a3,t2,a2)",
		"path(a6,t6,a5,t8,a1,t1,a3,t2,a2)",
	}
	sort.Strings(want)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("baseline trails:\n got  %v\n want %v", got, want)
	}
}

// The baseline and the engine agree on TRAIL semantics (cross-validation).
func TestBaselineMatchesEngineTrails(t *testing.T) {
	g := dataset.LaunderingRings(3, 4, 6, 11)
	q, err := core.Compile(`
		MATCH TRAIL p = (a WHERE a.owner='owner0')-[e:Transfer]->*
		      (b WHERE b.owner='owner5')`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvalPlan(g, q.Plan, eval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var engine []string
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		engine = append(engine, p.Path.String())
	}
	sort.Strings(engine)

	var base []string
	for _, p := range EnumerateTrails(g, "a0", "a5", "Transfer") {
		if p.Len() >= 1 {
			base = append(base, p.String())
		}
	}
	sort.Strings(base)
	if strings.Join(engine, "|") != strings.Join(base, "|") {
		t.Errorf("engine vs baseline trails differ:\n engine %d\n base   %d", len(engine), len(base))
	}
}

func TestShortestPath(t *testing.T) {
	g := dataset.Fig1()
	p, ok := ShortestPath(g, "a6", "a2", "Transfer")
	if !ok {
		t.Fatalf("no path found")
	}
	if p.String() != "path(a6,t5,a3,t2,a2)" {
		t.Errorf("shortest: %s", p)
	}
	if err := p.ValidIn(g); err != nil {
		t.Errorf("invalid path: %v", err)
	}
	if _, ok := ShortestPath(g, "ip1", "a1", "Transfer"); ok {
		t.Errorf("no transfer path from ip1")
	}
	same, ok := ShortestPath(g, "a1", "a1", "Transfer")
	if !ok || same.Len() != 0 {
		t.Errorf("trivial path: %v %v", same, ok)
	}
}

// BFS baseline and engine agree on ANY SHORTEST lengths for all reachable
// pairs.
func TestShortestAgreesWithEngine(t *testing.T) {
	g := dataset.LaunderingRings(3, 5, 8, 3)
	q, err := core.Compile(`MATCH ANY SHORTEST p = (a)-[e:Transfer]->+(b)`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvalPlan(g, q.Plan, eval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ a, b graph.NodeID }
	engineLen := map[pair]int{}
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		engineLen[pair{p.Path.First(), p.Path.Last()}] = p.Path.Len()
	}
	checked := 0
	for pr, el := range engineLen {
		if pr.a == pr.b {
			continue // the engine's cycles; baseline treats a==b as length 0
		}
		bp, ok := ShortestPath(g, pr.a, pr.b, "Transfer")
		if !ok {
			t.Errorf("engine found %v→%v but baseline did not", pr.a, pr.b)
			continue
		}
		if bp.Len() != el {
			t.Errorf("%v→%v: engine %d, baseline %d", pr.a, pr.b, el, bp.Len())
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("too few pairs checked: %d", checked)
	}
}

func TestAllShortestPaths(t *testing.T) {
	g := dataset.Grid(3, 3)
	paths := AllShortestPaths(g, "n0_0", "n2_2", "Transfer")
	if len(paths) != 6 { // C(4,2)
		t.Fatalf("grid all-shortest: %d, want 6", len(paths))
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if p.Len() != 4 {
			t.Errorf("non-shortest: %s", p)
		}
		if err := p.ValidIn(g); err != nil {
			t.Errorf("invalid: %v", err)
		}
		if seen[p.Key()] {
			t.Errorf("duplicate path %s", p)
		}
		seen[p.Key()] = true
	}
	if got := AllShortestPaths(g, "n2_2", "n0_0", "Transfer"); got != nil {
		t.Errorf("reverse direction unreachable, got %d paths", len(got))
	}
	if got := AllShortestPaths(g, "n0_0", "n0_0", "Transfer"); len(got) != 1 || got[0].Len() != 0 {
		t.Errorf("trivial all-shortest: %v", got)
	}
}

// The engine's ALL SHORTEST equals the baseline's on the ->+ shape.
func TestAllShortestAgreesWithEngine(t *testing.T) {
	g := dataset.Grid(3, 3)
	q, err := core.Compile(`
		MATCH ALL SHORTEST p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
		      (b WHERE b.owner='u2_2')`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.EvalPlan(g, q.Plan, eval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var engine []string
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		engine = append(engine, p.Path.Key())
	}
	sort.Strings(engine)
	var base []string
	for _, p := range AllShortestPaths(g, "n0_0", "n2_2", "Transfer") {
		base = append(base, p.Key())
	}
	sort.Strings(base)
	if strings.Join(engine, "|") != strings.Join(base, "|") {
		t.Errorf("ALL SHORTEST disagreement: engine %d vs baseline %d", len(engine), len(base))
	}
}
