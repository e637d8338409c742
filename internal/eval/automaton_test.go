package eval

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"gpml/internal/baseline"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// baselineShortest lists every shortest path of one or more Transfer
// edges from src to dst using internal/baseline alone: AllShortestPaths for
// distinct endpoints, and for src = dst the shortest cycles — one out-edge
// of src followed by each shortest path back.
func baselineShortest(g *graph.Graph, src, dst graph.NodeID) []graph.Path {
	if src != dst {
		return baseline.AllShortestPaths(g, src, dst, "Transfer")
	}
	var best []graph.Path
	g.Incident(src, func(e *graph.Edge) bool {
		if e.Direction != graph.Directed || e.Source != src || !e.HasLabel("Transfer") {
			return true
		}
		tails := []graph.Path{graph.SingleNode(src)}
		if e.Target != src {
			tails = baseline.AllShortestPaths(g, e.Target, src, "Transfer")
		}
		for _, tail := range tails {
			p := graph.Path{
				Nodes: append([]graph.NodeID{src}, tail.Nodes...),
				Edges: append([]graph.EdgeID{e.ID}, tail.Edges...),
			}
			if len(best) > 0 && p.Len() < best[0].Len() {
				best = best[:0]
			}
			if len(best) == 0 || p.Len() == best[0].Len() {
				best = append(best, p)
			}
		}
		return true
	})
	return best
}

// TestShortestAgainstBaseline referees the shortest-path selectors with
// internal/baseline's textbook BFS, which shares no code with the engines
// (the serving benchmark's answer gate runs this very engine, so it cannot
// referee it): on random directed graphs with multi-edges and self-loops,
// for every (src, dst) pair, ALL SHORTEST returns exactly the baseline's
// shortest paths, and ANY SHORTEST — unbounded (the per-state BFS engine)
// and bounded (the automaton) — returns one path of that set.
func TestShortestAgainstBaseline(t *testing.T) {
	all := compile(t, `MATCH ALL SHORTEST p = (a WHERE a.owner=$src)-[:Transfer]->+(b WHERE b.owner=$dst)`, plan.Options{})
	anys := []*plan.Plan{
		compile(t, `MATCH ANY SHORTEST p = (a WHERE a.owner=$src)-[:Transfer]->+(b WHERE b.owner=$dst)`, plan.Options{}),
		compile(t, `MATCH ANY SHORTEST p = (a WHERE a.owner=$src)-[:Transfer]->{1,12}(b WHERE b.owner=$dst)`, plan.Options{}),
	}
	paths := func(g *graph.Graph, p *plan.Plan, cfg Config) []string {
		res, err := EvalPlan(g, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range res.Rows {
			b, _ := row.Get("p")
			out = append(out, b.Path.String())
		}
		sort.Strings(out)
		return out
	}
	const accounts = 10
	for seed := int64(0); seed < 6; seed++ {
		g := dataset.Random(dataset.RandomConfig{Accounts: accounts, AvgDegree: 1.8, Seed: 300 + seed})
		for i := 0; i < accounts; i++ {
			for j := 0; j < accounts; j++ {
				src, dst := graph.NodeID(fmt.Sprintf("a%d", i)), graph.NodeID(fmt.Sprintf("a%d", j))
				var want []string
				for _, p := range baselineShortest(g, src, dst) {
					want = append(want, p.String())
				}
				sort.Strings(want)
				cfg := Config{Params: Params{"src": value.Str(fmt.Sprintf("owner%d", i)), "dst": value.Str(fmt.Sprintf("owner%d", j))}}
				label := fmt.Sprintf("seed %d %s→%s", seed, src, dst)
				if got := paths(g, all, cfg); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: ALL SHORTEST %v, baseline %v", label, got, want)
				}
				for _, p := range anys {
					got := paths(g, p, cfg)
					if len(got) != min(1, len(want)) || len(got) == 1 && sort.SearchStrings(want, got[0]) == len(want) {
						t.Errorf("%s: %s returned %v, want one of %v", label, p.Paths[0].Pattern.Selector, got, want)
					}
				}
			}
		}
	}
}

// TestShortestMemoryFollowsStatesTouched pins per-query memory: one
// point-to-point ALL SHORTEST on a 200,000-node chain, endpoints two hops
// apart, allocates in proportion to the product states it touches — far
// below one int32 per (node index × automaton state), the dense table a
// forward-only search sized by the store's index span.
func TestShortestMemoryFollowsStatesTouched(t *testing.T) {
	const n = 200_000
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		var labels []string
		switch i {
		case n / 2:
			labels = []string{"Start"}
		case n/2 + 2:
			labels = []string{"End"}
		}
		b.Node(fmt.Sprintf("n%d", i), labels)
	}
	for i := 0; i+1 < n; i++ {
		b.Edge(fmt.Sprintf("e%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), []string{"Transfer"})
	}
	s := graph.Snapshot(b.MustBuild())
	pp := compile(t, `MATCH ALL SHORTEST p = (a:Start)-[:Transfer]->+(z:End)`, plan.Options{}).Paths[0]
	eval := func() {
		sols, err := MatchPattern(s, pp, Config{})
		if err != nil || len(sols) != 1 {
			t.Fatalf("MatchPattern: %d solutions, %v", len(sols), err)
		}
	}
	eval() // compile and memoize the automata
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	perEval := (after.TotalAlloc - before.TotalAlloc) / runs
	dense := uint64(s.NodeIndexSpan() * automatonFor(pp).NumStates() * 4)
	t.Logf("%d B per evaluation; a span × states int32 table is %d B", perEval, dense)
	if perEval*64 > dense {
		t.Errorf("%d B per evaluation, want under 1/64 of the %d B span × states table", perEval, dense)
	}
}
