package eval

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Nested quantifiers: iteration annotations carry one index per enclosing
// quantifier, and the flattened group lists aggregate across both levels.
func TestNestedQuantifiers(t *testing.T) {
	g := dataset.Chain(7)
	res := evalQuery(t, g, `
		MATCH (s WHERE s.owner='owner0')
		      [[()-[e:Transfer]->()]{2,2}]{1,3}
		      (z)
		WHERE COUNT(e) = 6`)
	// 6 edges consumed as 3 outer iterations of 2 inner hops: exactly the
	// full chain.
	if len(res.Rows) != 1 {
		t.Fatalf("nested quantifier rows: %d, want 1", len(res.Rows))
	}
	grp, _ := res.Rows[0].Get("e")
	if grp.Kind != BoundGroup || len(grp.Group) != 6 {
		t.Fatalf("group e: %+v", grp)
	}
	// Raw enumeration inspects annotations: two indices per entry.
	p := compile(t, `
		MATCH (s WHERE s.owner='owner0') [[()-[e:Transfer]->()]{2,2}]{3,3} (z)`, plan.Options{})
	raw, err := Enumerate(g, p.Paths[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 {
		t.Fatalf("raw matches: %d", len(raw))
	}
	var annots []string
	for _, entry := range raw[0].Entries {
		if entry.Var == "e" {
			annots = append(annots, entry.DisplayVar())
		}
	}
	want := "e1.1 e1.2 e2.1 e2.2 e3.1 e3.2"
	if got := strings.Join(annots, " "); got != want {
		t.Errorf("nested annotations:\n got  %s\n want %s", got, want)
	}
}

// A union inside a quantifier: each iteration independently picks a branch.
func TestUnionInsideQuantifier(t *testing.T) {
	g, err := graph.NewBuilder().
		Node("n1", []string{"N"}).
		Node("n2", []string{"N"}).
		Node("n3", []string{"N"}).
		Edge("a1", "n1", "n2", []string{"A"}).
		Edge("b1", "n1", "n2", []string{"B"}).
		Edge("a2", "n2", "n3", []string{"A"}).
		Edge("b2", "n2", "n3", []string{"B"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := evalQuery(t, g, `
		MATCH (s WHERE s.owner IS NULL)
		      [[()-[x:A]->()] | [()-[y:B]->()]]{2,2}
		      (z)`)
	// Each of the 2 hops picks A or B: 4 combinations from n1 to n3.
	count := 0
	for _, row := range res.Rows {
		s, _ := row.Get("s")
		if s.Node == "n1" {
			count++
		}
	}
	if count != 4 {
		t.Errorf("branch combinations from n1: %d, want 4", count)
	}
}

// Conditional group variables: a variable declared in only one union
// branch inside a quantifier accumulates only the iterations that chose
// its branch.
func TestPartialGroupAccumulation(t *testing.T) {
	g, err := graph.NewBuilder().
		Node("n1", nil).Node("n2", nil).Node("n3", nil).
		Edge("a1", "n1", "n2", []string{"A"}, "w", 1).
		Edge("b2", "n2", "n3", []string{"B"}, "w", 10).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res := evalQuery(t, g, `
		MATCH (s) [[()-[x:A]->()] | [()-[y:B]->()]]{2,2} (z)
		WHERE COUNT(x) = 1 AND COUNT(y) = 1 AND SUM(x.w) = 1 AND SUM(y.w) = 10`)
	if len(res.Rows) != 1 {
		t.Errorf("partial group accumulation: %d rows, want 1", len(res.Rows))
	}
}

// BFS mode with a prefilter over a bounded inner quantifier nested in an
// unbounded selector-bounded outer quantifier (the PrefilterGroups key
// machinery).
func TestBFSWithBoundedGroupPrefilter(t *testing.T) {
	g := dataset.Chain(9)
	res := evalQuery(t, g, `
		MATCH ANY SHORTEST (a WHERE a.owner='owner0')
		      [[()-[e:Transfer]->()]{2,2} WHERE SUM(e.amount) > 0]*
		      (z WHERE z.owner='owner8')`)
	if len(res.Rows) != 1 {
		t.Fatalf("BFS with bounded group prefilter: %d rows", len(res.Rows))
	}
	p, _ := res.Rows[0].Get("z")
	_ = p
}

// A prefilter reads a group variable per iteration of the innermost
// quantifier enclosing both the prefilter and the declaration: a WHERE
// in an outer iteration's body counts only that iteration's inner
// bindings, while one outside the declaring quantifier counts all of
// them. On a 4-node chain each outer iteration of the first query takes
// one edge, so = 1 and >= 1 keep the same 6 paths, on the DFS engine and
// under an unbounded outer quantifier, which the BFS engine runs (and
// agrees with its oracle on).
func TestNestedGroupReadScopedToIteration(t *testing.T) {
	g := dataset.Chain(4)
	rows := func(src string) []string {
		t.Helper()
		var out []string
		for _, row := range evalQuery(t, g, src).Rows {
			a, _ := row.Get("a")
			z, _ := row.Get("z")
			out = append(out, a.String()+"-"+z.String())
		}
		return out
	}
	for _, tc := range []struct {
		query, engine string
		want          int
	}{
		{`MATCH TRAIL (a)[[()-[e:Transfer]->()]{1,1} WHERE COUNT(e.*) %s 1]{1,3}(z)`, EngineDFS, 6},
		{`MATCH ANY SHORTEST (a)[[()-[e:Transfer]->()]{1,1} WHERE COUNT(e.*) %s 1]+(z)`, EngineBFS, 6},
		// A sibling quantifier reads every binding of the first one.
		{`MATCH (a)[()-[e:Transfer]->()]{1,2}[()-[f:Transfer]->() WHERE COUNT(e.*) %s 1]{1,1}(z)`, EngineDFS, 2},
	} {
		eq, ge := fmt.Sprintf(tc.query, "="), fmt.Sprintf(tc.query, ">=")
		pp := compile(t, eq, plan.Options{}).Paths[0]
		if engine, _ := engineFor(pp); engine != tc.engine {
			t.Errorf("%s: engine %s, want %s", eq, engine, tc.engine)
		}
		if tc.engine == EngineBFS {
			// Parks re-base each iteration's group start; so must the oracle.
			checkBFSOracle(t, eq, g, pp, Config{})
		}
		got, all := rows(eq), rows(ge)
		if len(got) != tc.want || strings.Join(got, " ") != strings.Join(all[:min(len(all), tc.want)], " ") {
			t.Errorf("%s: rows %v, want the %d rows of %s: %v", eq, got, tc.want, ge, all)
		}
	}
}

// ANY on a disconnected pair returns nothing, and on connected pairs
// exactly one row per partition.
func TestAnySelectorPartitions(t *testing.T) {
	g := dataset.Chain(4) // a0→a1→a2→a3
	res := evalQuery(t, g, `MATCH ANY p = (a)-[e:Transfer]->+(b)`)
	// Partitions: (a0,a1),(a0,a2),(a0,a3),(a1,a2),(a1,a3),(a2,a3).
	if len(res.Rows) != 6 {
		t.Errorf("ANY partitions on chain: %d rows, want 6", len(res.Rows))
	}
}

// The same query evaluated twice gives identical results (the engine is
// deterministic, including "non-deterministic" selectors).
func TestDeterminism(t *testing.T) {
	g := dataset.LaunderingRings(3, 4, 8, 5)
	run := func() string {
		res := evalQuery(t, g, `
			MATCH SHORTEST 3 p = (a WHERE a.isBlocked='yes')-[e:Transfer]->+
			      (b WHERE b.isBlocked='yes')`)
		var keys []string
		for _, row := range res.Rows {
			p, _ := row.Get("p")
			keys = append(keys, p.Path.Key())
		}
		sort.Strings(keys)
		return strings.Join(keys, "|")
	}
	if run() != run() {
		t.Errorf("evaluation must be deterministic")
	}
}

// Property: on random DAG-ish chains with shortcuts, bounded quantifier
// row counts match an independent brute-force walk count.
func TestBoundedQuantifierAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := dataset.Random(dataset.RandomConfig{
			Accounts: 12, AvgDegree: 1.5, Seed: seed % 1000,
		})
		p := compile(t, `MATCH (a)-[e:Transfer]->{1,3}(b)`, plan.Options{})
		res, err := EvalPlan(g, p, Config{})
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		want := countWalks(g, 1, 3)
		return len(res.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// countWalks counts directed Transfer walks with length in [min,max],
// deduplicated by their full element sequence (the engine's reduced
// binding identity).
func countWalks(g *graph.Graph, min, max int) int {
	seen := map[string]bool{}
	var walk func(at graph.NodeID, path string, depth int)
	walk = func(at graph.NodeID, path string, depth int) {
		if depth >= min && depth <= max {
			seen[path] = true
		}
		if depth == max {
			return
		}
		g.Incident(at, func(e *graph.Edge) bool {
			if e.Direction == graph.Directed && e.Source == at && e.HasLabel("Transfer") {
				walk(e.Target, fmt.Sprintf("%s-%s-%s", path, e.ID, e.Target), depth+1)
			}
			return true
		})
	}
	g.Nodes(func(n *graph.Node) bool {
		walk(n.ID, string(n.ID), 0)
		return true
	})
	return len(seen)
}

// Property: TRAIL results on random graphs never repeat edges and agree
// with Path.IsTrail.
func TestTrailPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := dataset.Random(dataset.RandomConfig{
			Accounts: 8, AvgDegree: 1.6, Seed: seed % 500,
		})
		p := compile(t, `MATCH TRAIL p = (a)-[e:Transfer]->*(b)`, plan.Options{})
		res, err := EvalPlan(g, p, Config{Limits: Limits{MaxMatches: 200_000}})
		if err != nil {
			return false
		}
		for _, row := range res.Rows {
			pb, _ := row.Get("p")
			if !pb.Path.IsTrail() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: ALL SHORTEST on random graphs returns, per endpoint pair, only
// paths of one length, and at least one path for every BFS-reachable pair.
func TestAllShortestPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := dataset.Random(dataset.RandomConfig{
			Accounts: 10, AvgDegree: 1.4, Seed: seed % 500,
		})
		p := compile(t, `MATCH ALL SHORTEST p = (a)-[e:Transfer]->+(b)`, plan.Options{})
		res, err := EvalPlan(g, p, Config{})
		if err != nil {
			return false
		}
		lens := map[string]int{}
		for _, row := range res.Rows {
			pb, _ := row.Get("p")
			key := string(pb.Path.First()) + "→" + string(pb.Path.Last())
			if prev, ok := lens[key]; ok && prev != pb.Path.Len() {
				return false // two lengths in one partition
			}
			lens[key] = pb.Path.Len()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Reduced bindings expose per-pattern tables through rows.
func TestRowBindingsPerPattern(t *testing.T) {
	g := dataset.Fig1()
	res := evalQuery(t, g, `
		MATCH (x:Account WHERE x.owner='Jay')-[e:Transfer]->(y),
		      (y)-[f:Transfer]->(z)`)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if len(row.Bindings) != 2 {
			t.Fatalf("per-pattern bindings: %d", len(row.Bindings))
		}
		if _, ok := row.Bindings[0].Singleton("x"); !ok {
			t.Errorf("pattern 0 must bind x")
		}
		if _, ok := row.Bindings[1].Singleton("f"); !ok {
			t.Errorf("pattern 1 must bind f")
		}
	}
}

// The Reduce→Dedup→Select order (§6): a selector sees deduplicated
// bindings, so |+| duplicates survive selection as distinct bindings.
func TestSelectorAfterDedupWithTags(t *testing.T) {
	g := dataset.Fig1()
	rs := func(src string) []*binding.Reduced {
		p := compile(t, src, plan.Options{})
		out, err := MatchPattern(g, p.Paths[0], Config{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := rs(`MATCH ANY SHORTEST (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]`)
	multi := rs(`MATCH ANY SHORTEST (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ (a) [-[:isLocatedIn]->(c:City) |+| -[:isLocatedIn]->(c:Country)]`)
	if len(plain) != 1 {
		t.Errorf("set union + ANY SHORTEST: %d bindings, want 1", len(plain))
	}
	// The |+| duplicates share endpoints, so the ANY SHORTEST partition
	// still selects one.
	if len(multi) != 1 {
		t.Errorf("multiset + ANY SHORTEST: %d bindings, want 1", len(multi))
	}
}

// Orientation duality: matching <-[e]- on g equals matching -[e]-> on the
// reversed graph (and vice versa), for random graphs. A structural oracle
// for the Fig 5 orientation semantics.
func TestOrientationReversalDuality(t *testing.T) {
	f := func(seed int64) bool {
		g := dataset.Random(dataset.RandomConfig{
			Accounts: 10, AvgDegree: 2, Seed: seed % 300,
		})
		r := graph.Reverse(g)
		collect := func(gr *graph.Graph, src string) []string {
			p := compile(t, src, plan.Options{})
			res, err := EvalPlan(gr, p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for _, row := range res.Rows {
				x, _ := row.Get("x")
				e, _ := row.Get("e")
				y, _ := row.Get("y")
				out = append(out, fmt.Sprintf("%s|%s|%s", x.Node, e.Edge, y.Node))
			}
			sort.Strings(out)
			return out
		}
		left := collect(g, `MATCH (x)<-[e]-(y)`)
		rightOnReversed := collect(r, `MATCH (x)-[e]->(y)`)
		if len(left) != len(rightOnReversed) {
			return false
		}
		for i := range left {
			if left[i] != rightOnReversed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// §5.1's asymmetry as a property: adding a selector to a query with
// matches keeps at least one match per matched endpoint pair, on random
// graphs.
func TestSelectorKeepsMatchesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := dataset.Random(dataset.RandomConfig{
			Accounts: 9, AvgDegree: 1.5, Seed: seed % 300,
		})
		collectPairs := func(src string) map[string]bool {
			p := compile(t, src, plan.Options{})
			res, err := EvalPlan(g, p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			pairs := map[string]bool{}
			for _, row := range res.Rows {
				pb, _ := row.Get("p")
				pairs[string(pb.Path.First())+"→"+string(pb.Path.Last())] = true
			}
			return pairs
		}
		all := collectPairs(`MATCH p = (a)-[e:Transfer]->{1,4}(b)`)
		selected := collectPairs(`MATCH ANY p = (a)-[e:Transfer]->{1,4}(b)`)
		if len(all) != len(selected) {
			return false
		}
		for k := range all {
			if !selected[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
