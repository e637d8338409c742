package plan

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/value"
)

func planFor(t *testing.T, src string) *Plan {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		t.Fatalf("normalize %q: %v", src, err)
	}
	p, err := Analyze(norm, Options{})
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return p
}

func TestHeadVars(t *testing.T) {
	cases := []struct {
		src  string
		want string // comma-joined head vars of pattern 0
	}{
		{`MATCH (x:Account)-[t:Transfer]->(y)`, "x"},
		{`MATCH (x)(x2:Account)-[t]->(y)`, "x,x2"},
		{`MATCH (y)`, "y"},
		// Anonymous first node: nothing to seed from.
		{`MATCH ()-[t]->(y)`, ""},
		// A quantified prefix with min 0 may skip: later nodes are not
		// provably first.
		{`MATCH [(a)-[t:Transfer]->(b)]{0,2}(z)`, ""},
		// A mandatory quantifier binds only group variables; nothing
		// usable, and vars after the body are past the first position.
		{`MATCH TRAIL (a)-[t:Transfer]->+(z)`, "a"},
		// Union: only vars bound at the first position in every branch.
		{`MATCH [(x:City)-[e]->(y)] | [(x:Country)-[f]->(z)]`, "x"},
		{`MATCH [(x:City)-[e]->(y)] | [(w:Country)-[f]->(z)]`, ""},
		// Optional prefix: position may or may not have moved.
		{`MATCH [(a)-[t]->(b)]?(z)`, ""},
	}
	for _, tc := range cases {
		p := planFor(t, tc.src)
		got := strings.Join(p.Paths[0].HeadVars, ",")
		if got != tc.want {
			t.Errorf("%s: HeadVars = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestTailLabels(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`MATCH (x:Account)-[t:Transfer]->(y:City)`, "City"},
		{`MATCH (x:Account)`, "Account"},
		{`MATCH (x)-[t]->(y:City&Country)`, "City,Country"},
		{`MATCH (x)-[t]->[(y:City) | (y:Country)]`, ""},
		{`MATCH (x)-[t]->(y)`, ""},
		// Optional suffix: the last position is not provably labelled.
		{`MATCH (x:Account)-[t]->(y:City)[-[u]->(z:Phone)]?`, ""},
	}
	for _, tc := range cases {
		p := planFor(t, tc.src)
		got := strings.Join(p.Paths[0].TailLabels, ",")
		if got != tc.want {
			t.Errorf("%s: TailLabels = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// statsFixture builds a synthetic stats profile: 1000 nodes of which 10
// are Admin and 500 Account, 2000 Transfer edges and 30 locatedIn edges.
func statsFixture() graph.StoreStats {
	return graph.StoreStats{
		Nodes:      1000,
		Edges:      2030,
		NodeLabels: map[string]int{"Admin": 10, "Account": 500, "City": 20},
		EdgeLabels: map[string]int{"Transfer": 2000, "locatedIn": 30},
	}
}

func TestEstimateCostRanksSelectivity(t *testing.T) {
	st := statsFixture()
	p := planFor(t, `MATCH (a:Admin)-[t:Transfer]->(b), (x:Account)-[u:Transfer]->(y)-[v:Transfer]->(z)`)
	selective := EstimateCost(p.Paths[0], st)
	broad := EstimateCost(p.Paths[1], st)
	if selective.Seeds != 10 {
		t.Errorf("Admin seeds = %v, want 10 (label count)", selective.Seeds)
	}
	if broad.Seeds != 500 {
		t.Errorf("Account seeds = %v, want 500", broad.Seeds)
	}
	if selective.Rows >= broad.Rows {
		t.Errorf("selective pattern estimated at %v rows, broad at %v; expected selective < broad", selective.Rows, broad.Rows)
	}
	if broad.PerSeed <= selective.PerSeed {
		t.Errorf("two-hop per-seed fanout %v should exceed one-hop %v", broad.PerSeed, selective.PerSeed)
	}
}

func TestEstimateCostTailSelectivity(t *testing.T) {
	st := statsFixture()
	p := planFor(t, `MATCH (a:Account)-[t:Transfer]->(b:City), (a2:Account)-[u:Transfer]->(b2)`)
	withTail := EstimateCost(p.Paths[0], st)
	without := EstimateCost(p.Paths[1], st)
	if withTail.Rows >= without.Rows {
		t.Errorf("City-endpoint estimate %v should undercut unconstrained %v", withTail.Rows, without.Rows)
	}
}

func TestEstimateCostTailTakesMostSelectiveLabel(t *testing.T) {
	st := statsFixture() // Account=500, City=20 of 1000 nodes
	p := planFor(t, `MATCH (a)-[t:Transfer]->(b:Account&City), (a2)-[u:Transfer]->(b2:City&Account)`)
	conj := EstimateCost(p.Paths[0], st)
	swapped := EstimateCost(p.Paths[1], st)
	if conj.Rows != swapped.Rows {
		t.Errorf("tail selectivity depends on label spelling order: %v vs %v", conj.Rows, swapped.Rows)
	}
	cityOnly := EstimateCost(planFor(t, `MATCH (a)-[t:Transfer]->(b:City)`).Paths[0], st)
	if conj.Rows != cityOnly.Rows {
		t.Errorf("conjunctive tail should use the most selective label: %v, City-only gives %v", conj.Rows, cityOnly.Rows)
	}
}

func TestEstimateCostNominalStats(t *testing.T) {
	p := planFor(t, `MATCH (a:Account)-[t:Transfer]->(b)`)
	c := EstimateCost(p.Paths[0], graph.StoreStats{})
	if c.Seeds <= 0 || c.PerSeed <= 0 || c.Rows <= 0 {
		t.Errorf("nominal estimate must stay positive, got %+v", c)
	}
}

func TestOrderJoinSelectiveFirstAndSeeds(t *testing.T) {
	st := statsFixture()
	p := planFor(t, `MATCH (x:Account)-[u:Transfer]->(y)-[v:Transfer]->(z), (x:Admin)-[t:Transfer]->(w)`)
	steps := OrderJoin(p, []graph.StoreStats{st, st})
	if steps[0].Pattern != 1 {
		t.Fatalf("first step = pattern %d, want the selective Admin pattern 1\nsteps: %v", steps[0].Pattern, steps)
	}
	if steps[0].SeedVar != "" || steps[0].Connected {
		t.Errorf("first step must be a scan, got %+v", steps[0])
	}
	if steps[1].Pattern != 0 || steps[1].SeedVar != "x" || !steps[1].Connected {
		t.Errorf("second step should bind-join pattern 0 on x, got %+v", steps[1])
	}
}

func TestOrderJoinDisconnectedLast(t *testing.T) {
	st := statsFixture()
	// Patterns 0 and 2 connect through x; pattern 1 is disconnected and
	// should be joined last even though it is cheap.
	p := planFor(t, `MATCH (x:Account)-[u:Transfer]->(y), (q:City), (x)-[t:Transfer]->(w)`)
	steps := OrderJoin(p, []graph.StoreStats{st, st, st})
	if steps[2].Pattern != 1 {
		t.Fatalf("disconnected pattern should come last, got order %v", steps)
	}
	if steps[2].Connected || steps[2].SeedVar != "" {
		t.Errorf("disconnected step must be a scan, got %+v", steps[2])
	}
	if steps[1].SeedVar != "x" {
		t.Errorf("connected step should seed on x, got %+v", steps[1])
	}
}

func TestOrderJoinHashJoinFallbackWithoutHeadVar(t *testing.T) {
	st := statsFixture()
	// Pattern 1 shares y, but y is neither its head nor its tail:
	// connected, yet not seedable.
	p := planFor(t, `MATCH (x:Admin)-[u:Transfer]->(y), (w:Account)-[t:Transfer]->(y)-[s:Transfer]->(v)`)
	steps := OrderJoin(p, []graph.StoreStats{st, st})
	if steps[0].Pattern != 0 {
		t.Fatalf("selective pattern first, got %v", steps)
	}
	second := steps[1]
	if !second.Connected || second.SeedVar != "" {
		t.Errorf("second step should be a connected hash join without seeding, got %+v", second)
	}
	if !strings.Contains(second.String(), "hash-join") {
		t.Errorf("step string %q should mention hash-join", second)
	}
}

func TestJoinStepString(t *testing.T) {
	step := JoinStep{Pattern: 2, SeedVar: "x", Est: PatternCost{PerSeed: 3.5}}
	if got := step.String(); !strings.Contains(got, "pattern 2") || !strings.Contains(got, "seed=x") {
		t.Errorf("step string = %q", got)
	}
	scan := JoinStep{Pattern: 0, Est: PatternCost{Rows: 12}}
	if got := scan.String(); !strings.Contains(got, "scan") {
		t.Errorf("scan string = %q", got)
	}
}

func TestMinEdgeStepsShape(t *testing.T) {
	cases := []struct {
		src   string
		steps int
	}{
		{`MATCH (a)-[t:Transfer]->(b)`, 1},
		{`MATCH (a)-[t:Transfer]->{2,4}(b)`, 2},
		{`MATCH (a)-[t:Transfer]->*(b:X)`, 0},
		{`MATCH (a)[-[t:Transfer]->(m)-[u:Transfer]->(n)]{3,3}(b)`, 6},
		{`MATCH (a)[-[t:A]->(m) | -[u:B]->(m2)-[v:C]->(n)](b)`, 1},
	}
	for _, tc := range cases {
		// Wrap unbounded quantifiers in TRAIL to satisfy termination.
		src := tc.src
		if strings.Contains(src, "*") {
			src = strings.Replace(src, "MATCH ", "MATCH TRAIL ", 1)
		}
		p := planFor(t, src)
		if got := len(p.Paths[0].minSteps); got != tc.steps {
			t.Errorf("%s: %d min edge steps, want %d", tc.src, got, tc.steps)
		}
	}
}

func ExampleOrderJoin() {
	stmt, _ := parser.Parse(`MATCH (x:Admin)-[:isLocatedIn]->(c:City), (x)-[t:Transfer]->(y)`)
	norm, _ := normalize.Normalize(stmt)
	p, _ := Analyze(norm, Options{})
	stats := graph.StoreStats{
		Nodes:      100,
		Edges:      300,
		NodeLabels: map[string]int{"Admin": 2, "City": 5},
		EdgeLabels: map[string]int{"isLocatedIn": 100, "Transfer": 200},
	}
	for i, step := range OrderJoin(p, []graph.StoreStats{stats, stats}) {
		fmt.Printf("step %d: %s\n", i, step)
	}
	// Output:
	// step 0: pattern 0 scan est-rows=0.1
	// step 1: pattern 1 bind-join seed=x end=head est-distinct=1 est-per-seed=2
}

func TestTailVars(t *testing.T) {
	cases := []struct {
		src  string
		want string // comma-joined tail vars of pattern 0
	}{
		{`MATCH (x:Account)-[t:Transfer]->(y)`, "y"},
		{`MATCH (x)-[t]->(y)(y2:Account)`, "y,y2"},
		{`MATCH (y)`, "y"},
		{`MATCH (x)-[t]->()`, ""},
		{`MATCH TRAIL (a)-[t:Transfer]->+(z)`, "z"},
		{`MATCH ALL SHORTEST (a)-[t:Transfer]->+(z)`, "z"},
		{`MATCH (x)-[t]->[(y:City) | (y:Country)]`, "y"},
		// A trailing optional suffix: the last position may or may not
		// have moved.
		{`MATCH (x)-[t]->(y)[-[u]->(z)]?`, ""},
		// Not mirrorable: the flip would change the answer.
		{`MATCH ANY SHORTEST (a)-[t:Transfer]->+(z)`, ""},
		{`MATCH [(x)-[t]->(y)] |+| [(x)-[u]->(y)]`, ""},
		{`MATCH (x)-[t]->(y WHERE y.owner = x.owner)`, ""},
		{`MATCH (x) [(m)-[t]->(n) WHERE m.owner = x.owner] (y)`, ""},
		{`MATCH (a) [(m)-[t]->(n)]{1,3} (b) [()-[u]->() WHERE COUNT(t) > 1] (y)`, ""},
		// Local WHEREs see the same bindings in both directions.
		{`MATCH (x WHERE x.owner = 'a')-[t WHERE t.amount > 1]->(y) [(m)-[u]->(n) WHERE m.owner = n.owner] (z)`, "n,z"},
	}
	for _, tc := range cases {
		p := planFor(t, tc.src)
		got := strings.Join(p.Paths[0].TailVars, ",")
		if got != tc.want {
			t.Errorf("%s: TailVars = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestOrderJoinTailSeed(t *testing.T) {
	st := statsFixture()
	// Pattern 1 shares only y, at its tail: seeded from the tail.
	p := planFor(t, `MATCH (x:Admin)-[u:Transfer]->(y), (w:Account)-[t:Transfer]->(y)`)
	steps := OrderJoin(p, []graph.StoreStats{st, st})
	if steps[0].Pattern != 0 {
		t.Fatalf("selective pattern first, got %v", steps)
	}
	if s := steps[1]; s.SeedVar != "y" || s.End != SeedTail || s.Distinct <= 0 {
		t.Errorf("second step should seed y from the tail, got %s", s)
	}
	if got := steps[1].String(); !strings.Contains(got, "end=tail") || !strings.Contains(got, "est-distinct=") {
		t.Errorf("step string %q should name the seed end and its distinct estimate", got)
	}
}

// The triangle of the serving benchmark: once a is bound by the selective
// first pattern, the closing pattern seeds from its tail a (few distinct
// values) rather than waiting for c, and the middle pattern, bound at both
// ends, seeds from the end with fewer distinct values.
func TestOrderJoinTriangleSeedsFromFewestDistinct(t *testing.T) {
	st := statsFixture()
	p := planFor(t, `MATCH (a:Admin)-[:Transfer]-(b:Account), (b)-[:Transfer]-(c:Account), (c)-[:Transfer]-(a)`)
	steps := OrderJoin(p, []graph.StoreStats{st, st, st})
	var got []string
	for _, s := range steps {
		got = append(got, fmt.Sprintf("%d:%s:%s", s.Pattern, s.SeedVar, s.End))
	}
	if want := "0::head 2:a:tail 1:b:head"; strings.Join(got, " ") != want {
		t.Errorf("triangle plan %q, want %q\n%v", strings.Join(got, " "), want, steps)
	}
	if steps[1].Cost >= steps[2].Cost {
		t.Errorf("tail-seeded closing step should be the cheaper one: %v", steps)
	}
	if steps[2].Target != "c" {
		t.Errorf("the middle pattern, bound at both ends, should solve per (b, c) pair: %v", steps[2])
	}
}

// Equality predicates on an end node are priced at 1/NDV(label, property)
// from a real store's counts, on the seed side and the tail side.
func TestEstimateCostEqualityNDV(t *testing.T) {
	g := graph.New()
	for i := 0; i < 40; i++ {
		props := map[string]value.Value{"name": value.Str(fmt.Sprintf("n%d", i%20)), "kind": value.Str("k")}
		if err := g.AddNode(graph.NodeID(fmt.Sprintf("p%d", i)), []string{"Person"}, props); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := g.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", i)), graph.NodeID(fmt.Sprintf("p%d", i)), graph.NodeID(fmt.Sprintf("p%d", (i+1)%40)), []string{"knows"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := g.LabelStats()
	if n := st.PropNDV("Person", "name"); n != 20 {
		t.Fatalf("NDV(Person, name) = %d, want 20", n)
	}
	p := planFor(t, `MATCH (a:Person WHERE a.name = $n)-[:knows]->(b:Person), (c:Person WHERE 'k' = c.kind)-[:knows]->(d:Person WHERE d.name = 'n3' AND d.kind = $k)`)
	head := EstimateCost(p.Paths[0], st)
	if head.Seeds != 2 {
		t.Errorf("seeds under a.name = $n: %v, want 40/20 = 2", head.Seeds)
	}
	tail := EstimateCost(p.Paths[1], st)
	if tail.Seeds != 40 {
		t.Errorf("seeds under c.kind = 'k' (one distinct value): %v, want 40", tail.Seeds)
	}
	if want := 40 * tail.PerSeed / 20; tail.Rows != want {
		t.Errorf("rows under d.name = 'n3': %v, want %v (the most selective pair)", tail.Rows, want)
	}
}

func TestMirroredMemo(t *testing.T) {
	p := planFor(t, `MATCH TRAIL p = (a:Account WHERE a.owner = 'x')-[t:Transfer]->{1,3}(b:City)`)
	pp := p.Paths[0]
	// Served plans are cached and shared: concurrent first calls compile
	// one mirror.
	mirrors := make([]*PathPlan, 4)
	var wg sync.WaitGroup
	for i := range mirrors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mirrors[i] = pp.Mirrored()
		}(i)
	}
	wg.Wait()
	m := pp.Mirrored()
	for _, got := range mirrors {
		if got != m {
			t.Fatal("Mirrored is not memoized")
		}
	}
	if want := `TRAIL p = (b:City)[()<-[t:Transfer]-()]{1,3}(a:Account WHERE a.owner = 'x')`; m.Pattern.String() != want {
		t.Errorf("mirror %q, want %q", m.Pattern, want)
	}
	if strings.Join(m.SeedLabels, ",") != "City" || strings.Join(m.TailLabels, ",") != "Account" {
		t.Errorf("mirror end labels %v / %v", m.SeedLabels, m.TailLabels)
	}
	if strings.Join(m.HeadVars, ",") != "b" || strings.Join(m.TailVars, ",") != "a" {
		t.Errorf("mirror end vars %v / %v", m.HeadVars, m.TailVars)
	}
}

func TestMaxEdges(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{`MATCH (x)`, 0},
		{`MATCH (x)-[e]->(y)`, 1},
		{`MATCH (x)-[e]->(y)<-[f]-(z)`, 2},
		{`MATCH TRAIL (a)-[e]-{1,3}(b)`, 3},
		{`MATCH (a) [-[e]->(m)-[f]->(n)]{2,4} (b)`, 8},
		{`MATCH (a) [-[e]->(m) | -[f]->(n)-[g]->(o)]{1,2} (b)`, 4},
		{`MATCH (a)-[e]->(m) [-[f]->(n)]? (b)`, 2},
		{`MATCH (a) [[-[e]->(m)]{1,3}]{2,5} (b)`, 15},
		{`MATCH TRAIL (a)-[e]->+(b)`, -1},
		{`MATCH ANY SHORTEST (a)-[e]->*(b)`, -1},
		{`MATCH TRAIL (a) [-[e]->(m) | -[f]->+(n)] (b)`, -1},
	}
	for _, tc := range cases {
		if got := planFor(t, tc.src).Paths[0].MaxEdges; got != tc.want {
			t.Errorf("%s: MaxEdges = %d, want %d", tc.src, got, tc.want)
		}
	}
}

// A join step bound at both ends solves per (seed, target) pair when the
// pattern is selector-free and bounded and the pairs are no more than the
// seed-only work; otherwise it solves per seed.
func TestOrderJoinPairTarget(t *testing.T) {
	st := statsFixture()
	cases := []struct {
		src    string
		target string // of the last step
	}{
		{`MATCH (a:Admin)-[:Transfer]->(b:Account), TRAIL (a)-[:Transfer]-{1,2}(b)`, "b"},
		{`MATCH (a:Admin)-[:Transfer]->(b:Account), (b)-[:Transfer]->{1,3}(a)`, "a"},
		{`MATCH (a:Admin)-[:Transfer]->(a), TRAIL (a)-[:Transfer]-{1,3}(a)`, "a"},
		// Unbounded, or under a selector: nothing prunes toward a target.
		{`MATCH (a:Admin)-[:Transfer]->(b:Account), TRAIL (a)-[:Transfer]-+(b)`, ""},
		{`MATCH (a:Admin)-[:Transfer]->(b:Account), ALL SHORTEST (a)-[:Transfer]-{1,2}(b)`, ""},
		// Forty distinct pairs cost more than ten seeds of two matches.
		{`MATCH (a:Admin)-[:Transfer]->()-[:Transfer]->()-[:Transfer]->(b:Account), (a)-[:Transfer]->{1,3}(b)`, ""},
	}
	for _, tc := range cases {
		p := planFor(t, tc.src)
		steps := OrderJoin(p, []graph.StoreStats{st, st})
		last := steps[len(steps)-1]
		if last.SeedVar == "" || last.Target != tc.target {
			t.Errorf("%s: last step %s, want target %q", tc.src, last, tc.target)
		}
		if tc.target != "" && !strings.Contains(last.String(), " target="+tc.target+" ") {
			t.Errorf("%s: step string %q should name the target", tc.src, last)
		}
	}
}
