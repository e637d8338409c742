package plan

import (
	"fmt"
	"strings"
	"testing"

	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/parser"
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
	// Pattern 1 shares y, but y is its tail, not its head: connected,
	// yet not seedable.
	p := planFor(t, `MATCH (x:Admin)-[u:Transfer]->(y), (w:Account)-[t:Transfer]->(y)`)
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
	// step 1: pattern 1 bind-join seed=x est-per-seed=2
}
