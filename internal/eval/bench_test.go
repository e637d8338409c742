package eval

import (
	"math/rand"
	"testing"

	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
	"gpml/internal/value"
)

func benchPlan(b testing.TB, src string) *plan.Plan {
	b.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Analyze(norm, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// The DFS engine on restrictor-bounded search (the §5.1 workload shape).
func BenchmarkDFSTrailEnumeration(b *testing.B) {
	g := dataset.Cycle(32)
	p := benchPlan(b, `MATCH TRAIL (a WHERE a.owner='owner0')-[e:Transfer]->*(z)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPlan(g, p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Selector-bounded all-shortest search between two grid corners on the
// automaton engine; replaying its 3,432 shortest paths dominates.
func BenchmarkAutomatonAllShortestCorners(b *testing.B) {
	g := dataset.Grid(8, 8)
	p := benchPlan(b, `
		MATCH ALL SHORTEST p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
		      (z WHERE z.owner='u7_7')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPlan(g, p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// bfsBench evaluates one pattern on the BFS engine from a single seed of
// a random Transfer graph with cycles. It fails unless the plan routes the
// pattern to the BFS engine, so the benchmark cannot drift onto another
// engine.
func bfsBench(b *testing.B, src string) {
	g := graph.Snapshot(dataset.Random(dataset.RandomConfig{Accounts: 1000, AvgDegree: 2, BlockedFraction: 0.1, Seed: 5}))
	p := benchPlan(b, src)
	if eng, _ := engineFor(p.Paths[0]); eng != EngineBFS {
		b.Fatalf("%s: engine %s, want %s", src, eng, EngineBFS)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPlan(g, p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Unbounded ANY SHORTEST: one admitted state per product state.
func BenchmarkBFSAnyShortest(b *testing.B) {
	bfsBench(b, `MATCH ANY SHORTEST p = (a WHERE a.owner='owner0')-[e:Transfer]->+(z)`)
}

// SHORTEST k GROUP: arrivals within the first k depths per state.
func BenchmarkBFSShortestKGroup(b *testing.B) {
	bfsBench(b, `MATCH SHORTEST 2 GROUP p = (a WHERE a.owner='owner0')-[e:Transfer]->+(z)`)
}

// A WHERE across elements (each quantified edge against the first) is
// not memoryless, so ALL SHORTEST stays on the BFS engine.
func BenchmarkBFSCrossElementWhere(b *testing.B) {
	bfsBench(b, `MATCH ALL SHORTEST p = (a WHERE a.owner='owner0')-[e:Transfer]->(m)-[f:Transfer WHERE f.amount <> e.amount]->+(z)`)
}

// Point-to-point all-shortest search (tier-1): the endpoints lie on one
// grid edge, so the result is a single path while the enumerating BFS
// engine still explores the full product space with one admitted thread
// per shortest walk to every intermediate state. This is the workload
// shape the automaton engine turns from walk enumeration into plain graph
// search.
func BenchmarkAllShortestPointToPoint(b *testing.B) {
	g := dataset.Grid(8, 8)
	p := benchPlan(b, `
		MATCH ALL SHORTEST p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
		      (z WHERE z.owner='u7_0')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := EvalPlan(g, p, Config{})
		if err != nil || len(res.Rows) != 1 {
			b.Fatal(err, len(res.Rows))
		}
	}
}

// snbShape is one served query shape on the SNB graph the serving
// benchmark uses (SF 0.3, seed 42): its text and the 16 parameter sets
// that iterations cycle through, drawn as the serving workload draws
// them. The tier-1 SNB benchmarks time these shapes and TestSNBAllocs
// pins their allocations.
type snbShape struct {
	name, query string
	params      []Params
}

// snbCSR builds the SNB snapshot the shapes run on.
func snbCSR() *graph.CSR {
	return graph.Snapshot(dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.3, Seed: 42}))
}

// shortestSNBShapes are point-to-point shortest paths between two people:
// the source is drawn from the persons with 3,000–4,500 two-hop knows
// walks and the target from those with 3–6 knows edges, as the
// snb_traversal workload draws them, and the two texts are its
// all_shortest and any_shortest shapes.
func shortestSNBShapes(c *graph.CSR) []snbShape {
	pairs := snbPairs(c, 16, rand.New(rand.NewSource(1)))
	params := make([]Params, len(pairs))
	for i, pair := range pairs {
		params[i] = Params{"src": value.Str(pair[0]), "dst": value.Str(pair[1])}
	}
	return []snbShape{
		{"all_shortest", `MATCH ALL SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-+(b:Person WHERE b.firstName=$dst)`, params},
		{"any_shortest", `MATCH ANY SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-{1,4}(b:Person WHERE b.firstName=$dst)`, params},
	}
}

// triangleSNBShape is the snb_traversal workload's triangle: the start
// person is drawn like shortestSNBShapes' sources. The closing pattern
// binds a at its tail, so the plan seeds it from a once instead of from
// every c.
func triangleSNBShape(c *graph.CSR) snbShape {
	starts := snbPairs(c, 16, rand.New(rand.NewSource(1)))
	params := make([]Params, len(starts))
	for i, s := range starts {
		params[i] = Params{"name": value.Str(s[0])}
	}
	return snbShape{"triangle", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a)`, params}
}

// targetSNBShapes are the snb_traversal workload's two shapes whose end
// is known before the search starts: trail_1_3, whose last node has a
// country equality (the DFS prunes toward that country's persons), and
// colike_bindjoin, whose TRAIL pattern joins with both ends bound (solved
// per (a, b) pair). Start persons are drawn from the walk-count bands the
// workload uses: 6,000–10,000 three-hop walks and 3,000–4,500 two-hop ones.
func targetSNBShapes(c *graph.CSR) []snbShape {
	x := newSNBProxies(c)
	rng := rand.New(rand.NewSource(1))
	trails := draw(rng, x.band(x.w3, 6000, 10000), 16)
	starts := draw(rng, x.band(x.w2, 3000, 4500), 16)
	countries := draw(rng, x.countries, 32)
	trail := make([]Params, 16)
	colike := make([]Params, 16)
	for i := range trail {
		trail[i] = Params{"name": value.Str(trails[i]), "country": value.Str(countries[i])}
		colike[i] = Params{"name": value.Str(starts[i]), "country": value.Str(countries[16+i])}
	}
	return []snbShape{
		{"trail_1_3", `MATCH TRAIL (a:Person WHERE a.firstName=$name)-[k:knows]-{1,3}(b:Person WHERE b.country=$country)`, trail},
		{"colike_bindjoin", `MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)<-[:likes]-(b:Person WHERE b.country=$country), TRAIL (a)-[:knows]-{1,2}(b)`, colike},
	}
}

// preparedShortSNBShapes are the snb_prepared_short workload's four
// texts: every text seeds from a firstName or country equality, so this
// is the equality-index seed path plus a short expansion. Parameters come
// from bands of the structural proxies.
func preparedShortSNBShapes(c *graph.CSR) []snbShape {
	x := newSNBProxies(c)
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name, param, query string
		pool               []string
	}{
		{"friends_1hop", "name", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)`, x.band(x.w1, 8, 60)},
		{"friends_2hop", "name", `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)-[:knows]-(c:Person)`, x.band(x.w2, 300, 500)},
		{"likes_creator", "name", `MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)-[:hasCreator]->(c:Person)`, x.band(x.likes, 4, 8)},
		{"country_likes", "country", `MATCH (a:Person WHERE a.country=$country)-[l:likes]->(m:Post)`, x.countries},
	}
	out := make([]snbShape, len(shapes))
	for i, s := range shapes {
		vals := draw(rng, s.pool, 16)
		params := make([]Params, len(vals))
		for j, v := range vals {
			params[j] = Params{s.param: value.Str(v)}
		}
		out[i] = snbShape{s.name, s.query, params}
	}
	return out
}

// bench times the shape, cycling through its parameter sets.
func (s snbShape) bench(b *testing.B, c *graph.CSR) {
	p := benchPlan(b, s.query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPlan(c, p, Config{Params: s.params[i%len(s.params)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// Point-to-point shortest paths between two people on the SNB graph
// (tier-1), one sub-benchmark per text.
func BenchmarkShortestSNBPair(b *testing.B) {
	c := snbCSR()
	for _, s := range shortestSNBShapes(c) {
		b.Run(s.name, func(b *testing.B) { s.bench(b, c) })
	}
}

// The snb_traversal workload's triangle on the SNB graph (tier-1).
func BenchmarkTriangleSNB(b *testing.B) {
	c := snbCSR()
	triangleSNBShape(c).bench(b, c)
}

// The snb_traversal workload's trail_1_3 and colike_bindjoin on the SNB
// graph (tier-1), one sub-benchmark each.
func BenchmarkTraversalSNB(b *testing.B) {
	c := snbCSR()
	for _, s := range targetSNBShapes(c) {
		b.Run(s.name, func(b *testing.B) { s.bench(b, c) })
	}
}

// The snb_prepared_short workload's four texts on the SNB graph (tier-1),
// one sub-benchmark each.
func BenchmarkPreparedShortSNB(b *testing.B) {
	c := snbCSR()
	for _, s := range preparedShortSNBShapes(c) {
		b.Run(s.name, func(b *testing.B) { s.bench(b, c) })
	}
}

// TestSNBAllocs pins the allocations per query of the tier-1 SNB shapes,
// as the mean over each shape's 16 parameter sets after a warm-up run
// (which also builds the equality index the seeds read). Each ceiling is
// 1.2× the count measured when the pin was set; the counts were identical
// over repeated runs, with and without -race. Lower a ceiling when a
// change cuts allocations for good.
func TestSNBAllocs(t *testing.T) {
	ceilings := map[string]float64{
		"friends_1hop":    439,  // 366
		"friends_2hop":    5107, // 4,256
		"likes_creator":   160,  // 133
		"country_likes":   4656, // 3,880
		"all_shortest":    1789, // 1,491
		"any_shortest":    2302, // 1,918
		"triangle":        4957, // 4,131
		"trail_1_3":       2786, // 2,322
		"colike_bindjoin": 532,  // 443
	}
	c := snbCSR()
	shapes := append(preparedShortSNBShapes(c), shortestSNBShapes(c)...)
	shapes = append(shapes, triangleSNBShape(c))
	shapes = append(shapes, targetSNBShapes(c)...)
	for _, s := range shapes {
		p := benchPlan(t, s.query)
		run := func() {
			for _, params := range s.params {
				if _, err := EvalPlan(c, p, Config{Params: params}); err != nil {
					t.Fatal(err)
				}
			}
		}
		perQuery := testing.AllocsPerRun(2, run) / float64(len(s.params))
		t.Logf("%s: %.0f allocs/query", s.name, perQuery)
		if ceiling := ceilings[s.name]; perQuery > ceiling {
			t.Errorf("%s: %.0f allocs per query, want <= %.0f", s.name, perQuery, ceiling)
		}
	}
}

// snbProxies holds, per SNB person, the structural proxies the serving
// benchmark draws parameters by: knows degree (w1), two- and three-hop
// knows walks (w2, w3) and likes, plus the distinct countries in
// first-seen order.
type snbProxies struct {
	c                 *graph.CSR
	persons           []int
	w1, w2, w3, likes map[int]int
	countries         []string
}

func newSNBProxies(c *graph.CSR) *snbProxies {
	x := &snbProxies{c: c, w1: map[int]int{}, w2: map[int]int{}, w3: map[int]int{}, likes: map[int]int{}}
	c.NodesWithLabelIdx("Person", func(i int) bool {
		x.persons = append(x.persons, i)
		return true
	})
	out := func(p int, label string, f func(other int)) {
		c.Steps(p, func(e, other int, k graph.StepKind) bool {
			if (label == "knows" || k == graph.StepOut) && c.EdgeByIndex(e).HasLabel(label) {
				f(other)
			}
			return true
		})
	}
	seen := map[string]bool{}
	for _, p := range x.persons {
		out(p, "knows", func(int) { x.w1[p]++ })
		out(p, "likes", func(int) { x.likes[p]++ })
		if s, _ := c.NodeByIndex(p).Prop("country").AsString(); !seen[s] {
			seen[s] = true
			x.countries = append(x.countries, s)
		}
	}
	for _, p := range x.persons {
		out(p, "knows", func(o int) { x.w2[p] += x.w1[o] })
	}
	for _, p := range x.persons {
		out(p, "knows", func(o int) { x.w3[p] += x.w2[o] })
	}
	return x
}

// band lists, in insertion order, the firstNames of the persons whose
// proxy lies in [lo, hi].
func (x *snbProxies) band(w map[int]int, lo, hi int) []string {
	var out []string
	for _, p := range x.persons {
		if w[p] >= lo && w[p] <= hi {
			s, _ := x.c.NodeByIndex(p).Prop("firstName").AsString()
			out = append(out, s)
		}
	}
	return out
}

// draw picks n values from the pool by a permutation, cycling when the
// pool is smaller.
func draw(rng *rand.Rand, pool []string, n int) []string {
	perm := rng.Perm(len(pool))
	out := make([]string, n)
	for i := range out {
		out[i] = pool[perm[i%len(perm)]]
	}
	return out
}

// snbPairs draws n (source, target) firstName pairs from an SNB snapshot:
// sources with 3,000–4,500 two-hop knows walks, targets with 3–6 knows
// edges, each pool in insertion order and drawn by a permutation.
func snbPairs(c *graph.CSR, n int, rng *rand.Rand) [][2]string {
	x := newSNBProxies(c)
	srcs, dsts := x.band(x.w2, 3000, 4500), x.band(x.w1, 3, 6)
	sp, dp := rng.Perm(len(srcs)), rng.Perm(len(dsts))
	out := make([][2]string, n)
	for i := range out {
		out[i] = [2]string{srcs[sp[i%len(sp)]], dsts[dp[i%len(dp)]]}
	}
	return out
}

// Predicate evaluation in the hot loop.
func BenchmarkPrefilterEvaluation(b *testing.B) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 500, AvgDegree: 3, Seed: 11})
	p := benchPlan(b, `MATCH (x:Account)-[e:Transfer WHERE e.amount > 7M]->(y:Account WHERE y.isBlocked='no')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPlan(g, p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Join of comma-separated path patterns.
func BenchmarkGraphPatternJoin(b *testing.B) {
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 200, AvgDegree: 2, Cities: 8, Phones: 40,
		Seed: 13, UndirectedPhones: true,
	})
	p := benchPlan(b, `
		MATCH (x:Account)-[:isLocatedIn]->(c),
		      (x)~[:hasPhone]~(ph:Phone),
		      (x)-[t:Transfer]->(y)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalPlan(g, p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
