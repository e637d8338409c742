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

func benchPlan(b *testing.B, src string) *plan.Plan {
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

// Selector-bounded all-shortest search; the automaton engine runs this as
// a product-graph BFS (tier-1 bench).
func BenchmarkBFSAllShortest(b *testing.B) {
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

// Point-to-point shortest paths between two people on the SNB graph the
// serving benchmark uses (SF 0.3, seed 42), tier-1: the source is drawn
// from the persons with 3,000–4,500 two-hop knows walks and the target
// from those with 3–6 knows edges, as the snb_traversal workload draws
// them, and the two texts are its all_shortest and any_shortest shapes.
// Iterations cycle through 16 fixed pairs.
func BenchmarkShortestSNBPair(b *testing.B) {
	c := graph.Snapshot(dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.3, Seed: 42}))
	pairs := snbPairs(c, 16, rand.New(rand.NewSource(1)))
	for _, bc := range []struct{ name, query string }{
		{"all_shortest", `MATCH ALL SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-+(b:Person WHERE b.firstName=$dst)`},
		{"any_shortest", `MATCH ANY SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-{1,4}(b:Person WHERE b.firstName=$dst)`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := benchPlan(b, bc.query)
			for i := 0; i < b.N; i++ {
				pair := pairs[i%len(pairs)]
				cfg := Config{Params: Params{"src": value.Str(pair[0]), "dst": value.Str(pair[1])}}
				if _, err := EvalPlan(c, p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The snb_traversal workload's triangle on the same SNB graph (tier-1): the
// start person is drawn like BenchmarkShortestSNBPair's sources, from the
// persons with 3,000–4,500 two-hop knows walks, as the workload draws it,
// and iterations cycle through 16 of them. The closing pattern binds a at
// its tail, so the plan seeds it from a once instead of from every c.
func BenchmarkTriangleSNB(b *testing.B) {
	c := graph.Snapshot(dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.3, Seed: 42}))
	starts := snbPairs(c, 16, rand.New(rand.NewSource(1)))
	p := benchPlan(b, `MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a)`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Params: Params{"name": value.Str(starts[i%len(starts)][0])}}
		if _, err := EvalPlan(c, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// snbPairs draws n (source, target) firstName pairs from an SNB snapshot:
// sources with 3,000–4,500 two-hop knows walks, targets with 3–6 knows
// edges, each pool in insertion order and drawn by a permutation.
func snbPairs(c *graph.CSR, n int, rng *rand.Rand) [][2]string {
	knows := func(p int, f func(other int)) {
		c.Steps(p, func(e, other int, _ graph.StepKind) bool {
			if c.EdgeByIndex(e).HasLabel("knows") {
				f(other)
			}
			return true
		})
	}
	var persons []int
	c.NodesWithLabelIdx("Person", func(i int) bool {
		persons = append(persons, i)
		return true
	})
	w1, w2 := map[int]int{}, map[int]int{}
	for _, p := range persons {
		knows(p, func(int) { w1[p]++ })
	}
	for _, p := range persons {
		knows(p, func(o int) { w2[p] += w1[o] })
	}
	band := func(w map[int]int, lo, hi int) []string {
		var out []string
		for _, p := range persons {
			if w[p] >= lo && w[p] <= hi {
				s, _ := c.NodeByIndex(p).Prop("firstName").AsString()
				out = append(out, s)
			}
		}
		return out
	}
	srcs, dsts := band(w2, 3000, 4500), band(w1, 3, 6)
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
