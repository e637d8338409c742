package eval

import (
	"testing"

	"gpml/internal/dataset"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
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
