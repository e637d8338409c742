// Benchmark harness: one benchmark family per figure and table of the
// paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
// paper-vs-measured record), plus scaling sweeps on synthetic graphs and
// the ablation benches of DESIGN.md §5.
package gpml_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gpml"
	"gpml/internal/baseline"
	"gpml/internal/dataset"
)

// mustEval compiles and evaluates, reporting rows; helper for benches.
func mustEval(b *testing.B, g *gpml.Graph, src string, opts ...gpml.Option) int {
	b.Helper()
	res, err := gpml.Match(g, src, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return len(res.Rows)
}

// ---------------------------------------------------------------------------
// E1/E2: Figures 1 and 2.
// ---------------------------------------------------------------------------

func BenchmarkFig1_BuildGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gpml.Fig1()
		if g.NumNodes() != 14 {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkFig2_TabularExport(b *testing.B) {
	g := gpml.Fig1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tables := gpml.Tabular(g); len(tables) != 9 {
			b.Fatal("bad export")
		}
	}
}

// ---------------------------------------------------------------------------
// E3: Figure 3 patterns and the Figure 4 fraud query.
// ---------------------------------------------------------------------------

func BenchmarkFig3_NodePattern(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='yes')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := q.Eval(g); err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_EdgePattern(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='no')-[e:Transfer WHERE e.date='3/1/2020']->(y:Account WHERE y.isBlocked='yes')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := q.Eval(g); err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_PathPattern(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH TRAIL (x:Account WHERE x.isBlocked='no')-[t:Transfer]->+(y:Account WHERE y.isBlocked='yes')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_FraudQuery(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`
		MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->
		      (gc:City WHERE gc.name='Ankh-Morpork')<-[:isLocatedIn]-
		      (y:Account WHERE y.isBlocked='yes'),
		      TRAIL (x)-[:Transfer]->+(y)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := q.Eval(g); err != nil || len(res.Rows) != 4 {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E4: §4.2 queries.
// ---------------------------------------------------------------------------

func BenchmarkSec4_LengthTwoPaths(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH (s)-[e]->(m)-[f]->(t)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec4_SamePhoneTransfers(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := q.Eval(g); err != nil || len(res.Rows) != 2 {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E5: Figure 5 — the seven edge orientations.
// ---------------------------------------------------------------------------

func BenchmarkFig5_Orientation(b *testing.B) {
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 300, AvgDegree: 3, Cities: 10, Phones: 50,
		BlockedFraction: 0.05, Seed: 7, UndirectedPhones: true,
	})
	for name, src := range map[string]string{
		"left":        `MATCH (x)<-[e]-(y)`,
		"undirected":  `MATCH (x)~[e]~(y)`,
		"right":       `MATCH (x)-[e]->(y)`,
		"left_undir":  `MATCH (x)<~[e]~(y)`,
		"undir_right": `MATCH (x)~[e]~>(y)`,
		"left_right":  `MATCH (x)<-[e]->(y)`,
		"any":         `MATCH (x)-[e]-(y)`,
	} {
		q := gpml.MustCompile(src)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6: Figure 6 — quantifiers.
// ---------------------------------------------------------------------------

func BenchmarkFig6_Quantifier(b *testing.B) {
	g := gpml.Fig1()
	for name, src := range map[string]string{
		"star_trail":  `MATCH TRAIL (a:Account)-[t:Transfer]->*(c:Account)`,
		"plus_trail":  `MATCH TRAIL (a:Account)-[t:Transfer]->+(c:Account)`,
		"bounded_2_5": `MATCH (a:Account)-[t:Transfer]->{2,5}(c:Account)`,
		"lower_3":     `MATCH TRAIL (a:Account)-[t:Transfer]->{3,}(c:Account)`,
		"group_sum": `MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (c:Account)
		              WHERE SUM(t.amount)>10M`,
	} {
		q := gpml.MustCompile(src)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7/E8/E9: §4.5 union and alternation, §4.6 optionality, §4.7 predicates.
// ---------------------------------------------------------------------------

func BenchmarkSec45_UnionVsAlt(b *testing.B) {
	g := gpml.Fig1()
	union := gpml.MustCompile(`MATCH ->{1,5} | ->{3,7}`)
	alt := gpml.MustCompile(`MATCH ->{1,5} |+| ->{3,7}`)
	b.Run("set_union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := union.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multiset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := alt.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSec46_Optional(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`
		MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]?
		WHERE y.isBlocked='yes' OR p.isBlocked='yes'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := q.Eval(g); err != nil || len(res.Rows) != 2 {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec47_Predicates(b *testing.B) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`
		MATCH (x)-[e]-(y)
		WHERE e IS DIRECTED AND x IS SOURCE OF e AND ALL_DIFFERENT(x, y)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Eval(g); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E10: Figure 7 — restrictors on an adversarial cyclic graph.
// ---------------------------------------------------------------------------

func BenchmarkFig7_Restrictor(b *testing.B) {
	g := dataset.Cycle(64)
	for _, restr := range []string{"TRAIL", "ACYCLIC", "SIMPLE"} {
		q := gpml.MustCompile(fmt.Sprintf(
			`MATCH %s (a WHERE a.owner='owner0')-[e:Transfer]->*(z WHERE z.owner='owner63')`, restr))
		b.Run(restr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res, err := q.Eval(g); err != nil || len(res.Rows) != 1 {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E11: Figure 8 — selectors.
// ---------------------------------------------------------------------------

func BenchmarkFig8_Selector(b *testing.B) {
	g := dataset.Grid(6, 6)
	for name, sel := range map[string]string{
		"any_shortest":     "ANY SHORTEST",
		"all_shortest":     "ALL SHORTEST",
		"any":              "ANY",
		"any_3":            "ANY 3",
		"shortest_3":       "SHORTEST 3",
		"shortest_2_group": "SHORTEST 2 GROUP",
	} {
		q := gpml.MustCompile(fmt.Sprintf(`
			MATCH %s p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
			      (z WHERE z.owner='u5_5')`, sel))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E12/E14: §5.2 and the §6 pipeline.
// ---------------------------------------------------------------------------

func BenchmarkSec52_PrePostFilter(b *testing.B) {
	g := gpml.Fig1()
	pre := gpml.MustCompile(`
		MATCH ALL SHORTEST (x WHERE x.owner='Scott')-[e1:Transfer]->+
		      (q:Account WHERE q.isBlocked='yes')-[e2:Transfer]->+
		      (r:Account WHERE r.owner='Charles')`)
	post := gpml.MustCompile(`
		MATCH ALL SHORTEST (x WHERE x.owner='Scott')-[e1:Transfer]->+
		      (q:Account)-[e2:Transfer]->+
		      (r:Account WHERE r.owner='Charles')
		WHERE q.isBlocked='yes'`)
	b.Run("prefilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pre.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("postfilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := post.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const section6Query = `
	MATCH TRAIL (a WHERE a.owner='Jay')
	      [-[t:Transfer WHERE t.amount>5M]->]+
	      (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]`

func BenchmarkSec6_Pipeline(b *testing.B) {
	g := gpml.Fig1()
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gpml.Compile(section6Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	q := gpml.MustCompile(section6Query)
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, err := q.Eval(g); err != nil || len(res.Rows) != 2 {
				b.Fatal(err)
			}
		}
	})
	b.Run("end_to_end", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := mustEval(b, g, section6Query); n != 2 {
				b.Fatal("bad result")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E15: Figure 9 — host-language outputs.
// ---------------------------------------------------------------------------

func BenchmarkFig9_Hosts(b *testing.B) {
	g := gpml.Fig1()
	const match = `MATCH (x:Account)-[e:Transfer WHERE e.amount>5M]->(y:Account)`
	cols, err := gpml.ParseColumns("x.owner AS A, y.owner AS B")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pgq_graph_table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if tbl, err := gpml.GraphTable(g, match, cols); err != nil || tbl.NumRows() != 7 {
				b.Fatal(err)
			}
		}
	})
	q := gpml.MustCompile(match)
	b.Run("gql_graph_view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := q.Eval(g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gpml.BuildGraphView(g, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E17: scaling sweeps and baseline comparisons. The shape the paper's
// design predicts: selector search (BFS) stays polynomial where naive
// enumeration explodes; restrictor DFS sits between.
// ---------------------------------------------------------------------------

func BenchmarkScale_AnyShortestVsNaive(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		g := dataset.LaunderingRings(n/4, 4, n, int64(n))
		first := "owner0"
		last := fmt.Sprintf("owner%d", n-1)
		q := gpml.MustCompile(fmt.Sprintf(`
			MATCH ANY SHORTEST p = (a WHERE a.owner='%s')-[e:Transfer]->+
			      (z WHERE z.owner='%s')`, first, last))
		b.Run(fmt.Sprintf("engine_bfs_n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive_walks_n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.EnumerateWalks(g, "a0", gpml.NodeID(fmt.Sprintf("a%d", n-1)), "Transfer", n)
			}
		})
	}
}

func BenchmarkScale_TrailDFS(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		g := dataset.Chain(n)
		q := gpml.MustCompile(`MATCH TRAIL (a WHERE a.owner='owner0')-[e:Transfer]->*(z)`)
		b.Run(fmt.Sprintf("chain_n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScale_NodeScan(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		g := dataset.Random(dataset.RandomConfig{Accounts: n, AvgDegree: 2, Seed: 1})
		q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='yes')`)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScale_ShortestGrid(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		g := dataset.Grid(n, n)
		q := gpml.MustCompile(fmt.Sprintf(`
			MATCH ANY SHORTEST p = (a WHERE a.owner='u0_0')-[e:Transfer]->+
			      (z WHERE z.owner='u%d_%d')`, n-1, n-1))
		b.Run(fmt.Sprintf("grid_%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).
// ---------------------------------------------------------------------------

// Ablation 1: lazy expansion (one {1,k} query) vs eager expansion (k
// separate rigid queries {i,i}, the paper's literal §6.3 model).
func BenchmarkAblation_EagerVsLazy(b *testing.B) {
	g := gpml.Fig1()
	const k = 6
	lazy := gpml.MustCompile(fmt.Sprintf(
		`MATCH (a:Account)-[t:Transfer]->{1,%d}(z:Account)`, k))
	var eager []*gpml.Query
	for i := 1; i <= k; i++ {
		eager = append(eager, gpml.MustCompile(fmt.Sprintf(
			`MATCH (a:Account)-[t:Transfer]->{%d,%d}(z:Account)`, i, i)))
	}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lazy.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range eager {
				if _, err := q.Eval(g); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Bind-join planner: a selective pattern joined with a
// two-hop expansion whose full enumeration dwarfs the join result. With
// the planner, the expansion runs only from the selective pattern's
// endpoint bindings.
// ---------------------------------------------------------------------------

func BenchmarkBindJoin_SelectiveTwoPattern(b *testing.B) {
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 1500, AvgDegree: 4, Cities: 20, BlockedFraction: 0.01, Seed: 5,
	})
	snap := gpml.Snapshot(g)
	q := gpml.MustCompile(`
		MATCH (x:Account WHERE x.isBlocked='yes')-[:isLocatedIn]->(c:City),
		      (x)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`)
	rows := len(mustResult(b, q, g))
	run := func(b *testing.B, opts ...gpml.Option) {
		for i := 0; i < b.N; i++ {
			res, err := q.Eval(g, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != rows {
				b.Fatalf("got %d rows, want %d", len(res.Rows), rows)
			}
		}
	}
	b.Run("bind_join", func(b *testing.B) { run(b) })
	b.Run("bind_join_csr", func(b *testing.B) { run(b, gpml.WithStore(snap)) })
}

// ---------------------------------------------------------------------------
// Streaming pipeline: first-row latency and LIMIT pushdown. The two-hop
// transfer pattern yields hundreds of thousands of rows on this graph, so
// the gap between "first row" / "first k rows" and full materialization is
// the streaming refactor's whole point. Tier-1 tracked.
// ---------------------------------------------------------------------------

func streamBenchGraph() *gpml.Graph {
	return dataset.Random(dataset.RandomConfig{
		Accounts: 2000, AvgDegree: 4, Cities: 15, BlockedFraction: 0.1, Seed: 7,
	})
}

const streamBenchQuery = `MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`

func BenchmarkStreamFirstRow(b *testing.B) {
	g := streamBenchGraph()
	q := gpml.MustCompile(streamBenchQuery)
	b.Run("stream_first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := q.Stream(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			if !rows.Next() {
				b.Fatal("no rows")
			}
			rows.Close()
		}
	})
	b.Run("eval_full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLimitPushdown(b *testing.B) {
	g := streamBenchGraph()
	q := gpml.MustCompile(streamBenchQuery)
	run := func(b *testing.B, opts ...gpml.Option) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Eval(g, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("limit_1", func(b *testing.B) { run(b, gpml.WithLimit(1)) })
	b.Run("limit_100", func(b *testing.B) { run(b, gpml.WithLimit(100)) })
	b.Run("full", func(b *testing.B) { run(b) })
}

// mustResult evaluates a compiled query, failing the benchmark on error.
func mustResult(b *testing.B, q *gpml.Query, g *gpml.Graph) []*gpml.Row {
	b.Helper()
	res, err := q.Eval(g)
	if err != nil {
		b.Fatal(err)
	}
	return res.Rows
}

// Ablation 4: join order for comma-joined patterns — selective pattern
// first vs last.
func BenchmarkAblation_JoinOrder(b *testing.B) {
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 400, AvgDegree: 3, Cities: 5, Seed: 3, BlockedFraction: 0.01,
	})
	selectiveFirst := gpml.MustCompile(`
		MATCH (x:Account WHERE x.isBlocked='yes')-[:isLocatedIn]->(c),
		      (x)-[t:Transfer]->(y)`)
	selectiveLast := gpml.MustCompile(`
		MATCH (x)-[t:Transfer]->(y),
		      (x:Account WHERE x.isBlocked='yes')-[:isLocatedIn]->(c)`)
	b.Run("selective_first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selectiveFirst.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("selective_last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selectiveLast.Eval(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Store backends: the map graph (answering from its memoized snapshot) vs
// an explicit CSR snapshot and label-indexed seeding.
// The noise graph buries the Account seeds under City/Phone nodes, so the
// label index skips most of the node scan.
// ---------------------------------------------------------------------------

func storeBenchGraph() *gpml.Graph {
	return dataset.Random(dataset.RandomConfig{
		Accounts: 400, AvgDegree: 2, Cities: 3000, Phones: 3000,
		BlockedFraction: 0.05, Seed: 17, UndirectedPhones: true,
	})
}

func BenchmarkStore_LabeledSeed(b *testing.B) {
	g := storeBenchGraph()
	snap := gpml.Snapshot(g)
	q := gpml.MustCompile(`MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(y:Account)`)
	rows := mustEval(b, g, `MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(y:Account)`)
	run := func(b *testing.B, opts ...gpml.Option) {
		for i := 0; i < b.N; i++ {
			res, err := q.Eval(g, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != rows {
				b.Fatalf("got %d rows, want %d", len(res.Rows), rows)
			}
		}
	}
	b.Run("map", func(b *testing.B) { run(b) })
	b.Run("csr", func(b *testing.B) { run(b, gpml.WithStore(snap)) })
}

// The representative labeled-seed shape: a TRAIL reachability query
// between flagged accounts.
func BenchmarkStore_TransferReach(b *testing.B) {
	g := dataset.LaunderingRings(16, 5, 24, 9)
	snap := gpml.Snapshot(g)
	q := gpml.MustCompile(`MATCH TRAIL (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->+(z:Account WHERE z.isBlocked='yes')`)
	run := func(b *testing.B, opts ...gpml.Option) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Eval(g, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("map", func(b *testing.B) { run(b) })
	b.Run("csr", func(b *testing.B) { run(b, gpml.WithStore(snap)) })
}

// The overlay serving claim: readers on an epoch-snapshot overlay stay
// near pure-CSR latency while a writer sustains mutation batches and
// background compactions churn underneath. csr-read is the floor,
// overlay-read-clean isolates the epoch indirection, overlay-read-mixed
// runs the full contended workload and reports the sustained writer
// throughput as muts/s (the writer churns a bounded scratch region —
// adds, edges and detach-deletes — so epochs always carry live delta,
// tombstones and override traffic without growing the graph).
func BenchmarkOverlayMixedReadWrite(b *testing.B) {
	base := gpml.Snapshot(storeBenchGraph())
	q := gpml.MustCompile(`MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(y:Account)`)
	wantRes, err := q.EvalStore(base)
	if err != nil {
		b.Fatal(err)
	}
	want := len(wantRes.Rows)
	read := func(b *testing.B, s gpml.Store) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := q.EvalStore(s)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != want {
				b.Fatalf("got %d rows, want %d", len(res.Rows), want)
			}
		}
	}
	b.Run("csr-read", func(b *testing.B) { read(b, base) })
	b.Run("overlay-read-clean", func(b *testing.B) { read(b, gpml.NewOverlayFromCSR(base)) })
	b.Run("overlay-read-mixed", func(b *testing.B) {
		ov := gpml.NewOverlayFromCSR(base)
		stop := make(chan struct{})
		done := make(chan struct{})
		var muts atomic.Int64
		go func() {
			defer close(done)
			const span = 128 // scratch nodes per generation
			for gen := 0; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := ov.Begin()
				ops := 0
				for j := 0; j < span; j++ {
					id := gpml.NodeID(fmt.Sprintf("m%d_%d", gen, j))
					batch.AddNode(id, []string{"Scratch"}, map[string]gpml.Value{"g": gpml.Int(int64(gen))})
					ops++
					if j > 0 {
						batch.AddEdge(gpml.EdgeID(fmt.Sprintf("me%d_%d", gen, j)), id,
							gpml.NodeID(fmt.Sprintf("m%d_%d", gen, j-1)), []string{"Scratch"}, nil)
						ops++
					}
				}
				if gen > 0 {
					// Detach-delete the previous generation: every node
					// takes its edges with it, so the live graph stays
					// bounded while tombstones flow through compaction.
					for j := 0; j < span; j++ {
						batch.DeleteNode(gpml.NodeID(fmt.Sprintf("m%d_%d", gen-1, j)))
						ops++
					}
				}
				if err := ov.Apply(batch); err != nil {
					b.Error(err)
					return
				}
				muts.Add(int64(ops))
				// Pace the writer to comfortably above the 10k muts/s
				// serving claim without turning the bench into a GC
				// stress test of back-to-back compactions (CI runners
				// may have a single core for readers, writer and
				// compactor together; the effective cycle stretches by a
				// scheduler quantum there).
				time.Sleep(5 * time.Millisecond)
			}
		}()
		read(b, ov)
		elapsed := b.Elapsed()
		close(stop)
		<-done
		ov.Wait()
		if s := elapsed.Seconds(); s > 0 {
			b.ReportMetric(float64(muts.Load())/s, "muts/s")
		}
	})
}

func BenchmarkStore_Snapshot(b *testing.B) {
	g := storeBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := gpml.Snapshot(g); s.NumNodes() != g.NumNodes() {
			b.Fatal("bad snapshot")
		}
	}
}

// Compilation throughput across representative query shapes.
func BenchmarkCompile(b *testing.B) {
	queries := map[string]string{
		"node":       `MATCH (x:Account WHERE x.isBlocked='no')`,
		"path":       `MATCH (a)-[e:Transfer]->(b)-[f:Transfer]->(c)`,
		"quantified": `MATCH TRAIL (a) [-[t:Transfer WHERE t.amount>5M]->]+ (a)`,
		"section6":   section6Query,
	}
	for name, src := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gpml.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
