// Command benchgen regenerates the paper's figures, tables and worked
// examples on the implemented engine and prints a paper-vs-measured report
// (the source of EXPERIMENTS.md). Each experiment corresponds to a row of
// the DESIGN.md per-experiment index.
//
// Usage:
//
//	benchgen            # run all experiments, print the markdown report
//	benchgen -timeline  # print the Figure 10 standards timeline data
//	benchgen -snb 0.1   # generate the LDBC-SNB-flavored graph at the
//	                    # given scale factor (-snb-seed N) and print its
//	                    # shape: per-label cardinalities and the knows
//	                    # degree distribution
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gpml"
	"gpml/internal/baseline"
	"gpml/internal/dataset"
	"gpml/internal/graph"
)

func main() {
	timeline := flag.Bool("timeline", false, "print the Figure 10 timeline")
	snbSF := flag.Float64("snb", 0, "generate the SNB-flavored graph at this scale factor and print its shape")
	snbSeed := flag.Int64("snb-seed", 42, "seed for -snb generation")
	flag.Parse()
	if *timeline {
		printTimeline()
		return
	}
	if *snbSF > 0 {
		printSNB(*snbSF, *snbSeed)
		return
	}
	fail := 0
	fmt.Println("| Exp | Artifact | Paper expectation | Measured | Match |")
	fmt.Println("|-----|----------|-------------------|----------|-------|")
	for _, e := range experiments() {
		measured, ok := e.run()
		mark := "✓"
		if !ok {
			mark = "✗"
			fail++
		}
		fmt.Printf("| %s | %s | %s | %s | %s |\n", e.id, e.artifact, e.expect, measured, mark)
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "benchgen: %d experiments diverged\n", fail)
		os.Exit(1)
	}
}

type experiment struct {
	id       string
	artifact string
	expect   string
	run      func() (string, bool)
}

// mustRows runs a query on Fig 1 and returns its row count.
func mustRows(src string) int {
	res, err := gpml.Match(gpml.Fig1(), src)
	if err != nil {
		panic(err)
	}
	return len(res.Rows)
}

// paths runs a query binding path variable p and returns sorted path
// strings.
func paths(src string) []string {
	res, err := gpml.Match(gpml.Fig1(), src)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, row := range res.Rows {
		b, _ := row.Get("p")
		out = append(out, b.Path.String())
	}
	sort.Strings(out)
	return out
}

func experiments() []experiment {
	return []experiment{
		{"E1", "Figure 1 graph", "14 nodes, 22 edges", func() (string, bool) {
			g := dataset.Fig1()
			got := fmt.Sprintf("%d nodes, %d edges", g.NumNodes(), g.NumEdges())
			return got, got == "14 nodes, 22 edges"
		}},
		{"E2", "Figure 2 tabular export", "9 relations incl. CityCountry", func() (string, bool) {
			tables := gpml.Tabular(gpml.Fig1())
			names := make([]string, len(tables))
			for i, t := range tables {
				names[i] = t.Name
			}
			got := fmt.Sprintf("%d relations (%s)", len(tables), strings.Join(names, ", "))
			hasCC := false
			for _, n := range names {
				if n == "CityCountry" {
					hasCC = true
				}
			}
			return got, len(tables) == 9 && hasCC
		}},
		{"E3a", "Fig 3(a) node pattern", "1 blocked account (a4)", func() (string, bool) {
			n := mustRows(`MATCH (x:Account WHERE x.isBlocked='yes')`)
			return fmt.Sprintf("%d rows", n), n == 1
		}},
		{"E3b", "Fig 3(b) edge pattern", "transfer dated 3/1/2020 into a non-blocked→blocked pair: 1", func() (string, bool) {
			n := mustRows(`MATCH (x:Account WHERE x.isBlocked='no')-[e:Transfer WHERE e.date='3/1/2020']->(y:Account WHERE y.isBlocked='yes')`)
			return fmt.Sprintf("%d rows", n), n == 1
		}},
		{"E3c", "Fig 4 fraud pattern", "owner pairs (Aretha,Jay) and (Dave,Jay)", func() (string, bool) {
			res, err := gpml.Match(gpml.Fig1(), `
				MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->
				      (g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-
				      (y:Account WHERE y.isBlocked='yes'),
				      TRAIL (x)-[:Transfer]->+(y)`)
			if err != nil {
				panic(err)
			}
			pairs := map[string]bool{}
			for _, row := range res.Rows {
				x, _ := row.Get("x")
				y, _ := row.Get("y")
				pairs[fmt.Sprintf("%s→%s", x.Node, y.Node)] = true
			}
			keys := make([]string, 0, len(pairs))
			for k := range pairs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			got := strings.Join(keys, ", ")
			return got, got == "a2→a4, a6→a4"
		}},
		{"E4a", "§4.2 same-phone transfers", "2 bindings: (p1,a5,t8,a1), (p2,a3,t2,a2)", func() (string, bool) {
			n := mustRows(`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)`)
			return fmt.Sprintf("%d bindings", n), n == 2
		}},
		{"E4b", "§4.2 triangles", "the a1-a3-a5 transfer cycle, 3 rotations", func() (string, bool) {
			n := mustRows(`MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)`)
			return fmt.Sprintf("%d rows", n), n == 3
		}},
		{"E5", "Fig 5 edge orientations", "16 directed, 12 undirected traversals, 44 total with '-'", func() (string, bool) {
			r := mustRows(`MATCH (x)-[e]->(y)`)
			u := mustRows(`MATCH (x)~[e]~(y)`)
			a := mustRows(`MATCH (x)-[e]-(y)`)
			got := fmt.Sprintf("%d/%d/%d", r, u, a)
			return got, r == 16 && u == 12 && a == 44
		}},
		{"E6", "Fig 6 quantifiers + SUM postfilter", "chains {2,5} of >1M transfers with SUM>10M", func() (string, bool) {
			n := mustRows(`
				MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account)
				WHERE SUM(t.amount)>10M`)
			return fmt.Sprintf("%d rows", n), n > 0
		}},
		{"E7", "§4.5 union vs multiset", "| gives 2 rows; |+| gives 3", func() (string, bool) {
			u := mustRows(`MATCH (c:City) | (c:Country)`)
			m := mustRows(`MATCH (c:City) |+| (c:Country)`)
			return fmt.Sprintf("%d and %d", u, m), u == 2 && m == 3
		}},
		{"E8", "§4.6 conditional singletons", "illegal equi-join rejected; ? query returns y=a4 twice", func() (string, bool) {
			_, err := gpml.Compile(`MATCH [(x)->(y)] | [(x)->(z)], (y)->(w)`)
			n := mustRows(`
				MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(pp)]?
				WHERE y.isBlocked='yes' OR pp.isBlocked='yes'`)
			return fmt.Sprintf("rejected=%v, %d rows", err != nil, n), err != nil && n == 2
		}},
		{"E9", "§4.7 graphical predicates", "IS DIRECTED splits 32/12; SAME finds 3 triangles", func() (string, bool) {
			d := mustRows(`MATCH (x)-[e]-(y) WHERE e IS DIRECTED`)
			u := mustRows(`MATCH (x)-[e]-(y) WHERE NOT e IS DIRECTED`)
			s := mustRows(`MATCH (s)-[:Transfer]->()-[:Transfer]->()-[:Transfer]->(s3) WHERE SAME(s, s3)`)
			return fmt.Sprintf("%d/%d, %d", d, u, s), d == 32 && u == 12 && s == 3
		}},
		{"E10", "Fig 7 + §5.1 restrictors", "TRAIL Dave→Aretha = 3 paths; ACYCLIC = 2", func() (string, bool) {
			tr := paths(`MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`)
			ac := paths(`MATCH ACYCLIC p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`)
			return fmt.Sprintf("%d and %d", len(tr), len(ac)), len(tr) == 3 && len(ac) == 2
		}},
		{"E11", "Fig 8 + §5.1 selectors", "ANY SHORTEST = path(a6,t5,a3,t2,a2); ALL SHORTEST TRAIL a6→a2→a3 = 2", func() (string, bool) {
			anyP := paths(`MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`)
			all := paths(`MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')-[r:Transfer]->*(c WHERE c.owner='Mike')`)
			ok := len(anyP) == 1 && anyP[0] == "path(a6,t5,a3,t2,a2)" && len(all) == 2
			return fmt.Sprintf("%v; %d paths", anyP, len(all)), ok
		}},
		{"E12", "§5.2 prefilter vs postfilter", "prefilter: 1 path via a4; postfilter: empty (see note on t6)", func() (string, bool) {
			pre := paths(`MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+(q:Account WHERE q.isBlocked='yes')-[e2:Transfer]->+(r:Account WHERE r.owner='Charles')`)
			post := mustRows(`
				MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+(q:Account)-[e2:Transfer]->+(r:Account WHERE r.owner='Charles')
				WHERE q.isBlocked='yes'`)
			ok := len(pre) == 1 && pre[0] == "path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t6,a5)" && post == 0
			return fmt.Sprintf("%v; %d postfiltered", pre, post), ok
		}},
		{"E13", "§5.3 unbounded aggregates", "prefilter form rejected; postfilter and TRAIL forms empty", func() (string, bool) {
			_, err := gpml.Compile(`MATCH ALL SHORTEST [(x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1)>1]`)
			post := mustRows(`MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1`)
			trail := mustRows(`MATCH ALL SHORTEST [TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1]`)
			return fmt.Sprintf("rejected=%v, %d, %d", err != nil, post, trail), err != nil && post == 0 && trail == 0
		}},
		{"E14", "§6 running example", "2 reduced bindings (TRAIL); 1 (ALL SHORTEST); 4 (|+|)", func() (string, bool) {
			const base = `(a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ (a)`
			tr := mustRows(`MATCH TRAIL ` + base + ` [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]`)
			sh := mustRows(`MATCH ALL SHORTEST ` + base + ` [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]`)
			ms := mustRows(`MATCH TRAIL ` + base + ` [-[:isLocatedIn]->(c:City) |+| -[:isLocatedIn]->(c:Country)]`)
			got := fmt.Sprintf("%d/%d/%d", tr, sh, ms)
			return got, tr == 2 && sh == 1 && ms == 4
		}},
		{"E15", "Figure 9 host outputs", "same pattern: PGQ table and GQL graph view", func() (string, bool) {
			cols, err := gpml.ParseColumns("x.owner AS A, y.owner AS B")
			if err != nil {
				panic(err)
			}
			tbl, err := gpml.GraphTable(gpml.Fig1(), `MATCH (x:Account)-[e:Transfer WHERE e.amount>5M]->(y:Account)`, cols)
			if err != nil {
				panic(err)
			}
			res, err := gpml.Match(gpml.Fig1(), `MATCH (x:Account)-[e:Transfer WHERE e.amount>5M]->(y:Account)`)
			if err != nil {
				panic(err)
			}
			view, err := gpml.BuildGraphView(gpml.Fig1(), res)
			if err != nil {
				panic(err)
			}
			got := fmt.Sprintf("table %d rows; view %d nodes %d edges",
				tbl.NumRows(), view.Graph.NumNodes(), view.Graph.NumEdges())
			return got, tbl.NumRows() == 7 && view.Graph.NumEdges() == 7
		}},
		{"E17", "engine vs baseline (sanity)", "engine TRAIL set == baseline trails; shortest lengths agree", func() (string, bool) {
			g := dataset.Fig1()
			res, err := gpml.Match(g, `MATCH TRAIL p = (a WHERE a.owner='Dave')-[e:Transfer]->*(b WHERE b.owner='Aretha')`)
			if err != nil {
				panic(err)
			}
			base := baseline.EnumerateTrails(g, "a6", "a2", "Transfer")
			bp, _ := baseline.ShortestPath(g, "a6", "a2", "Transfer")
			got := fmt.Sprintf("engine %d, baseline %d, shortest len %d", len(res.Rows), len(base), bp.Len())
			return got, len(res.Rows) == len(base) && bp.Len() == 2
		}},
		{"S1", "Store backends", "map, CSR and CSR-parallel agree on every workload query", func() (string, bool) {
			g := dataset.Random(dataset.RandomConfig{
				Accounts: 200, AvgDegree: 2, Cities: 12, Phones: 30,
				BlockedFraction: 0.1, Seed: 11, UndirectedPhones: true,
			})
			snap := gpml.Snapshot(g)
			queries := []string{
				`MATCH (x:Account WHERE x.isBlocked='yes')-[t:Transfer]->(y:Account)`,
				`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)`,
				`MATCH ANY SHORTEST p = (a:Account WHERE a.owner='owner0')-[:Transfer]->+(z:City)`,
			}
			checked := 0
			for _, src := range queries {
				q := gpml.MustCompile(src)
				seq, err := q.Eval(g)
				if err != nil {
					panic(err)
				}
				csr, err := q.Eval(nil, gpml.WithStore(snap))
				if err != nil {
					panic(err)
				}
				par, err := q.Eval(nil, gpml.WithStore(snap), gpml.WithParallelism(4))
				if err != nil {
					panic(err)
				}
				if gpml.FormatResult(seq) != gpml.FormatResult(csr) || gpml.FormatResult(csr) != gpml.FormatResult(par) {
					return fmt.Sprintf("backends diverge on %s", src), false
				}
				checked++
			}
			return fmt.Sprintf("%d queries identical across 3 backends", checked), checked == len(queries)
		}},
		{"S4", "Streaming pipeline", "first-row and LIMIT-k ≥10× faster than full materialization, Stream+Collect identical to Eval", func() (string, bool) {
			g := dataset.Random(dataset.RandomConfig{
				Accounts: 2000, AvgDegree: 4, Cities: 15, BlockedFraction: 0.1, Seed: 7,
			})
			q := gpml.MustCompile(`MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`)
			ctx := context.Background()

			// Full materialization: total time and throughput.
			t0 := time.Now()
			full, err := q.Eval(g)
			if err != nil {
				panic(err)
			}
			fullD := time.Since(t0)
			rate := float64(len(full.Rows)) / fullD.Seconds()

			// Streaming parity: collect-all over the pull pipeline must be
			// byte-identical to Eval.
			rows, err := q.Stream(ctx, g)
			if err != nil {
				panic(err)
			}
			collected, err := rows.Collect()
			if err != nil {
				panic(err)
			}
			if gpml.FormatResult(collected) != gpml.FormatResult(full) {
				return "Stream+Collect diverges from Eval", false
			}

			// First-row latency.
			t0 = time.Now()
			rows, err = q.Stream(ctx, g)
			if err != nil {
				panic(err)
			}
			if !rows.Next() {
				panic("no rows")
			}
			firstD := time.Since(t0)
			rows.Close()

			// LIMIT 1/10/100 through the pushdown; best of three runs, so
			// one GC pause inherited from the full materialization above
			// does not skew a sub-millisecond measurement.
			var limD [3]time.Duration
			for i, k := range []int{1, 10, 100} {
				best := time.Duration(-1)
				for rep := 0; rep < 3; rep++ {
					t0 = time.Now()
					res, err := q.Eval(g, gpml.WithLimit(k))
					if err != nil {
						panic(err)
					}
					if d := time.Since(t0); best < 0 || d < best {
						best = d
					}
					if len(res.Rows) != k {
						return fmt.Sprintf("LIMIT %d returned %d rows", k, len(res.Rows)), false
					}
				}
				limD[i] = best
			}
			firstX := float64(fullD) / float64(firstD)
			lim100X := float64(fullD) / float64(limD[2])
			got := fmt.Sprintf("%d rows, %.2g rows/s full; first row %.0f×, LIMIT 1/10/100 %.0f×/%.0f×/%.0f× faster",
				len(full.Rows), rate, firstX,
				float64(fullD)/float64(limD[0]), float64(fullD)/float64(limD[1]), lim100X)
			return got, firstX >= 10 && lim100X >= 10
		}},
	}
}

// printTimeline reproduces Figure 10 (the SQL/PGQ and GQL standards
// schedule) as data. It is documentation, not an executable experiment.
func printTimeline() {
	rows := []struct{ date, pgq, gql string }{
		{"2017", "Work started", ""},
		{"2018", "", "Work started"},
		{"2021-02-07", "CD Ballot End", ""},
		{"2022-02-20", "", "CD Ballot End"},
		{"2022-12-04", "DIS Ballot End", ""},
		{"2023-01-30", "Final Text to ISO", ""},
		{"2023-03-13", "SQL/PGQ IS Published", ""},
		{"2023-05-21", "", "DIS Ballot End"},
		{"2023-07-30", "", "Final Text to ISO"},
		{"2023-09-10", "", "GQL IS Published"},
	}
	fmt.Println("| Date | SQL/PGQ | GQL |")
	fmt.Println("|------|---------|-----|")
	for _, r := range rows {
		fmt.Printf("| %s | %s | %s |\n", r.date, r.pgq, r.gql)
	}
}

// printSNB builds the LDBC-SNB-flavored graph at the given scale factor
// and reports its shape: per-label cardinalities and the knows degree
// distribution. It is the scale tier's dataset inspection tool — run it
// before pointing the bench-scale benchmarks at a new scale factor to see
// what they will traverse.
func printSNB(sf float64, seed int64) {
	start := time.Now()
	g := dataset.SNB(dataset.SNBConfig{ScaleFactor: sf, Seed: seed})
	build := time.Since(start)

	nodeByLabel := map[string]int{}
	g.Nodes(func(n *graph.Node) bool {
		for _, l := range n.Labels {
			nodeByLabel[l]++
		}
		return true
	})
	edgeByLabel := map[string]int{}
	g.Edges(func(e *graph.Edge) bool {
		for _, l := range e.Labels {
			edgeByLabel[l]++
		}
		return true
	})
	knows := map[graph.NodeID]int{}
	g.Edges(func(e *graph.Edge) bool {
		for _, l := range e.Labels {
			if l == "knows" {
				knows[e.Source]++
				if e.Target != e.Source {
					knows[e.Target]++
				}
			}
		}
		return true
	})
	degs := make([]int, 0, len(knows))
	sum := 0
	for _, d := range knows {
		degs = append(degs, d)
		sum += d
	}
	sort.Ints(degs)
	pct := func(p float64) int {
		if len(degs) == 0 {
			return 0
		}
		i := int(p * float64(len(degs)-1))
		return degs[i]
	}

	fmt.Printf("SNB scale factor %g (seed %d): %d nodes, %d edges, built in %s\n",
		sf, seed, g.NumNodes(), g.NumEdges(), build.Round(time.Millisecond))
	fmt.Println("| Kind | Label | Count |")
	fmt.Println("|------|-------|-------|")
	for _, l := range sortedKeys(nodeByLabel) {
		fmt.Printf("| node | %s | %d |\n", l, nodeByLabel[l])
	}
	for _, l := range sortedKeys(edgeByLabel) {
		fmt.Printf("| edge | %s | %d |\n", l, edgeByLabel[l])
	}
	if len(degs) > 0 {
		fmt.Printf("knows degree: mean %.1f, p50 %d, p90 %d, p99 %d, max %d\n",
			float64(sum)/float64(len(degs)), pct(0.50), pct(0.90), pct(0.99), degs[len(degs)-1])
	}
}

// sortedKeys returns the map's keys in lexicographic order, for stable
// report output.
func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
