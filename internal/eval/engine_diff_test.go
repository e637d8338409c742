package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Differential battery: every pattern the automaton engine takes must
// produce byte-identical reduced bindings to the enumerating engine on
// the same store. engineFor picks the engine from the plan alone and
// production code has no way to override it, so the enumerating side is
// assembled here: seedRunner takes the engine as an argument, and
// enumeratingMatch runs the §6 stage order around it. The templates cover
// the eligible space — unbounded and bounded quantifiers, unions, multiset
// alternation, optionals, the mixed orientations, memoryless WHEREs — and
// the graphs are randomized over sizes, degrees and seeds, plus the
// structural corner cases (multi-edges, self-loops) and the paper's
// Figure 1.
var diffQueries = []string{
	`MATCH ALL SHORTEST p = (a)-[e:Transfer]->+(b)`,
	`MATCH ALL SHORTEST p = (a:Account)-[e:Transfer]->+(b WHERE b.isBlocked='yes')`,
	`MATCH ALL SHORTEST (a)-[e:Transfer]-{1,4}(b)`,
	`MATCH ALL SHORTEST p = (a:Account) [-[e:Transfer]->() | <-[f:Transfer]-()]{1,4} (b)`,
	`MATCH ALL SHORTEST p = (a:Account) [-[e:Transfer]->() |+| -[e:Transfer]->()]{1,3} (b)`,
	`MATCH ANY SHORTEST p = (a WHERE a.owner='owner0')-[e:Transfer]->{1,6}(b)`,
	`MATCH ANY (x:Account) [-[e:Transfer]->(m)]? -[f:Transfer]->{1,3}(y)`,
	`MATCH ANY SHORTEST (p:Phone)~[e:hasPhone]~{1,3}(q)`,
	`MATCH ALL SHORTEST (a:Account)-[e:Transfer WHERE e.amount > 3M]->{1,5}(b:Account)`,
	`MATCH ALL SHORTEST (x) [(y:Account)]{0,2} (z)-[e:Transfer]->{1,2}(w)`,
	// The selector shapes of the root cross-backend battery (store_test.go)
	// and the Figure 1 walkthrough.
	`MATCH ANY SHORTEST p = (a WHERE a.owner='owner0')-[:Transfer]->+(z:Account WHERE z.isBlocked='yes')`,
	`MATCH ALL SHORTEST p = (a:Account)-[t:Transfer]->{1,4}(z:Account)`,
	`MATCH ANY SHORTEST p = (a WHERE a.owner='owner0')-[t]-{1,3}(z)`,
	`MATCH SHORTEST 2 p = (a WHERE a.owner='owner0')-[:Transfer]->+(z:Account)`,
	`MATCH ALL SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->+(b WHERE b.owner='Aretha')`,
	`MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->{1,4}(b)`,
}

// cornerGraph holds the structural corner cases beside a small banking
// shape: directed and undirected multi-edges and self-loops.
func cornerGraph() *graph.Graph {
	b := graph.NewBuilder()
	for i, blocked := range []string{"no", "no", "yes", "no"} {
		id := string(rune('0' + i))
		b.Node("a"+id, []string{"Account"}, "owner", "owner"+id, "isBlocked", blocked)
	}
	b.Node("p0", []string{"Phone"}, "number", "000")
	for i, dst := range []string{"a1", "a2", "a3", "a0"} {
		id := string(rune('0' + i))
		b.Edge("t"+id, "a"+id, dst, []string{"Transfer"}, "amount", int64(2_000_000*(i+1)))
	}
	b.Edge("t4", "a1", "a3", []string{"Transfer"}, "amount", int64(7_000_000))
	b.Edge("t5", "a1", "a3", []string{"Transfer"}, "amount", int64(1_000_000)) // directed multi-edge
	b.Edge("tl", "a0", "a0", []string{"Transfer"}, "amount", int64(4_000_000)) // directed self-loop
	b.UndirectedEdge("h0", "a0", "p0", []string{"hasPhone"})
	b.UndirectedEdge("h1", "a1", "p0", []string{"hasPhone"})
	b.UndirectedEdge("h2", "a1", "p0", []string{"hasPhone"}) // undirected multi-edge
	b.UndirectedEdge("hl", "p0", "p0", []string{"hasPhone"}) // undirected self-loop
	return b.MustBuild()
}

// enumeratingMatch is MatchPattern with the engine pinned to the
// enumerating one engineFor falls back to (BFS for selector-bounded
// patterns, DFS otherwise): enumerate seed by seed, reduce, deduplicate,
// select, sort.
func enumeratingMatch(t *testing.T, s graph.Store, pp *plan.PathPlan, cfg Config) []*binding.Reduced {
	t.Helper()
	engine := EngineDFS
	if pp.Mode == plan.ModeBFS {
		engine = EngineBFS
	}
	st := graph.AsStepper(s)
	var reduced []*binding.Reduced
	run := seedRunner(st, pp, engine, cfg, newBudget(cfg.Limits.withDefaults()), func(b *binding.PathBinding) error {
		reduced = append(reduced, b.Reduce())
		return nil
	})
	var err error
	forEachSeed(st, pp, func(i int) bool {
		err = run(i)
		return err == nil
	})
	if err != nil {
		t.Fatalf("enumerating %s run: %v", engine, err)
	}
	selected := ApplySelector(pp.Pattern.Selector, binding.Dedup(reduced))
	binding.SortStable(selected)
	return selected
}

// checkEngineParity compares the automaton engine with the enumerating
// one on every pattern of the plan engineFor routes to the automaton, on
// the map store and its CSR snapshot (which exercises the native arena
// Stepper). It returns how many patterns were compared.
func checkEngineParity(t *testing.T, label string, g *graph.Graph, p *plan.Plan, cfg Config) int {
	t.Helper()
	compared := 0
	for _, pp := range p.Paths {
		if engine, _ := engineFor(pp); engine != EngineAutomaton {
			continue
		}
		compared++
		for si, s := range []graph.Store{g, graph.Snapshot(g)} {
			auto, err := MatchPattern(s, pp, cfg)
			if err != nil {
				t.Fatalf("%s store %d pattern %d: MatchPattern: %v", label, si, pp.Index, err)
			}
			got := binding.FormatTable(auto)
			want := binding.FormatTable(enumeratingMatch(t, s, pp, cfg))
			if got != want {
				t.Errorf("%s store %d pattern %d: engines diverge\nautomaton:\n%s\nenumerating:\n%s",
					label, si, pp.Index, got, want)
			}
		}
	}
	return compared
}

// corpusGraphs are the conformance-corpus graphs (see the root
// conformance_test.go) whose cases hold automaton-eligible patterns.
var corpusGraphs = map[string]func() *graph.Graph{
	"fig1":  dataset.Fig1,
	"grid4": func() *graph.Graph { return dataset.Grid(4, 4) },
}

// TestEnginesAgreeOnCorpus runs the parity check over every pattern of
// the testdata/conformance corpus and of the diffQueries battery that
// engineFor routes to the automaton.
func TestEnginesAgreeOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance cases found: %v", err)
	}
	corpus := 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		head, rest, ok := strings.Cut(string(raw), "\nquery:\n")
		if !ok {
			t.Fatalf("%s: missing query: section", path)
		}
		query, _, _ := strings.Cut(rest, "\n-- result --")
		name := "fig1"
		for _, line := range strings.Split(head, "\n") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(line), "graph:"); ok {
				name = strings.TrimSpace(v)
			}
		}
		p := compile(t, query, plan.Options{AllowElementEquality: true})
		eligible := false
		for _, pp := range p.Paths {
			engine, _ := engineFor(pp)
			eligible = eligible || engine == EngineAutomaton
		}
		if !eligible {
			continue
		}
		build, ok := corpusGraphs[name]
		if !ok {
			t.Fatalf("%s: automaton-eligible case on graph %q; add it to corpusGraphs", path, name)
		}
		corpus += checkEngineParity(t, filepath.Base(path), build(), p, Config{})
	}
	if corpus == 0 {
		t.Errorf("no conformance case selected the automaton engine; the corpus half is vacuous")
	}

	graphs := []*graph.Graph{
		dataset.Random(dataset.RandomConfig{Accounts: 14, AvgDegree: 2, Phones: 4, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 3, Cities: 5, Phones: 8, BlockedFraction: 0.15, Seed: 7, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 36, AvgDegree: 3, BlockedFraction: 0.1, Seed: 23}),
		dataset.Grid(5, 5),
		dataset.Cycle(9),
		dataset.LaunderingRings(3, 4, 2, 99),
		cornerGraph(),
		dataset.Fig1(),
	}
	automatonQueries := 0
	for _, src := range diffQueries {
		p := compile(t, src, plan.Options{})
		if engine, _ := engineFor(p.Paths[0]); engine == EngineAutomaton {
			automatonQueries++
		}
		for gi, g := range graphs {
			checkEngineParity(t, fmt.Sprintf("%s graph %d", src, gi), g, p, Config{})
		}
	}
	// The battery must actually exercise the automaton engine.
	if automatonQueries < len(diffQueries)-3 {
		t.Errorf("only %d/%d queries selected the automaton engine", automatonQueries, len(diffQueries))
	}

	// Randomized stress: denser random graphs under one heavier unbounded
	// ALL SHORTEST template.
	heavy := compile(t, `MATCH ALL SHORTEST p = (a)-[e:Transfer]->+(b WHERE b.isBlocked='yes')`, plan.Options{})
	for seed := int64(0); seed < 8; seed++ {
		g := dataset.Random(dataset.RandomConfig{
			Accounts:         20 + int(seed)*7,
			AvgDegree:        float64(2 + seed%3),
			Phones:           int(seed) * 2,
			BlockedFraction:  0.25,
			Seed:             100 + seed,
			UndirectedPhones: seed%2 == 0,
		})
		checkEngineParity(t, fmt.Sprintf("dense seed %d", seed), g, heavy, Config{})
	}

	// Bound $parameters reach both engines' predicate paths.
	bound := compile(t, `MATCH ALL SHORTEST (a:Account)-[e:Transfer WHERE e.amount > $min]->{1,5}(b:Account WHERE b.isBlocked = $b)`, plan.Options{})
	params := Params{"min": value.Int(3_000_000), "b": value.Str("no")}
	if checkEngineParity(t, "params", graphs[1], bound, Config{Params: params}) == 0 {
		t.Errorf("the parameterized pattern did not select the automaton engine")
	}
}
