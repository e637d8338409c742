package eval

import (
	"context"
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
// Figure 1. The endpoint templates (below) ride along.
var diffQueries = append([]string{
	`MATCH ALL SHORTEST p = (a)-[e:Transfer]->+(b)`,
	`MATCH ALL SHORTEST p = (a)-[e:Transfer]->*(b)`, // zero-length matches
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
}, endpointQueries...)

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
	run := seedRunner(st, pp, engine, cfg, newBudget(context.Background(), cfg.Limits.withDefaults()), func(b *binding.PathBinding) error {
		reduced = append(reduced, b.Reduce())
		return nil
	})
	var err error
	forEachNode(st, pp.SeedLabels, nil, nil, func(i int) bool {
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
// Stepper), plus any extra stores given. It returns how many patterns were
// compared.
func checkEngineParity(t *testing.T, label string, g *graph.Graph, p *plan.Plan, cfg Config, extra ...graph.Store) int {
	t.Helper()
	compared := 0
	for _, pp := range p.Paths {
		if engine, _ := engineFor(pp); engine != EngineAutomaton {
			continue
		}
		compared++
		for si, s := range append([]graph.Store{g, graph.Snapshot(g)}, extra...) {
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

// backwardLayers runs the automaton engine over every seed of the pattern
// and counts the layers its backward side advanced — the evidence that a
// battery reached the endpoint-aware half of the search rather than only
// its forward-only degenerate case.
func backwardLayers(t *testing.T, s graph.Store, pp *plan.PathPlan, cfg Config) int {
	t.Helper()
	st := graph.AsStepper(s)
	a := newAutoEngine(st, pp, cfg, newBudget(context.Background(), cfg.Limits.withDefaults()), func(*binding.PathBinding) error { return nil })
	layers := 0
	forEachNode(st, pp.SeedLabels, nil, nil, func(i int) bool {
		a.bwd.depth = 0 // a rejected seed leaves the previous seed's count
		if err := a.run(i); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		layers += a.bwd.depth
		return true
	})
	return layers
}

// endpointQueries are templates with few targets, so the endpoint-aware
// search's backward side runs: single-target tails in every orientation,
// zero-length matches (the seed is its own target, meeting at layer 0), a
// guard between two quantifiers (the §5.2 prefilter shape), a target
// label no matching edge reaches, several targets settling at different
// depths, and bounded ANY SHORTEST.
var endpointQueries = []string{
	`MATCH ALL SHORTEST p = (a)-[e:Transfer]->+(b WHERE b.owner='owner3')`,
	`MATCH ALL SHORTEST p = (a WHERE a.owner='owner0')-[e:Transfer]->+(b:Account WHERE b.isBlocked='yes')`,
	`MATCH ALL SHORTEST p = (a:Account)<-[e:Transfer]-{1,5}(b WHERE b.owner='owner3')`,
	`MATCH ALL SHORTEST p = (a WHERE a.owner='owner1')-[t]-+(b WHERE b.owner='owner5')`,
	`MATCH ANY SHORTEST (a)~[e:hasPhone]~{1,3}(b WHERE b.owner='owner1')`,
	`MATCH ALL SHORTEST p = (a)-[e:Transfer]->{0,4}(b WHERE b.owner='owner2')`,
	`MATCH ALL SHORTEST p = (x)-[e1:Transfer]->+(q:Account WHERE q.isBlocked='yes')-[e2:Transfer]->+(r WHERE r.owner='owner4')`,
	`MATCH ALL SHORTEST p = (a:Account)-[e:Transfer]->+(b:Phone)`,
	`MATCH ANY SHORTEST p = (a)-[e:Transfer]->{1,6}(b WHERE b.owner='owner7')`,
}

// tombstoned returns an overlay epoch over g with dead holes: the node
// owning 'owner3' is deleted and an account owning 'owner3' is re-added
// above the base span with Transfer edges from and to two survivors, so a
// target scan meets a tombstoned index and a live copy in the delta.
func tombstoned(t *testing.T, g *graph.Graph) graph.Store {
	t.Helper()
	ov := graph.NewOverlay(graph.Snapshot(g))
	b := ov.Begin()
	var victim graph.NodeID
	g.Nodes(func(n *graph.Node) bool {
		if s, _ := n.Prop("owner").AsString(); s == "owner3" {
			victim = n.ID
		}
		return victim == ""
	})
	if victim != "" {
		b.DeleteNode(victim)
	}
	props := map[string]value.Value{"owner": value.Str("owner3"), "isBlocked": value.Str("no")}
	b.AddNode("x3", []string{"Account"}, props)
	var wired int
	g.Nodes(func(n *graph.Node) bool {
		if n.ID != victim && n.HasLabel("Account") {
			amount := map[string]value.Value{"amount": value.Int(5_000_000)}
			if wired == 0 {
				b.AddEdge("xt0", n.ID, "x3", []string{"Transfer"}, amount)
			} else {
				b.AddEdge("xt1", "x3", n.ID, []string{"Transfer"}, amount)
			}
			wired++
		}
		return wired < 2
	})
	if err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	return ov.Snapshot()
}

// TestEndpointSearchAgreesWithEnumeration is the battery for the backward
// half of the automaton search: every endpoint template, on every graph,
// on the map, CSR and tombstoned-overlay stores, byte-compared with the
// enumerating engine — and each template must have advanced the backward
// side somewhere, so the battery cannot pass on the forward-only route. A
// depth cut (BFS-mode templates, whose enumerating engine abandons threads
// at the limit) and a power-law SNB graph with single-person targets
// follow.
func TestEndpointSearchAgreesWithEnumeration(t *testing.T) {
	graphs := []*graph.Graph{
		dataset.Random(dataset.RandomConfig{Accounts: 14, AvgDegree: 2, Phones: 4, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 3, Cities: 5, Phones: 8, BlockedFraction: 0.15, Seed: 7, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 40, AvgDegree: 1.5, BlockedFraction: 0.3, Seed: 23}),
		dataset.Cycle(9),
		dataset.Chain(12),
		cornerGraph(),
	}
	for _, src := range endpointQueries {
		p := compile(t, src, plan.Options{})
		if engine, _ := engineFor(p.Paths[0]); engine != EngineAutomaton {
			t.Fatalf("%s: engine %s, want the automaton", src, engine)
		}
		layers := 0
		for gi, g := range graphs {
			over := tombstoned(t, g)
			checkEngineParity(t, fmt.Sprintf("%s graph %d", src, gi), g, p, Config{}, over)
			for _, s := range []graph.Store{g, over} {
				layers += backwardLayers(t, s, p.Paths[0], Config{})
			}
			if p.Paths[0].Mode == plan.ModeBFS {
				cut := Config{Limits: Limits{MaxDepth: 3}}
				checkEngineParity(t, fmt.Sprintf("%s graph %d depth 3", src, gi), g, p, cut, over)
				layers += backwardLayers(t, g, p.Paths[0], cut)
			}
		}
		if layers == 0 {
			t.Errorf("%s: the backward side never advanced", src)
		}
	}

	snb := dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.02, Seed: 3})
	pairs := snbPairsAtDistance(graph.Snapshot(snb), 3, 3)
	if len(pairs) < 3 {
		t.Fatalf("SNB pairs: %v", pairs)
	}
	for _, src := range []string{
		`MATCH ALL SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-+(b:Person WHERE b.firstName=$dst)`,
		`MATCH ANY SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-{1,4}(b:Person WHERE b.firstName=$dst)`,
	} {
		p := compile(t, src, plan.Options{})
		layers := 0
		for _, pair := range pairs {
			cfg := Config{Params: Params{"src": value.Str(pair[0]), "dst": value.Str(pair[1])}}
			checkEngineParity(t, fmt.Sprintf("%s %v", src, pair), snb, p, cfg)
			layers += backwardLayers(t, snb, p.Paths[0], cfg)
		}
		if layers == 0 {
			t.Errorf("%s: the backward side never advanced on SNB", src)
		}
	}
}

// snbPairsAtDistance picks, in insertion order, n (source, target)
// firstName pairs of SNB persons with at most four knows edges each and
// exactly dist knows hops apart (a plain adjacency BFS, independent of the
// engines): far enough that a search meets in the middle, sparse enough
// that the enumerating engines stay cheap.
func snbPairsAtDistance(c *graph.CSR, n, dist int) [][2]string {
	knows := func(p int, f func(int)) {
		c.Steps(p, func(e, other int, _ graph.StepKind) bool {
			if c.EdgeByIndex(e).HasLabel("knows") {
				f(other)
			}
			return true
		})
	}
	var sparse []int
	c.NodesWithLabelIdx("Person", func(i int) bool {
		deg := 0
		knows(i, func(int) { deg++ })
		if deg <= 4 {
			sparse = append(sparse, i)
		}
		return true
	})
	name := func(i int) string {
		s, _ := c.NodeByIndex(i).Prop("firstName").AsString()
		return s
	}
	var out [][2]string
	for _, src := range sparse {
		hops := map[int]int{src: 0}
		for frontier := []int{src}; len(frontier) > 0; {
			var next []int
			for _, u := range frontier {
				knows(u, func(v int) {
					if _, seen := hops[v]; !seen {
						hops[v] = hops[u] + 1
						next = append(next, v)
					}
				})
			}
			frontier = next
		}
		for _, dst := range sparse {
			if hops[dst] == dist {
				out = append(out, [2]string{name(src), name(dst)})
				break
			}
		}
		if len(out) == n {
			break
		}
	}
	return out
}

// corpusGraphs are the conformance-corpus graphs (see the root
// conformance_test.go).
var corpusGraphs = map[string]func() *graph.Graph{
	"fig1":   dataset.Fig1,
	"cycle8": func() *graph.Graph { return dataset.Cycle(8) },
	"grid4":  func() *graph.Graph { return dataset.Grid(4, 4) },
	"random1": func() *graph.Graph {
		return dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 2, Cities: 4, Phones: 6, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true})
	},
	"cyclic": dataset.CyclicJoins,
}

// readCorpusCase returns a conformance case's query and the name of the
// graph it runs on.
func readCorpusCase(t *testing.T, path string) (query, graphName string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(raw), "\nquery:\n")
	if !ok {
		t.Fatalf("%s: missing query: section", path)
	}
	query, _, _ = strings.Cut(rest, "\n-- result --")
	graphName = "fig1"
	for _, line := range strings.Split(head, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "graph:"); ok {
			graphName = strings.TrimSpace(v)
		}
	}
	return query, graphName
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
		query, name := readCorpusCase(t, path)
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
