package eval

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// The key oracle for plan.PathPlan.DupReason: a pattern the analysis
// marks duplicate-free must never emit, for one seed, two raw matches
// whose reduced bindings share a binding.Keyer key, since the pipeline
// no longer collects its solutions into a set. The key is the oracle
// (dedup keys are injective), so no hook into the pipeline is needed.

// ambiguousQueries split one path between two quantifiers in several
// ways, and their split elements are anonymous, so the splits reduce
// alike: they must keep their seen-set, and the key test fails on them
// if the rule ever admits them.
var ambiguousQueries = []string{
	`MATCH (x)-[:Transfer]->{1,2}()-[:Transfer]->{1,2}(y)`,
	`MATCH (x)-[:Transfer]->?()-[:Transfer]->?(y)`,
	`MATCH TRAIL (x)-[:Transfer]-+()-[:Transfer]-+(y)`,
	`MATCH ALL SHORTEST (x)-[:Transfer]->+()-[:Transfer]->+(y)`,
	`MATCH ANY 2 (x)[()-[:Transfer]->()]{1,2}[()-[:Transfer]->()]*(y)`,
}

// seedDups runs the pattern's own engine seed by seed, as seedSolver
// does, and counts the raw matches and those whose reduced binding
// repeats an earlier one of the same seed. A search limit ends the count
// early; what was emitted before it still counts.
func seedDups(s graph.Store, pp *plan.PathPlan, cfg Config) (matches, dups int) {
	st := graph.AsStepper(s)
	keyer := binding.NewKeyer()
	seen := map[string]struct{}{}
	engine, _ := engineFor(pp)
	run := seedRunner(st, pp, engine, cfg, newBudget(context.Background(), cfg.Limits.withDefaults()), func(b *binding.PathBinding) error {
		matches++
		key := keyer.Key(b.Reduce())
		if _, dup := seen[string(key)]; dup {
			dups++
		}
		seen[string(key)] = struct{}{}
		return nil
	})
	forEachNode(st, pp.SeedLabels, pp.HeadEq, cfg.Params, func(i int) bool {
		clear(seen)
		return run(i) == nil
	})
	return matches, dups
}

// dupFreeRuns is a test's running tally of the duplicate-free patterns it
// checked and the raw matches they emitted.
type dupFreeRuns struct {
	patterns, matches int
}

// check asserts the key property for every duplicate-free pattern of p,
// and for the mirror of each one a tail-seeded join step may run, on
// every store given.
func (r *dupFreeRuns) check(t *testing.T, label string, p *plan.Plan, cfg Config, stores []storeAxis) {
	t.Helper()
	for _, pp := range p.Paths {
		if pp.DupReason != "" {
			continue
		}
		runs := []*plan.PathPlan{pp}
		if len(pp.TailVars) > 0 {
			runs = append(runs, pp.Mirrored())
		}
		r.patterns++
		for i, run := range runs {
			for _, ax := range stores {
				n, dups := seedDups(ax.s, run, cfg)
				r.matches += n
				if dups > 0 {
					t.Errorf("%s pattern %d (mirrored: %t) on %s: marked duplicate-free, but %d of %d raw matches repeat a key of their seed",
						label, pp.Index, i > 0, ax.name, dups, n)
				}
			}
		}
	}
}

// TestDuplicateFreeKeysUnique holds every duplicate-free plan of the
// conformance corpus, the join battery, the engine batteries and 2,000
// generated patterns (bare, under TRAIL/ACYCLIC/SIMPLE and under every
// selector) to the key property on cornerGraph's self-loops and
// multi-edges and on Figure 1, each on every reverseAxes store.
func TestDuplicateFreeKeysUnique(t *testing.T) {
	stores := map[string][]storeAxis{
		"corner": reverseAxes(t, cornerGraph()),
		"fig1":   reverseAxes(t, dataset.Fig1()),
	}
	var runs dupFreeRuns

	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance cases found: %v", err)
	}
	for _, path := range files {
		query, name := readCorpusCase(t, path)
		p := compile(t, query, plan.Options{AllowElementEquality: true})
		axes := []storeAxis{{name, corpusGraphs[name]()}}
		if s, ok := stores[name]; ok {
			axes = s
		}
		runs.check(t, filepath.Base(path), p, Config{}, axes)
	}

	battery := append(append(append(append([]string(nil), joinFragments...), diffQueries...), bfsOracleQueries...), ambiguousQueries...)
	for _, src := range battery {
		if src[0] == '(' || src[0] == 'T' || src[0] == 'A' && src[1] == 'N' {
			src = "MATCH " + src // a join fragment
		}
		p := compile(t, src, plan.Options{})
		for name, axes := range stores {
			runs.check(t, fmt.Sprintf("%s on %s", src, name), p, Config{}, axes)
		}
	}
	for _, src := range ambiguousQueries {
		if r := compile(t, src, plan.Options{}).Paths[0].DupReason; r == "" {
			t.Errorf("%s: marked duplicate-free", src)
		}
	}
	if runs.patterns < 20 || runs.matches == 0 {
		t.Fatalf("vacuous battery: %d duplicate-free patterns, %d raw matches", runs.patterns, runs.matches)
	}

	cfg := Config{Limits: Limits{MaxMatches: 20_000, MaxDepth: 12, MaxThreads: 20_000}}
	generated, free := 0, 0
	for seed := int64(0); generated < 2000; seed++ {
		src := generatedPattern(rand.New(rand.NewSource(seed)))
		p, err := compileErr(src)
		if err != nil {
			continue
		}
		generated++
		if p.Paths[0].DupReason == "" {
			free++
		}
		for name, axes := range stores {
			runs.check(t, fmt.Sprintf("generated %d %s on %s", seed, src, name), p, cfg, axes)
		}
	}
	t.Logf("%d duplicate-free patterns checked, %d raw matches; %d of %d generated patterns duplicate-free",
		runs.patterns, runs.matches, free, generated)
	if free < 500 {
		t.Errorf("only %d of %d generated patterns are duplicate-free", free, generated)
	}
}

// generatedPattern draws one pattern of the engine batteries' grammar
// with anonymous edges allowed, bare or under a restrictor or a selector.
// Unbounded quantifiers without either fail to compile; callers skip
// them.
func generatedPattern(rng *rand.Rand) string {
	qg := &bfsQueryGen{rng: rng, anonEdges: true}
	prefix := qg.pick("", "", "TRAIL ", "ACYCLIC ", "SIMPLE ", "ANY SHORTEST ", "ALL SHORTEST ", "ANY ", "SHORTEST 2 ", "ANY 2 ", "SHORTEST 2 GROUP ")
	return "MATCH " + prefix + qg.body(0)
}

// byteSource is a rand.Source that draws its i-th value from the i-th
// byte of a fuzz input (zero past its end), mixed with i, so a mutated
// byte changes one draw of the generator.
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) Int63() int64 {
	var b byte
	if s.i < len(s.data) {
		b = s.data[s.i]
	}
	s.i++
	// splitmix64's finalizer.
	z := uint64(b) | uint64(s.i)<<8
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func (s *byteSource) Seed(int64) {}

// TestDuplicateFreeCounterexamples pins why the rule admits at most one
// quantifier: two quantifiers split one path in several ways, and the
// runs reduce alike when the split elements are anonymous. On Figure 1,
// 14 of the first pattern's 57 raw matches and 8 of the second's 41 are
// duplicates; with the edges named, the same shape has none.
func TestDuplicateFreeCounterexamples(t *testing.T) {
	g := dataset.Fig1()
	for _, tc := range []struct {
		anon, named   string
		matches, dups int
	}{
		{ambiguousQueries[0], `MATCH (x)-[e:Transfer]->{1,2}()-[f:Transfer]->{1,2}(y)`, 57, 14},
		{ambiguousQueries[1], `MATCH (x)-[e:Transfer]->?()-[f:Transfer]->?(y)`, 41, 8},
	} {
		for _, c := range []struct {
			query string
			dups  int
		}{{tc.anon, tc.dups}, {tc.named, 0}} {
			pp := compile(t, c.query, plan.Options{}).Paths[0]
			if pp.DupReason != "several quantifiers" {
				t.Errorf("%s: DupReason %q, want %q", c.query, pp.DupReason, "several quantifiers")
			}
			if n, dups := seedDups(g, pp, Config{}); n != tc.matches || dups != c.dups {
				t.Errorf("%s: %d raw matches with %d duplicates, want %d with %d", c.query, n, dups, tc.matches, c.dups)
			}
		}
	}
}

// FuzzDuplicateFree turns arbitrary bytes into a pattern of the
// batteries' grammar, bare or under a restrictor or a selector (the
// bytes after the first drive the generator), and a choice of
// cornerGraph or Figure 1 (the first byte's low bit): a plan marked
// duplicate-free must never emit two raw matches with one key for one
// seed.
func FuzzDuplicateFree(f *testing.F) {
	for _, seed := range [][]byte{{0}, {1}, {0, 7, 7, 7}, {1, 200, 3, 90, 17}, []byte("\x01 two quantifiers")} {
		f.Add(seed)
	}
	graphs := []graph.Store{graph.Snapshot(cornerGraph()), graph.Snapshot(dataset.Fig1())}
	cfg := Config{Limits: Limits{MaxMatches: 5_000, MaxDepth: 10, MaxThreads: 5_000}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		src := generatedPattern(rand.New(&byteSource{data: data[1:]}))
		p, err := compileErr(src)
		if err != nil || p.Paths[0].DupReason != "" {
			return
		}
		if n, dups := seedDups(graphs[data[0]&1], p.Paths[0], cfg); dups > 0 {
			t.Errorf("%s: marked duplicate-free, but %d of %d raw matches repeat a key of their seed", src, dups, n)
		}
	})
}
