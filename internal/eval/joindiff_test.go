package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
)

// Differential battery for §6.5 multi-pattern joins: the cost-ordered
// bind-join pipeline must be invisible in results. Random 2–3-pattern
// statements assembled from connected and disconnected fragments run over
// randomized graphs on both store backends, asserting (a) byte parity
// with classicJoin, the enumerate-everything-then-hash-join pipeline the
// planner replaced, kept here as an oracle, and (b) agreement with a naive
// cross-product-plus-filter reference join that shares no code with the
// hash/bind-join machinery.

// classicJoin is the reference pipeline: every pattern is solved in full
// (MatchPattern, so sorted by path length then canonical key) in textual
// order against the store's one pinned view, the solution sets are
// hash-joined left to right on the shared singleton variables, the
// postfilter runs over the joined rows, and the canonical sort fixes the
// order.
func classicJoin(t *testing.T, s graph.Store, p *plan.Plan, cfg Config) *Result {
	t.Helper()
	st := graph.AsStepper(s)
	empty := newRow(p)
	rows := []*Row{&empty}
	bound := map[string]bool{}
	for i, pp := range p.Paths {
		solutions, err := MatchPattern(st, pp, cfg)
		if err != nil {
			t.Fatalf("classic join: pattern %d: %v", i, err)
		}
		rows = joinPattern(p, pp.Index, rows, solutions, sharedVars(p, pp, bound))
		markBound(bound, pp)
	}
	if p.Post != nil {
		kept := rows[:0]
		for _, row := range rows {
			keep, err := EvalPred(p.Post, rowResolver{st, row, cfg.Params})
			if err != nil {
				t.Fatalf("classic join: postfilter: %v", err)
			}
			if keep.IsTrue() {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	sortRowsCanonical(rows, len(p.Paths))
	return &Result{Columns: p.Columns, Rows: rows}
}

// joinPattern hash-joins the solutions of pattern at into the accumulated
// rows; with no shared variables it degenerates to a cross product.
func joinPattern(p *plan.Plan, at int, rows []*Row, solutions []*binding.Reduced, shared []string) []*Row {
	index := map[string][]*binding.Reduced{}
	var buf []byte
	for _, sol := range solutions {
		buf = appendJoinKeyOfSolution(buf[:0], sol, shared)
		index[string(buf)] = append(index[string(buf)], sol)
	}
	var next []*Row
	for _, row := range rows {
		buf = appendJoinKeyOfRow(buf[:0], row, shared)
		for _, sol := range index[string(buf)] {
			merged := newRow(p)
			next = append(next, joinRow(&merged, row, at, sol))
		}
	}
	return next
}

// disagreement names a variable that two of its declaring patterns bind
// to different elements in row, or to none, or returns "" when each
// shared variable reads the same (kind, index) from every pattern that
// declares it: the implicit equi-join the probe key enforces.
func disagreement(p *plan.Plan, row *Row) string {
	for name, info := range p.Vars {
		if len(info.Patterns) < 2 {
			continue
		}
		first, ok := row.Bindings[info.Patterns[0]].Singleton(name)
		for _, i := range info.Patterns[1:] {
			if ref, bound := row.Bindings[i].Singleton(name); !ok || !bound || ref != first {
				return name
			}
		}
	}
	return ""
}

// joinFragments are the path-pattern building blocks. Variables overlap
// deliberately (x, y, z, w chain through them) so random subsets yield
// seeded bind joins, hash-join fallbacks, and disconnected cross products.
var joinFragments = []string{
	`(x:Account)-[t1:Transfer]->(y:Account)`,
	`(y:Account)-[t2:Transfer]->(z:Account)`,
	`(x:Account)-[:isLocatedIn]->(c:City)`,
	`(z:Account)~[h1:hasPhone]~(ph:Phone)`,
	`(x:Account)-[t3:Transfer]->{1,2}(w:Account)`,
	`TRAIL (y)-[t4:Transfer]->+(v:Account)`,
	`(q:Phone)`,
	`(w:Account)-[:isLocatedIn]->(c2:City)`,
	`ANY SHORTEST (z)-[t5:Transfer]->+(u:Account)`,
}

// renderResult flattens a result to one string per row: the output
// columns as displayed plus each pattern binding's canonical key, which
// pins content and order byte for byte.
func renderResult(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for _, col := range res.Columns {
			v, ok := row.Get(col)
			if !ok {
				b.WriteString("<unbound>")
			} else {
				b.WriteString(v.String())
			}
			b.WriteByte('|')
		}
		b.WriteByte('#')
		for _, rb := range row.Bindings {
			b.WriteString(rb.CanonKey())
			b.WriteByte('#')
		}
		out[i] = b.String()
	}
	return out
}

// naiveJoinReference joins per-pattern solutions by nested-loop cross
// product in textual pattern order, filtering on equality of every
// variable shared between patterns — the literal reading of §6.5, with
// none of the evaluator's hash indexes, seeding or reordering. It returns
// the canonical key sequence renderResult appends after '#'.
func naiveJoinReference(t *testing.T, per [][]*binding.Reduced, p *plan.Plan) []string {
	t.Helper()
	// Variables declared by two or more patterns join implicitly.
	type sharing struct {
		name     string
		patterns []int
	}
	var shared []sharing
	for name, info := range p.Vars {
		if len(info.Patterns) < 2 || info.Group || info.Kind == plan.VarPath {
			continue
		}
		shared = append(shared, sharing{name, info.Patterns})
	}
	var out []string
	pick := make([]*binding.Reduced, len(p.Paths))
	var rec func(i int)
	rec = func(i int) {
		if i == len(p.Paths) {
			for _, sh := range shared {
				first, ok := pick[sh.patterns[0]].Singleton(sh.name)
				if !ok {
					return
				}
				for _, pat := range sh.patterns[1:] {
					ref, ok := pick[pat].Singleton(sh.name)
					if !ok || ref != first {
						return
					}
				}
			}
			var b strings.Builder
			b.WriteByte('#')
			for _, sol := range pick {
				b.WriteString(sol.CanonKey())
				b.WriteByte('#')
			}
			out = append(out, b.String())
			return
		}
		for _, sol := range per[i] {
			pick[i] = sol
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// keysOnly strips the column prefix off renderResult lines, leaving the
// '#'-delimited canonical keys the naive reference produces.
func keysOnly(rendered []string) []string {
	out := make([]string, len(rendered))
	for i, r := range rendered {
		if idx := strings.IndexByte(r, '#'); idx >= 0 {
			out[i] = r[idx:]
		}
	}
	return out
}

func diffStrings(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows vs %d rows", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d diverges:\ngot:  %s\nwant: %s", label, i, got[i], want[i])
			return
		}
	}
}

// tryCompile plans a statement, reporting static rejections instead of
// failing the test (the fuzz loop samples some illegal combinations).
func tryCompile(src string) (*plan.Plan, error) {
	stmt, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		return nil, err
	}
	return plan.Analyze(norm, plan.Options{})
}

// joinDiffGraphs are the randomized battery's graphs.
func joinDiffGraphs() []*graph.Graph {
	return []*graph.Graph{
		dataset.Random(dataset.RandomConfig{Accounts: 18, AvgDegree: 2, Cities: 3, Phones: 4, BlockedFraction: 0.2, Seed: 3, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 26, AvgDegree: 2, Cities: 5, Phones: 5, BlockedFraction: 0.1, Seed: 11, UndirectedPhones: true}),
		dataset.LaunderingRings(3, 4, 3, 77),
	}
}

// joinDiffCase is one sampled statement of the randomized battery with
// its graph and its per-pattern solutions (the naive reference's input).
type joinDiffCase struct {
	label string
	src   string
	g     *graph.Graph
	p     *plan.Plan
	per   [][]*binding.Reduced
}

// joinDiffCases samples the randomized battery's statements: 2–3 random
// fragments over a random graph, skipping statically illegal samples and
// those whose cross product is too large for the naive reference.
func joinDiffCases(t *testing.T) []joinDiffCase {
	t.Helper()
	rng := rand.New(rand.NewSource(20260730))
	graphs := joinDiffGraphs()
	var out []joinDiffCase
	for iter := 0; iter < 40; iter++ {
		g := graphs[rng.Intn(len(graphs))]
		n := 2 + rng.Intn(2)
		idx := rng.Perm(len(joinFragments))[:n]
		frags := make([]string, n)
		for i, f := range idx {
			frags[i] = joinFragments[f]
		}
		src := "MATCH " + strings.Join(frags, ", ")
		p, err := tryCompile(src)
		if err != nil {
			// Some samples are statically illegal (e.g. a variable used at
			// incompatible scopes); skip them, they are not this battery's
			// concern.
			continue
		}
		// Bound the work: the naive reference (and a disconnected hash
		// join) materializes the full cross product, so samples whose
		// per-pattern solution counts multiply out too far are skipped —
		// and the precheck itself runs under a tight match limit so an
		// explosive single pattern (an unselective TRAIL, say) is skipped
		// cheaply instead of enumerated to exhaustion first.
		precheck := Config{Limits: Limits{MaxMatches: 20_000}}
		per := make([][]*binding.Reduced, len(p.Paths))
		product := 1
		tooBig := false
		for i, pp := range p.Paths {
			sols, err := MatchPattern(g, pp, precheck)
			if err != nil {
				var lim *LimitError
				if errors.As(err, &lim) {
					tooBig = true
					break
				}
				t.Fatalf("iter %d %s: MatchPattern %d: %v", iter, src, i, err)
			}
			per[i] = sols
			product *= len(sols) + 1
			if product > 12_000 {
				tooBig = true
				break
			}
		}
		if tooBig {
			continue
		}
		out = append(out, joinDiffCase{label: fmt.Sprintf("iter %d %s", iter, src), src: src, g: g, p: p, per: per})
	}
	if len(out) < 15 {
		t.Fatalf("only %d/40 sampled statements were checked; fragment pool or size cap too restrictive", len(out))
	}
	return out
}

// TestMultiPatternJoinDifferential is the randomized battery: every
// sampled statement must agree with the classic oracle on both backends,
// and with the naive reference.
func TestMultiPatternJoinDifferential(t *testing.T) {
	for _, c := range joinDiffCases(t) {
		checkJoinAgainstOracles(t, c.label, c.g, c.p, c.per)
	}
}

// checkJoinAgainstOracles runs one statement on the map and CSR stores,
// byte-comparing the bind-join pipeline with classicJoin, and on the map
// store with the naive reference.
func checkJoinAgainstOracles(t *testing.T, label string, g *graph.Graph, p *plan.Plan, per [][]*binding.Reduced) {
	t.Helper()
	naive := naiveJoinReference(t, per, p)
	for si, s := range []graph.Store{g, graph.Snapshot(g)} {
		label := fmt.Sprintf("%s store %d", label, si)
		on, err := EvalPlan(s, p, Config{})
		if err != nil {
			t.Fatalf("%s: bind-join: %v", label, err)
		}
		for r, row := range on.Rows {
			if v := disagreement(p, row); v != "" {
				t.Fatalf("%s: row %d binds %s differently across its patterns", label, r, v)
			}
		}
		off := classicJoin(t, s, p, Config{})
		diffStrings(t, label+" [bind-join vs classic]", renderResult(on), renderResult(off))
		if si == 0 {
			diffStrings(t, label+" [bind-join vs naive]", keysOnly(renderResult(on)), naive)
		}
	}
}

// tailSeedFamilies are statements whose shared variables sit only at
// pattern tails, so whichever pattern joins second can be seeded from its
// last node alone: single edges, undirected edges, a quantifier with group
// variables, a TRAIL with a path variable, ALL SHORTEST, a set union, and a
// cyclic three-pattern join.
var tailSeedFamilies = []struct{ name, src string }{
	{"edge", `MATCH (x:Account)-[t1:Transfer]->(y:Account), (w:Account)-[t2:Transfer]->(y)`},
	{"undirected", `MATCH (x:Account)~[h1:hasPhone]~(ph:Phone), (w:Account)~[h2:hasPhone]~(ph)`},
	{"quantified", `MATCH (x:Account)-[:isLocatedIn]->(c:City), (w:Account)-[t3:Transfer]->{1,2}(v:Account)-[:isLocatedIn]->(c)`},
	{"trail-path", `MATCH TRAIL p = (w:Account)-[t4:Transfer]->{1,3}(y:Account), (x:Account WHERE x.isBlocked='yes')-[t1:Transfer]->(y)`},
	{"all-shortest", `MATCH ALL SHORTEST (w:Account WHERE w.isBlocked='no')-[t5:Transfer]->+(y:Account), (x:Account WHERE x.isBlocked='yes')-[t1:Transfer]->(y)`},
	{"union", `MATCH (x:Account WHERE x.isBlocked='yes')-[t1:Transfer]->(y:Account), [(w:Account)-[t2:Transfer]->(y) | (w:Account)<-[t3:Transfer]-(y)]`},
	{"triangle", `MATCH (x:Account)-[t1:Transfer]->(y:Account), (y)-[t2:Transfer]->(z:Account), (z)-[t3:Transfer]->(x)`},
}

// TestMultiPatternJoinTailSeeds checks the tail-seed families against both
// oracles on every battery graph, and that each family really took a
// tail-seeded step somewhere, so it cannot pass on head seeds and hash
// joins alone.
func TestMultiPatternJoinTailSeeds(t *testing.T) {
	graphs := joinDiffGraphs()
	for _, fam := range tailSeedFamilies {
		p := compile(t, fam.src, plan.Options{})
		before := tailSeededSteps.Load()
		for gi, g := range graphs {
			per := make([][]*binding.Reduced, len(p.Paths))
			for i, pp := range p.Paths {
				sols, err := MatchPattern(g, pp, Config{})
				if err != nil {
					t.Fatalf("%s graph %d: MatchPattern %d: %v", fam.name, gi, i, err)
				}
				per[i] = sols
			}
			checkJoinAgainstOracles(t, fmt.Sprintf("%s graph %d", fam.name, gi), g, p, per)
		}
		if tailSeededSteps.Load() == before {
			t.Errorf("%s: no step was seeded from a tail\n%s", fam.name, fam.src)
		}
	}
}

// TestMultiPatternJoinPostfilter covers the postfilter path the naive
// reference skips: bind-join vs classic parity for joined statements with
// a final WHERE over variables of different patterns.
func TestMultiPatternJoinPostfilter(t *testing.T) {
	queries := []string{
		`MATCH (x:Account)-[t1:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City) WHERE x.isBlocked='no' AND y.isBlocked='yes'`,
		`MATCH (x:Account)-[t1:Transfer]->(y:Account), (x)~[:hasPhone]~(p:Phone) WHERE SAME(x, x) AND p.isBlocked='no'`,
		`MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{1,3} (b:Account), (b)-[:isLocatedIn]->(ci:City) WHERE SUM(t.amount) > 4M`,
	}
	g := dataset.Random(dataset.RandomConfig{Accounts: 24, AvgDegree: 2, Cities: 4, Phones: 5, BlockedFraction: 0.25, Seed: 9, UndirectedPhones: true})
	snap := graph.Snapshot(g)
	for _, src := range queries {
		p := compile(t, src, plan.Options{})
		for si, s := range []graph.Store{g, snap} {
			on, err := EvalPlan(s, p, Config{})
			if err != nil {
				t.Fatalf("store %d %s: %v", si, src, err)
			}
			off := classicJoin(t, s, p, Config{})
			diffStrings(t, fmt.Sprintf("store %d %s", si, src), renderResult(on), renderResult(off))
		}
	}
}
