package eval

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// A cursor's row is borrowed: valid until the next Next or Close. These
// tests check the owners that keep rows or solutions past that point —
// Collect, Row.Clone, the bind-join memo and the hash step — against a
// reference that keeps nothing borrowed (classicJoin over MatchPattern).

// borrowCase is one statement on one store.
type borrowCase struct {
	label string
	p     *plan.Plan
	s     graph.Store
}

// drainBorrowed streams the statement and returns its rows rendered at
// each Next (renderResult's form) and the Clones it kept, rendered after
// the stream was drained and closed. At each Next, every column's
// AppendCell must render what Get and String do.
func drainBorrowed(t *testing.T, c borrowCase) (atNext, kept []string) {
	t.Helper()
	cur, err := StreamPlan(context.Background(), c.s, c.p, Config{})
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	var clones []*Row
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if row == nil {
			break
		}
		atNext = append(atNext, renderResult(&Result{Columns: c.p.Columns, Rows: []*Row{row}})...)
		for _, col := range c.p.Columns {
			if b, _ := row.Get(col); string(row.AppendCell(nil, col)) != b.String() {
				t.Fatalf("%s: column %s: AppendCell %q, Get %q", c.label, col, row.AppendCell(nil, col), b.String())
			}
		}
		clones = append(clones, row.Clone())
	}
	cur.Close()
	return atNext, renderResult(&Result{Columns: c.p.Columns, Rows: clones})
}

// sortedCopy returns the rows as a sorted multiset.
func sortedCopy(rows []string) []string {
	out := slices.Clone(rows)
	slices.Sort(out)
	return out
}

// checkBorrowed checks that the rows rendered at each Next, the kept
// Clones, Collect's rows and the reference's rows are one multiset.
func checkBorrowed(t *testing.T, c borrowCase) []string {
	t.Helper()
	atNext, kept := drainBorrowed(t, c)
	res, err := EvalPlan(c.s, c.p, Config{})
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	want := sortedCopy(renderResult(classicJoin(t, c.s, c.p, Config{})))
	diffStrings(t, c.label+": rows at Next", sortedCopy(atNext), want)
	diffStrings(t, c.label+": kept clones", sortedCopy(kept), want)
	diffStrings(t, c.label+": Collect", sortedCopy(renderResult(res)), want)
	return atNext
}

// TestBorrowedRowsMatchOwnedRows runs the conformance corpus and the
// randomized join battery (joinFragments) on every reverseAxes store.
func TestBorrowedRowsMatchOwnedRows(t *testing.T) {
	corpus := map[string][]storeAxis{}
	battery := map[*graph.Graph][]storeAxis{}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance cases found: %v", err)
	}
	cases := 0
	for _, path := range files {
		query, name := readCorpusCase(t, path)
		p := compile(t, query, plan.Options{AllowElementEquality: true})
		if corpus[name] == nil {
			corpus[name] = reverseAxes(t, corpusGraphs[name]())
		}
		for _, ax := range corpus[name] {
			checkBorrowed(t, borrowCase{filepath.Base(path) + " [" + ax.name + "]", p, ax.s})
			cases++
		}
	}
	for _, c := range joinDiffCases(t) {
		if battery[c.g] == nil {
			battery[c.g] = reverseAxes(t, c.g)
		}
		for _, ax := range battery[c.g] {
			checkBorrowed(t, borrowCase{c.label + " [" + ax.name + "]", c.p, ax.s})
			cases++
		}
	}
	if cases < 100 {
		t.Fatalf("vacuous battery: %d cases", cases)
	}
	t.Logf("%d statement × store cases", cases)
}

// TestBorrowedRowsOwners runs one statement per owner on every
// reverseAxes store of Figure 1 and checks that the owner's path ran: the
// bind-join step reads a memoized seed again after solving other seeds,
// the hash step has no seed variable, and the selector partitions per
// seed.
func TestBorrowedRowsOwners(t *testing.T) {
	axes := reverseAxes(t, dataset.Fig1())
	csr := axes[1].s
	for _, tc := range []struct {
		name, src string
		// check inspects the plan's join steps and the streamed rows.
		check func(t *testing.T, steps []plan.JoinStep, atNext []string, p *plan.Plan) bool
	}{
		{
			name: "bind-join memo",
			src:  `MATCH (x:Account)-[t:Transfer]->(y:Account), TRAIL (y)-[u:Transfer]->{1,2}(z:Account)`,
			check: func(t *testing.T, steps []plan.JoinStep, atNext []string, p *plan.Plan) bool {
				if len(steps) != 2 || steps[1].SeedVar == "" {
					return false
				}
				return rereadsSeed(t, csr, p, steps[1].SeedVar)
			},
		},
		{
			name: "hash step",
			src:  `MATCH (x:Account)-[t:Transfer]->(y:Account), (p:Phone)`,
			check: func(t *testing.T, steps []plan.JoinStep, atNext []string, p *plan.Plan) bool {
				return len(steps) == 2 && steps[1].SeedVar == "" && len(atNext) > 8
			},
		},
		{
			name: "selector",
			src:  `MATCH ALL SHORTEST (a:Account)-[t:Transfer]->+(b:Account)`,
			check: func(t *testing.T, steps []plan.JoinStep, atNext []string, p *plan.Plan) bool {
				return len(atNext) > 8
			},
		},
	} {
		p := compile(t, tc.src, plan.Options{})
		steps := plan.OrderJoin(p, joinStats(graph.AsStepper(csr).LabelStats(), len(p.Paths)))
		for _, ax := range axes {
			atNext := checkBorrowed(t, borrowCase{tc.name + " [" + ax.name + "]", p, ax.s})
			if !tc.check(t, steps, atNext, p) {
				t.Errorf("%s [%s]: the statement does not exercise its owner (steps %v, %d rows)", tc.name, ax.name, steps, len(atNext))
			}
		}
	}
}

// rereadsSeed reports whether the rows streamed into the join step
// seeded on v bind v to some node again after binding it to another one,
// so the step reads that seed's memo entry after solving other seeds.
func rereadsSeed(t *testing.T, s graph.Store, p *plan.Plan, v string) bool {
	t.Helper()
	cur, err := StreamPlan(context.Background(), s, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seen := map[string]bool{}
	last := ""
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			return false
		}
		b, _ := row.Get(v)
		id := b.String()
		if id != last && seen[id] {
			return true
		}
		seen[id], last = true, id
	}
}

// TestEnumerateKeepsOwnedPaths: the engines reuse the binding they emit,
// path included, so Enumerate keeps Clones. After the run every kept
// binding must still hold its own path: its edges are its edge entries in
// order, it starts at its first node entry, and no two bindings of a
// duplicate-free pattern share a path.
func TestEnumerateKeepsOwnedPaths(t *testing.T) {
	g := dataset.Fig1()
	engines := map[string]bool{}
	for _, src := range []string{
		`MATCH TRAIL (x:Account)-[e:Transfer]->{1,3}(y:Account)`,
		`MATCH ALL SHORTEST (x:Account)-[e:Transfer]->+(y:Account)`,
		`MATCH SHORTEST 2 (x:Account)-[e:Transfer]->+(y:Account)`,
	} {
		pp := compile(t, src, plan.Options{}).Paths[0]
		engine, _ := engineFor(pp)
		engines[engine] = true
		raw, err := Enumerate(g, pp, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 10 {
			t.Fatalf("%s: vacuous, %d bindings", src, len(raw))
		}
		paths := map[string]bool{}
		for i, b := range raw {
			var edges []graph.ElemIdx
			for _, e := range b.Entries {
				if e.Kind == binding.EdgeElem {
					edges = append(edges, e.Idx)
				}
			}
			if !slices.Equal(edges, b.Path.Edges) || len(b.Path.Nodes) != len(edges)+1 || b.Path.Nodes[0] != b.Entries[0].Idx {
				t.Fatalf("%s: binding %d's path %v does not match its entries %v", src, i, b.Path, b.Entries)
			}
			key := fmt.Sprint(b.Path.Nodes, b.Path.Edges)
			if paths[key] {
				t.Fatalf("%s: two kept bindings share path %s", src, key)
			}
			paths[key] = true
		}
	}
	if len(engines) != 3 {
		t.Errorf("the patterns ran on %v, want all three engines", engines)
	}
}
