package eval

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"gpml/internal/ast"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/parser"
	"gpml/internal/plan"
)

// reversedStatement prints src with every pattern whose reversal matches
// exactly the same paths walked back to front (no selector or ALL
// SHORTEST, no multiset alternation) textually reversed, and reports
// which patterns it reversed.
func reversedStatement(t *testing.T, src string) (string, []bool) {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	flipped := make([]bool, len(stmt.Patterns))
	for i, pp := range stmt.Patterns {
		if k := pp.Selector.Kind; k != ast.NoSelector && k != ast.AllShortest {
			continue
		}
		multiset := false
		ast.WalkPath(pp.Expr, func(e ast.PathExpr) bool {
			if u, ok := e.(*ast.Union); ok && slices.Contains(u.Ops, ast.Multiset) {
				multiset = true
			}
			return !multiset
		})
		if multiset {
			continue
		}
		rev := *pp
		rev.Expr = ast.Reverse(pp.Expr)
		stmt.Patterns[i] = &rev
		flipped[i] = true
	}
	return stmt.String(), flipped
}

// storeAxis is one store a battery runs a statement on.
type storeAxis struct {
	name string
	s    graph.Store
}

// reverseAxes are the store axes of the reversal and identity batteries:
// the map graph, its CSR, an overlay epoch with tombstones and a live
// delta, a store recovered from a checkpoint, and g's content with one
// node and some edges re-added at fresh indices beside dead holes — as an
// overlay epoch's delta, and compacted into a checkpoint-recovered base.
func reverseAxes(t *testing.T, g *graph.Graph) []storeAxis {
	t.Helper()
	ov := graph.NewOverlay(graph.Snapshot(g))
	reinsert(t, ov, g)
	return []storeAxis{
		{"map", g},
		{"csr", graph.Snapshot(g)},
		{"tombstoned", tombstoned(t, g)},
		{"recovered", recoveredStore(t, g)},
		{"reinserted", ov.Snapshot()},
		{"reinserted-recovered", recoveredStore(t, g, func(ov *graph.Overlay) { reinsert(t, ov, g) })},
	}
}

// reinsert deletes the first edge's source node (and with it every edge
// incident to it) and one edge not incident to it, then adds them all
// back under the same ids. The overlay gives each re-added element a fresh
// dense index and leaves a dead hole at the old one, so the epoch holds
// g's content at different indices.
func reinsert(t *testing.T, ov *graph.Overlay, g *graph.Graph) {
	t.Helper()
	var victim *graph.Node
	var edges []*graph.Edge
	var other *graph.Edge
	g.Edges(func(e *graph.Edge) bool {
		if victim == nil {
			victim = g.Node(e.Source)
		}
		if e.Source == victim.ID || e.Target == victim.ID {
			edges = append(edges, e)
		} else if other == nil {
			other = e
		}
		return true
	})
	if victim == nil {
		return
	}
	del := ov.Begin().DeleteNode(victim.ID)
	if other != nil {
		del.DeleteEdge(other.ID)
		edges = append(edges, other)
	}
	add := ov.Begin().AddNode(victim.ID, victim.Labels, victim.Props)
	for _, e := range edges {
		if e.Direction == graph.Undirected {
			add.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		} else {
			add.AddEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
	}
	for _, b := range []*graph.Batch{del, add} {
		if err := ov.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
}

// recoveredStore writes g through a durable overlay, applies any further
// mutations, checkpoints it (compacting the delta into the base) and
// returns the store a fresh open recovers from the directory.
func recoveredStore(t *testing.T, g *graph.Graph, mutate ...func(*graph.Overlay)) graph.Store {
	t.Helper()
	dir := t.TempDir()
	open := func() *graph.Overlay {
		ov, err := graph.OpenDurable(graph.DurableOptions{Dir: dir, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ov.Recover(); err != nil {
			t.Fatal(err)
		}
		return ov
	}
	ov := open()
	b := ov.Begin()
	g.Nodes(func(n *graph.Node) bool {
		b.AddNode(n.ID, n.Labels, n.Props)
		return true
	})
	g.Edges(func(e *graph.Edge) bool {
		if e.Direction == graph.Undirected {
			b.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		} else {
			b.AddEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
		return true
	})
	if err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	for _, m := range mutate {
		m(ov)
	}
	if err := ov.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ov.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	rec := open()
	t.Cleanup(func() { rec.CloseDurable() })
	return rec.Snapshot()
}

// TestReversedPatternsAgree: a pattern matches the same paths whether it
// is written from its first node or its last, so every multi-pattern
// conformance statement (sec65_*, cyclic_*) and every randomized join
// battery statement, with each pattern textually reversed, must return
// the same rows as the original — byte for byte once each reversed
// pattern's bindings are flipped back and the rows canonically re-sorted
// — on every store axis. The reversed statements seed from the other end
// of every pattern, so this pits the planner's head and tail seeds
// against each other.
func TestReversedPatternsAgree(t *testing.T) {
	type reverseCase struct {
		label, src string
		g          *graph.Graph
	}
	var cases []reverseCase
	for _, glob := range []string{"sec65_*.txt", "cyclic_*.txt"} {
		files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", glob))
		for _, path := range files {
			query, name := readCorpusCase(t, path)
			build, ok := corpusGraphs[name]
			if !ok {
				t.Fatalf("%s: graph %q; add it to the battery", path, name)
			}
			cases = append(cases, reverseCase{filepath.Base(path), query, build()})
		}
	}
	if len(cases) < 7 {
		t.Fatalf("only %d multi-pattern corpus cases", len(cases))
	}
	for _, c := range joinDiffCases(t) {
		cases = append(cases, reverseCase{c.label, c.src, c.g})
	}

	axes := map[*graph.Graph][]storeAxis{}
	reversed := 0
	for _, c := range cases {
		p := compile(t, c.src, plan.Options{})
		revSrc, flipped := reversedStatement(t, c.src)
		rp := compile(t, revSrc, plan.Options{})
		if !slices.Contains(flipped, true) {
			continue
		}
		reversed++
		if axes[c.g] == nil {
			axes[c.g] = reverseAxes(t, c.g)
		}
		for _, ax := range axes[c.g] {
			label := fmt.Sprintf("%s [%s]\nreversed: %s", c.label, ax.name, revSrc)
			want, err := EvalPlan(ax.s, p, Config{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := EvalPlan(ax.s, rp, Config{})
			if err != nil {
				t.Fatalf("%s: reversed: %v", label, err)
			}
			// Rebuild each row from its flipped bindings, so group
			// variables list their elements in the original order.
			rows := make([]*Row, len(got.Rows))
			for r, row := range got.Rows {
				joined := newRow(p)
				for i, sol := range row.Bindings {
					if flipped[i] {
						sol.Reverse() // got's own copy, not read again
					}
					joined.Bindings[i] = sol
				}
				if v := disagreement(p, &joined); v != "" {
					t.Fatalf("%s: row %d does not rejoin on %s", label, r, v)
				}
				rows[r] = &joined
			}
			sortRowsCanonical(rows, len(p.Paths))
			diffStrings(t, label, renderResult(&Result{Columns: want.Columns, Rows: rows}), renderResult(want))
		}
	}
	if reversed < 20 {
		t.Fatalf("only %d statements had a reversible pattern", reversed)
	}
}

// TestIdentityByIndexOnEveryAxis: within a query's pinned view, element
// identity is the (kind, index) pair — for GQL element =/<>, SAME,
// ALL_DIFFERENT, SOURCE OF/DESTINATION OF, the join's equi-join check
// and edge-isomorphic mode. On every store axis, including those whose
// re-added elements sit at fresh indices beside dead holes, the rows
// equal those on a fresh dense snapshot of the same epoch.
func TestIdentityByIndexOnEveryAxis(t *testing.T) {
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[u:Transfer]->{1,3}(z:Account) WHERE x = z`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[u:Transfer]->(z:Account) WHERE x <> z`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (z:Account)-[u:Transfer]->(w:Account) WHERE SAME(t, u) AND NOT SAME(x, w)`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account) WHERE ALL_DIFFERENT(x, y, z)`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (z:Account) WHERE z IS SOURCE OF t`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (z:Account) WHERE z IS DESTINATION OF t AND z IS NOT SOURCE OF t`,
		`MATCH (x:Account)~[h:hasPhone]~(p:Phone), (z:Account) WHERE z IS NOT SOURCE OF h`,
	}
	g := dataset.Fig1()
	holes := 0
	for _, ax := range reverseAxes(t, g) {
		st := graph.AsStepper(ax.s)
		if st.NodeIndexSpan() > st.NumNodes() {
			holes++
		}
		fresh := graph.Snapshot(st)
		for _, src := range queries {
			p := compile(t, src, plan.Options{AllowElementEquality: true})
			for _, cfg := range []Config{{}, {EdgeIsomorphic: true}} {
				label := fmt.Sprintf("%s [%s edge-iso %v]", src, ax.name, cfg.EdgeIsomorphic)
				want, err := EvalPlan(fresh, p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(want.Rows) == 0 && !cfg.EdgeIsomorphic {
					t.Fatalf("%s: no rows on the fresh snapshot", label)
				}
				got, err := EvalPlan(ax.s, p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diffStrings(t, label, renderResult(got), renderResult(want))
			}
		}
	}
	if holes < 2 {
		t.Errorf("only %d axes hold dead index holes; the reinserted axes must", holes)
	}
}
