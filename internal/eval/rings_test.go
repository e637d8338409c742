package eval

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/parser"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// hoistTailEq moves the x.p = operand conjuncts of every selector-free
// pattern's last node pattern into the statement's WHERE, and reports
// whether it moved any. The hoisted statement has the same rows — a
// singleton's node WHERE and the postfilter see the same binding — but
// its patterns have no TailEq, so nothing prunes toward a tail.
func hoistTailEq(t *testing.T, src string) (string, bool) {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	var hoisted []ast.Expr
	for _, pp := range stmt.Patterns {
		np := endNode(pp.Expr, true)
		if pp.Selector.Kind != ast.NoSelector || np == nil || np.Where == nil {
			continue
		}
		var kept []ast.Expr
		for _, c := range conjuncts(np.Where) {
			if isEqConjunct(c, np.Var) {
				hoisted = append(hoisted, c)
			} else {
				kept = append(kept, c)
			}
		}
		np.Where = and(kept)
	}
	if len(hoisted) == 0 {
		return src, false
	}
	if stmt.Where != nil {
		hoisted = append([]ast.Expr{stmt.Where}, hoisted...)
	}
	stmt.Where = and(hoisted)
	return stmt.String(), true
}

// conjuncts flattens a conjunction.
func conjuncts(e ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// and joins conjuncts back together (nil for none).
func and(es []ast.Expr) ast.Expr {
	var out ast.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &ast.Binary{Op: ast.OpAnd, L: out, R: e}
		}
	}
	return out
}

// isEqConjunct reports whether e is an equality of the variable's
// property with a parameter or a literal, in either order — the shape
// plan.EqConjunct records.
func isEqConjunct(e ast.Expr, v string) bool {
	b, ok := e.(*ast.Binary)
	if !ok || b.Op != ast.OpEq {
		return false
	}
	for _, side := range [][2]ast.Expr{{b.L, b.R}, {b.R, b.L}} {
		pa, ok := side[0].(*ast.PropAccess)
		if !ok || pa.Var != v {
			continue
		}
		switch side[1].(type) {
		case *ast.Param, *ast.Literal:
			return true
		}
	}
	return false
}

// ringCase is one statement of the ring and pair batteries.
type ringCase struct {
	label, src string
	g          *graph.Graph
	params     Params
}

// ringFamilies are statements whose last node has an equality conjunct:
// TRAIL, ACYCLIC and SIMPLE over {1,3}, on the corner graph's directed and
// undirected multi-edges and self-loops, with parameters (NULL included),
// a union under the quantifier, and a join whose second pattern prunes.
func ringFamilies() []ringCase {
	corner, fig1 := cornerGraph(), dataset.Fig1()
	owner := Params{"o": value.Str("owner3")}
	return []ringCase{
		{"trail-any-direction", `MATCH TRAIL (a:Account)-[t:Transfer]-{1,3}(b:Account WHERE b.isBlocked='yes')`, corner, nil},
		{"acyclic-param", `MATCH ACYCLIC (a:Account)-[t:Transfer]->{1,3}(b:Account WHERE b.owner=$o)`, corner, owner},
		{"acyclic-null", `MATCH ACYCLIC (a:Account)-[t:Transfer]->{1,3}(b:Account WHERE b.owner=$o)`, corner, Params{"o": value.Null}},
		{"simple-closing", `MATCH SIMPLE (a:Account)-[t]-{1,3}(b:Account WHERE b.isBlocked='no' AND b.owner='owner0')`, corner, nil},
		{"trail-undirected-loops", `MATCH TRAIL (a:Phone)~[h:hasPhone]~{1,3}(b:Phone WHERE b.number='000')`, corner, nil},
		{"trail-left", `MATCH TRAIL p = (a)<-[t:Transfer]-{1,3}(b:Account WHERE 'owner1'=b.owner)`, corner, nil},
		{"union", `MATCH TRAIL (a:Account) [-[t:Transfer]->(m) | ~[h:hasPhone]~(m)]{1,3} (b:Account WHERE b.isBlocked='no')`, corner, nil},
		{"single-edge", `MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')`, corner, nil},
		{"fixed-length", `MATCH (a:Account)-[t:Transfer]->(m)-[u]-(b:Account WHERE b.isBlocked='yes' AND b.owner <> 'x')`, corner, nil},
		{"fig1-trail", `MATCH TRAIL (x:Account)-[:Transfer]->{1,3}(y:Account WHERE y.isBlocked='yes')`, fig1, nil},
		{"fig1-join", `MATCH (x:Account)-[:isLocatedIn]->(c:City WHERE c.name='Ankh-Morpork'), ACYCLIC (x)-[t:Transfer]-{1,3}(y:Account WHERE y.isBlocked='yes')`, fig1, nil},
	}
}

// TestTailRingsExact: pruning toward the tail's index bucket changes no
// row. Every conformance and join-battery statement, and every ring
// family, whose tail has an equality conjunct returns, on every store
// axis, the same rows as the same text with those conjuncts hoisted into
// its WHERE. The rings must have been built and must have cut steps.
func TestTailRingsExact(t *testing.T) {
	var cases []ringCase
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	for _, path := range files {
		query, name := readCorpusCase(t, path)
		cases = append(cases, ringCase{filepath.Base(path), query, corpusGraphs[name](), nil})
	}
	for _, c := range joinDiffCases(t) {
		cases = append(cases, ringCase{c.label, c.src, c.g, nil})
	}
	cases = append(cases, ringFamilies()...)

	builds, prunes := ringBuilds.Load(), ringPrunes.Load()
	checked := 0
	for _, c := range cases {
		hoisted, ok := hoistTailEq(t, c.src)
		if !ok {
			continue
		}
		checked++
		p := compile(t, c.src, plan.Options{})
		hp := compile(t, hoisted, plan.Options{})
		for _, pp := range hp.Paths {
			if ringsApply(pp) {
				t.Fatalf("%s: hoisted text still prunes: %s", c.label, hoisted)
			}
		}
		for _, ax := range reverseAxes(t, c.g) {
			cfg := Config{Params: c.params}
			label := fmt.Sprintf("%s [%s]\nhoisted: %s", c.label, ax.name, hoisted)
			got, err := EvalPlan(ax.s, p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := EvalPlan(ax.s, hp, cfg)
			if err != nil {
				t.Fatalf("%s: hoisted: %v", label, err)
			}
			diffStrings(t, label, renderResult(got), renderResult(want))
		}
	}
	if checked < len(ringFamilies())+3 {
		t.Errorf("only %d statements had a tail equality to hoist", checked)
	}
	if ringBuilds.Load() == builds || ringPrunes.Load() == prunes {
		t.Errorf("rings built %d times and pruned %d steps; the battery must exercise both",
			ringBuilds.Load()-builds, ringPrunes.Load()-prunes)
	}
}

// pairFamilies are joins whose last step has both ends bound: a bounded
// TRAIL, ACYCLIC and SIMPLE pattern over {1,3} between two bound nodes,
// the same node at both ends (a self-loop and cycles through it),
// undirected multi-edges, and the triangle.
var pairFamilies = []struct{ name, src string }{
	{"trail", `MATCH (x:Account)-[t1:Transfer]->(y:Account), TRAIL (x)-[t2:Transfer]-{1,3}(y)`},
	{"acyclic", `MATCH (x:Account)~[h1:hasPhone]~(p:Phone)~[h2:hasPhone]~(y:Account), ACYCLIC (x)-[t:Transfer]-{1,3}(y)`},
	{"simple-back", `MATCH (x:Account)-[t1:Transfer]->(y:Account), SIMPLE (y)-[t2:Transfer]->{1,3}(x)`},
	{"same-node", `MATCH (x:Account)-[t1:Transfer]->(x), TRAIL (x)-[t2]-{1,3}(x)`},
	{"undirected", `MATCH (x:Account)~[h1:hasPhone]~(p:Phone), TRAIL (x)~[h2:hasPhone]~{1,3}(p)`},
	{"triangle", `MATCH (x:Account)-[t1:Transfer]->(y:Account), (y)-[t2:Transfer]->(z:Account), (z)-[t3:Transfer]->(x)`},
	{"tail-param", `MATCH (x:Account)-[t1:Transfer]->(y:Account WHERE y.isBlocked=$b), TRAIL (y)<-[t2:Transfer]-{1,2}(x)`},
}

// TestPairSeedsMatchClassicJoin checks each pair family against
// classicJoin, which solves every pattern in full, on every store axis of
// the corner graph and the join battery's graphs; and that each family
// really built a pair-seeded step, whose rings cut steps.
func TestPairSeedsMatchClassicJoin(t *testing.T) {
	graphs := append([]*graph.Graph{cornerGraph()}, joinDiffGraphs()...)
	params := Params{"b": value.Str("no")}
	prunes := ringPrunes.Load()
	for _, fam := range pairFamilies {
		p := compile(t, fam.src, plan.Options{})
		var cfg Config
		if len(p.Params) > 0 { // EvalPlan refuses a parameter the query does not use
			cfg.Params = params
		}
		before := pairSeededSteps.Load()
		for gi, g := range graphs {
			for _, ax := range reverseAxes(t, g) {
				label := fmt.Sprintf("%s graph %d [%s]", fam.name, gi, ax.name)
				got, err := EvalPlan(ax.s, p, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := classicJoin(t, ax.s, p, cfg)
				diffStrings(t, label, renderResult(got), renderResult(want))
			}
		}
		if pairSeededSteps.Load() == before {
			t.Errorf("%s: no step was pair-seeded\n%s", fam.name, fam.src)
		}
	}
	if ringPrunes.Load() == prunes {
		t.Error("the pair rings cut no step")
	}
}

// TestPairSeedSkipsUnboundTarget: a row whose target variable is unbound
// joins nothing, and a pair with no match allocates no index.
func TestPairSeedSkipsUnboundTarget(t *testing.T) {
	csr := graph.Snapshot(cornerGraph())
	st := graph.Stepper(csr)
	p := compile(t, pairFamilies[0].src, plan.Options{})
	c := &bindStepCursor{
		ctx: context.Background(), st: st, pp: p.Paths[1], run: p.Paths[1], cfg: Config{},
		seedVar: "x", target: "y", shared: []string{"x", "y"},
		pair: newRings(st.NodeIndexSpan(), p.Paths[1].MaxEdges),
		memo: map[uint64]*seedIndex{},
	}
	x, _ := csr.InternNode("a0")
	sol := &binding.Reduced{Src: st, Cols: []binding.ReducedCol{{Var: "x", Kind: binding.NodeElem, Idx: x}}}
	row := newRow(p)
	row.Bindings[0] = sol
	if sols, err := c.candidates(&row); err != nil || sols != nil {
		t.Fatalf("unbound target: %v, %v", sols, err)
	}
	p0, _ := csr.InternNode("p0")
	sol.Cols = append(sol.Cols, binding.ReducedCol{Var: "y", Kind: binding.NodeElem, Idx: p0})
	if sols, err := c.candidates(&row); err != nil || sols != nil {
		t.Fatalf("pair without a match: %v, %v", sols, err)
	}
	if idx, ok := c.memo[uint64(x)<<32|uint64(p0)]; !ok || idx != nil {
		t.Errorf("pair without a match memoized %v (present %v), want a nil index", idx, ok)
	}
}
