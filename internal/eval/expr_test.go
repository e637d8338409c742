package eval

import (
	"testing"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/parser"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// mapResolver is a fixed-binding resolver for expression unit tests.
type mapResolver struct {
	g      *graph.CSR
	elems  map[string]binding.Ref
	groups map[string][]binding.Ref
}

func (r mapResolver) Graph() graph.Stepper { return r.g }

func (r mapResolver) Elem(name string) (binding.Ref, bool) {
	ref, ok := r.elems[name]
	return ref, ok
}

func (r mapResolver) Group(name string) ([]binding.Ref, bool) {
	g, ok := r.groups[name]
	return g, ok
}

func fig1Resolver() mapResolver {
	g := graph.Snapshot(dataset.Fig1())
	node := func(id graph.NodeID) binding.Ref {
		i, ok := g.InternNode(id)
		if !ok {
			panic("unknown node " + id)
		}
		return binding.Ref{Kind: binding.NodeElem, Idx: i}
	}
	edge := func(id graph.EdgeID) binding.Ref {
		i, ok := g.InternEdge(id)
		if !ok {
			panic("unknown edge " + string(id))
		}
		return binding.Ref{Kind: binding.EdgeElem, Idx: i}
	}
	return mapResolver{
		g: g,
		elems: map[string]binding.Ref{
			"a":  node("a1"),
			"b":  node("a4"),
			"t":  edge("t1"),
			"h":  edge("hp1"),
			"a2": node("a3"),
		},
		groups: map[string][]binding.Ref{
			"es": {edge("t1"), edge("t2"), edge("t3")},
		},
	}
}

func pred(t *testing.T, src string) value.Tri {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	tri, err := EvalPred(e, fig1Resolver())
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return tri
}

func val(t *testing.T, src string) value.Value {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := EvalValue(e, fig1Resolver())
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestPredicateEvaluation(t *testing.T) {
	cases := map[string]value.Tri{
		`a.owner = 'Scott'`:                 value.True,
		`a.owner = 'Aretha'`:                value.False,
		`a.owner <> 'Aretha'`:               value.True,
		`t.amount > 5M`:                     value.True,
		`t.amount > 5M AND b.owner = 'Jay'`: value.True,
		`t.amount < 5M OR b.owner = 'Jay'`:  value.True,
		`NOT t.amount < 5M`:                 value.True,
		`a.missing = 1`:                     value.Unknown,
		`a.missing IS NULL`:                 value.True,
		`a.owner IS NOT NULL`:               value.True,
		`t IS DIRECTED`:                     value.True,
		`h IS DIRECTED`:                     value.False,
		`h IS NOT DIRECTED`:                 value.True,
		`a IS SOURCE OF t`:                  value.True,
		`a IS DESTINATION OF t`:             value.False,
		`a2 IS DESTINATION OF t`:            value.True,
		`a IS NOT SOURCE OF t`:              value.False,
		`a IS SOURCE OF h`:                  value.False, // undirected: no roles
		`SAME(a, a)`:                        value.True,
		`SAME(a, b)`:                        value.False,
		`ALL_DIFFERENT(a, b, a2)`:           value.True,
		`ALL_DIFFERENT(a, b, a)`:            value.False,
		`t.amount + 1 = 8000001`:            value.True,
		`t.amount / 2 = 4M`:                 value.True,
		`t.amount % 3 = 2`:                  value.True,
		`-t.amount < 0`:                     value.True,
		`COUNT(es) = 3`:                     value.True,
		`SUM(es.amount) = 28M`:              value.True,
		`AVG(es.amount) > 9M`:               value.True,
		`MIN(es.amount) = 8M`:               value.True,
		`MAX(es.amount) = 10M`:              value.True,
		`COUNT(DISTINCT es) = 3`:            value.True,
		`TRUE`:                              value.True,
		`FALSE`:                             value.False,
		`TRUE XOR FALSE`:                    value.True,
		`TRUE XOR TRUE`:                     value.False,
		`a.owner`:                           value.Unknown, // non-boolean truthiness
	}
	for src, want := range cases {
		if got := pred(t, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestValueEvaluation(t *testing.T) {
	if v := val(t, `t.amount`); !value.Identical(v, value.Int(8_000_000)) {
		t.Errorf("t.amount: %v", v)
	}
	if v := val(t, `a.owner + '!'`); !value.Identical(v, value.Str("Scott!")) {
		t.Errorf("concat: %v", v)
	}
	if v := val(t, `t.amount + a.owner`); !v.IsNull() {
		t.Errorf("type mismatch arithmetic yields NULL, got %v", v)
	}
	if v := val(t, `missing.owner`); !v.IsNull() {
		t.Errorf("unbound var property: %v", v)
	}
	if v := val(t, `1 / 0`); !v.IsNull() {
		t.Errorf("division by zero yields NULL, got %v", v)
	}
	if v := val(t, `COUNT(es.*)`); !value.Identical(v, value.Int(3)) {
		t.Errorf("COUNT(es.*): %v", v)
	}
	if v := val(t, `LISTAGG(es, ', ')`); !value.Identical(v, value.Str("t1, t2, t3")) {
		t.Errorf("LISTAGG(es): %v", v)
	}
	if v := val(t, `LISTAGG(es.date, '; ')`); !value.Identical(v, value.Str("1/1/2020; 2/1/2020; 3/1/2020")) {
		t.Errorf("LISTAGG(es.date): %v", v)
	}
	if v := val(t, `NOT FALSE`); !value.Identical(v, value.Bool(true)) {
		t.Errorf("NOT as value: %v", v)
	}
}

func TestElementEqualityEvaluation(t *testing.T) {
	r := fig1Resolver()
	e, err := parser.ParseExpr(`a = a2`)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := EvalPred(e, r)
	if err != nil || tri != value.False {
		t.Errorf("a = a2: %v %v", tri, err)
	}
	e, _ = parser.ParseExpr(`a <> a2`)
	tri, _ = EvalPred(e, r)
	if tri != value.True {
		t.Errorf("a <> a2: %v", tri)
	}
	// Unbound side yields UNKNOWN.
	e, _ = parser.ParseExpr(`a = zzz`)
	tri, err = EvalPred(e, r)
	if err != nil || tri != value.Unknown {
		t.Errorf("a = zzz: %v %v", tri, err)
	}
}

// LISTAGG end-to-end: §3's "LISTAGG(e.ID, ', ') produces a comma-separated
// list" — reconstructing the matched path's edges as a string.
func TestListaggEndToEnd(t *testing.T) {
	res := evalQuery(t, dataset.Fig1(), `
		MATCH ANY SHORTEST (a WHERE a.owner='Dave')-[e:Transfer]->+
		      (b WHERE b.owner='Aretha')
		WHERE LISTAGG(e, ', ') = 't5, t2'`)
	if len(res.Rows) != 1 {
		t.Errorf("LISTAGG postfilter: got %d rows, want 1", len(res.Rows))
	}
}

// The edge-isomorphic match mode (§7.1 language opportunity): a walk that
// repeats an edge across two path patterns is excluded.
func TestEdgeIsomorphicMode(t *testing.T) {
	g := dataset.Fig1()
	// Two patterns both matching t1: homomorphic semantics keeps the row,
	// edge-isomorphic drops it.
	p := compile(t, `
		MATCH (a WHERE a.owner='Scott')-[e1:Transfer]->(m),
		      (a)-[e2:Transfer]->(m2)`, plan.Options{})
	res, err := EvalPlan(g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 { // only t1 leaves a1: e1=e2=t1
		t.Fatalf("homomorphic rows: %d", len(res.Rows))
	}
	res, err = EvalPlan(g, p, Config{EdgeIsomorphic: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("edge-isomorphic mode must drop the repeated-edge row, got %d", len(res.Rows))
	}
}

// Within a single pattern, edge-isomorphic equals TRAIL on walks.
func TestEdgeIsomorphicEqualsTrail(t *testing.T) {
	g := dataset.Cycle(4)
	bounded := compile(t, `MATCH p = (a)-[e:Transfer]->{1,8}(b)`, plan.Options{})
	iso, err := EvalPlan(g, bounded, Config{EdgeIsomorphic: true})
	if err != nil {
		t.Fatal(err)
	}
	trail, err := EvalPlan(g, compile(t, `MATCH TRAIL p = (a)-[e:Transfer]->{1,8}(b)`, plan.Options{}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(iso.Rows) != len(trail.Rows) {
		t.Errorf("edge-isomorphic (%d) should equal TRAIL (%d) on single-pattern walks",
			len(iso.Rows), len(trail.Rows))
	}
}

func TestAggregateErrors(t *testing.T) {
	r := fig1Resolver()
	e, _ := parser.ParseExpr(`SUM(es.owner)`)
	// owner is absent on edges: all NULL → SUM NULL.
	v, err := EvalValue(e, r)
	if err != nil || !v.IsNull() {
		t.Errorf("SUM over missing property: %v %v", v, err)
	}
	// Aggregate over an absent group: COUNT 0, SUM NULL.
	e, _ = parser.ParseExpr(`COUNT(nothing)`)
	v, err = EvalValue(e, r)
	if err != nil || !value.Identical(v, value.Int(0)) {
		t.Errorf("COUNT over absent group: %v %v", v, err)
	}
}

func TestIsDirectedOnNonEdge(t *testing.T) {
	// An out-of-range index models a dangling reference.
	r := mapResolver{
		g:     graph.Snapshot(dataset.Fig1()),
		elems: map[string]binding.Ref{"x": {Kind: binding.EdgeElem, Idx: 1 << 20}},
	}
	e, _ := parser.ParseExpr(`x IS DIRECTED`)
	if _, err := EvalPred(e, r); err == nil {
		t.Errorf("dangling edge reference must error")
	}
}

// DISTINCT aggregates agree with =: an int 1 and a float 1.0 are one
// value, so over e.x = 1, 1.0, 3 each DISTINCT aggregate sees {1, 3}.
func TestDistinctAggregatesAgreeWithEq(t *testing.T) {
	g := graph.NewBuilder().
		Node("n0", nil).Node("n1", nil).Node("n2", nil).Node("n3", nil).
		Edge("e1", "n0", "n1", nil, "x", 1).
		Edge("e2", "n1", "n2", nil, "x", 1.0).
		Edge("e3", "n2", "n3", nil, "x", 3).
		MustBuild()
	for _, cond := range []string{
		`COUNT(DISTINCT e.x) = 2`,
		`SUM(DISTINCT e.x) = 4`,
		`AVG(DISTINCT e.x) = 2`,
		`LISTAGG(DISTINCT e.x, ',') = '1,3'`,
	} {
		src := `MATCH (a)-[e]->{3}(b) WHERE ` + cond
		if res := evalQuery(t, g, src); len(res.Rows) != 1 {
			t.Errorf("%s: %d rows, want 1", src, len(res.Rows))
		}
	}
}
