package core_test

import (
	"strings"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/core"
	"gpml/internal/dataset"
	"gpml/internal/eval"
	"gpml/internal/graph"
)

// run compiles and evaluates a query on Fig 1.
func run(t *testing.T, src string) *eval.Result {
	t.Helper()
	q, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := eval.EvalPlan(dataset.Fig1(), q.Plan, eval.Config{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return res
}

// varIDs extracts the sorted element ids bound to a variable.
func varIDs(t *testing.T, res *eval.Result, name string) []string {
	t.Helper()
	var out []string
	for _, row := range res.Rows {
		b, ok := row.Get(name)
		if !ok {
			t.Fatalf("no binding for %q", name)
		}
		switch b.Kind {
		case eval.BoundNode:
			out = append(out, string(b.Node))
		case eval.BoundEdge:
			out = append(out, string(b.Edge))
		case eval.BoundNull:
			out = append(out, "NULL")
		default:
			t.Fatalf("unexpected binding kind for %q: %v", name, b)
		}
	}
	return sorted(out...)
}

// §4.1: node patterns.
func TestSection41_NodePatterns(t *testing.T) {
	if got := len(run(t, `MATCH (x)`).Rows); got != 14 {
		t.Errorf("MATCH (x): want all 14 nodes, got %d", got)
	}
	if got := varIDs(t, run(t, `MATCH (x:Account)`), "x"); !equalStrings(got, sorted("a1", "a2", "a3", "a4", "a5", "a6")) {
		t.Errorf("MATCH (x:Account): got %v", got)
	}
	if got := len(run(t, `MATCH (x:Account|IP)`).Rows); got != 8 {
		t.Errorf("MATCH (x:Account|IP): want 8, got %d", got)
	}
	// Every Fig 1 node is labelled, so :!% matches nothing here.
	if got := len(run(t, `MATCH (x:!%)`).Rows); got != 0 {
		t.Errorf("MATCH (x:!%%): want 0 on Fig 1, got %d", got)
	}
	inline := varIDs(t, run(t, `MATCH (x:Account WHERE x.isBlocked='no')`), "x")
	post := varIDs(t, run(t, `MATCH (x:Account) WHERE x.isBlocked='no'`), "x")
	want := sorted("a1", "a2", "a3", "a5", "a6")
	if !equalStrings(inline, want) || !equalStrings(post, want) {
		t.Errorf("unblocked accounts: inline %v, postfilter %v, want %v", inline, post, want)
	}
	// Label conjunction and negation: c2 is City & Country; c1 Country only.
	if got := varIDs(t, run(t, `MATCH (x:City&Country)`), "x"); !equalStrings(got, []string{"c2"}) {
		t.Errorf("City&Country: got %v", got)
	}
	if got := varIDs(t, run(t, `MATCH (x:Country&!City)`), "x"); !equalStrings(got, []string{"c1"}) {
		t.Errorf("Country&!City: got %v", got)
	}
}

// §4.1: edge patterns as standalone queries.
func TestSection41_EdgePatterns(t *testing.T) {
	// All directed edges: 8 transfers + 6 isLocatedIn + 2 signInWithIP.
	if got := len(run(t, `MATCH -[e]->`).Rows); got != 16 {
		t.Errorf("MATCH -[e]->: want 16, got %d", got)
	}
	// All undirected edges: 6 hasPhone, each traversed from both endpoints
	// (the §4.2 doubling rule applies to every orientation-ambiguous
	// traversal, so the anonymous endpoints distinguish the two bindings).
	if got := len(run(t, `MATCH ~[e]~`).Rows); got != 12 {
		t.Errorf("MATCH ~[e]~: want 12, got %d", got)
	}
	// The distinct edges remain the 6 hasPhone edges.
	undirected := map[string]bool{}
	for _, id := range varIDs(t, run(t, `MATCH ~[e]~`), "e") {
		undirected[id] = true
	}
	if len(undirected) != 6 {
		t.Errorf("MATCH ~[e]~: want 6 distinct edges, got %d", len(undirected))
	}
	// Transfers above 5M: all but t6.
	got := varIDs(t, run(t, `MATCH -[e:Transfer WHERE e.amount>5M]->`), "e")
	if !equalStrings(got, sorted("t1", "t2", "t3", "t4", "t5", "t7", "t8")) {
		t.Errorf("big transfers: got %v", got)
	}
}

// §4.2: "(x)-[e]-(y)" returns each edge twice, once per traversal
// direction (directed self-loops excluded from Fig 1, so exactly 2×22).
// The Figure 5 orientations split that total: 16 directed edges pointing
// right, and the 6 undirected edges traversed from both endpoints.
func TestSection42_UndirectedTraversalDoubling(t *testing.T) {
	if got := len(run(t, `MATCH (x)-[e]-(y)`).Rows); got != 44 {
		t.Errorf("MATCH (x)-[e]-(y): want 44 (each edge in both directions), got %d", got)
	}
	if got := len(run(t, `MATCH (x)-[e]->(y)`).Rows); got != 16 {
		t.Errorf("MATCH (x)-[e]->(y): want 16, got %d", got)
	}
	if got := len(run(t, `MATCH (x)~[e]~(y)`).Rows); got != 12 {
		t.Errorf("MATCH (x)~[e]~(y): want 12 (6 undirected edges, both ways), got %d", got)
	}
}

// §4.2: incoming transfers of Aretha.
func TestSection42_ArethaIncoming(t *testing.T) {
	res := run(t, `MATCH (y WHERE y.owner='Aretha')<-[e:Transfer]-(x)`)
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	if got := varIDs(t, res, "x"); !equalStrings(got, []string{"a3"}) {
		t.Errorf("source: got %v, want [a3]", got)
	}
	if got := varIDs(t, res, "e"); !equalStrings(got, []string{"t2"}) {
		t.Errorf("edge: got %v, want [t2]", got)
	}
}

// §4.2: directed paths of length two include the paper's listed binding
// s↦a1, e↦t1, m↦a3, f↦t2, t↦a2; the total agrees with brute force.
func TestSection42_LengthTwoPaths(t *testing.T) {
	res := run(t, `MATCH (s)-[e]->(m)-[f]->(t)`)
	found := false
	for _, row := range res.Rows {
		s, _ := row.Get("s")
		e, _ := row.Get("e")
		m, _ := row.Get("m")
		f, _ := row.Get("f")
		tt, _ := row.Get("t")
		if s.Node == "a1" && e.Edge == "t1" && m.Node == "a3" && f.Edge == "t2" && tt.Node == "a2" {
			found = true
		}
	}
	if !found {
		t.Errorf("paper's example binding a1-t1->a3-t2->a2 not found")
	}
	want := bruteForceTwoStep(dataset.Fig1())
	if len(res.Rows) != want {
		t.Errorf("length-2 directed paths: got %d, brute force says %d", len(res.Rows), want)
	}
}

// bruteForceTwoStep counts directed length-2 paths independently.
func bruteForceTwoStep(g *graph.Graph) int {
	count := 0
	g.Edges(func(e *graph.Edge) bool {
		if e.Direction != graph.Directed {
			return true
		}
		g.Edges(func(f *graph.Edge) bool {
			if f.Direction == graph.Directed && e.Target == f.Source {
				count++
			}
			return true
		})
		return true
	})
	return count
}

// §4.2: the blocked-phone prefix query is empty on Fig 1 (no phone is
// blocked), and its unblocked variant matches every substantial transfer
// out of a phone-connected account.
func TestSection42_PhoneTransferQuery(t *testing.T) {
	blocked := run(t, `
		MATCH (p:Phone WHERE p.isBlocked='yes')
		      ~[e:hasPhone]~(a1:Account)
		      -[t:Transfer WHERE t.amount>1M]->(a2)`)
	if len(blocked.Rows) != 0 {
		t.Errorf("no Fig 1 phone is blocked; want 0 rows, got %d", len(blocked.Rows))
	}
	open := run(t, `
		MATCH (p:Phone WHERE p.isBlocked='no')
		      ~[e:hasPhone]~(a1:Account)
		      -[t:Transfer WHERE t.amount>1M]->(a2)`)
	// Phone-account pairs: p1~a1, p1~a5, p2~a3, p2~a2, p3~a6, p4~a4; out
	// transfers: a1:1, a5:1, a3:2, a2:1, a6:2, a4:1 → 8 rows.
	if len(open.Rows) != 8 {
		t.Errorf("unblocked variant: want 8 rows, got %d", len(open.Rows))
	}
}

// §4.2: transfer triangles via repeated variables (implicit equi-join).
func TestSection42_Triangles(t *testing.T) {
	res := run(t, `MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)`)
	if got := varIDs(t, res, "s"); !equalStrings(got, sorted("a1", "a3", "a5")) {
		t.Errorf("triangle starts: got %v, want the a1-a3-a5 cycle in each rotation", got)
	}
}

// §4.2: the path variable binds whole length-3 cyclic paths.
func TestSection42_PathVariable(t *testing.T) {
	res := run(t, `MATCH p = (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)`)
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 rotations, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		b, ok := row.Get("p")
		if !ok || b.Kind != eval.BoundPath {
			t.Fatalf("p not bound to a path")
		}
		if b.Path.Len() != 3 || b.Path.First() != b.Path.Last() {
			t.Errorf("expected 3-cycles, got %s", b.Path)
		}
	}
}

// §4.2: same-phone transfers return exactly the two bindings the paper
// lists: (p1, a5, t8, a1) and (p2, a3, t2, a2).
func TestSection42_SamePhoneTransfers(t *testing.T) {
	res := run(t, `
		MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->
		      (d:Account)~[:hasPhone]~(p)`)
	if len(res.Rows) != 2 {
		t.Fatalf("want exactly 2 bindings (paper §4.2), got %d", len(res.Rows))
	}
	var got []string
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		s, _ := row.Get("s")
		tr, _ := row.Get("t")
		d, _ := row.Get("d")
		got = append(got, strings.Join([]string{string(p.Node), string(s.Node), string(tr.Edge), string(d.Node)}, ","))
	}
	want := sorted("p1,a5,t8,a1", "p2,a3,t2,a2")
	if !equalStrings(sorted(got...), want) {
		t.Errorf("same-phone transfers:\n got  %v\n want %v", got, want)
	}
}

// §4.3: graph patterns join path patterns on shared variables.
func TestSection43_GraphPatternJoin(t *testing.T) {
	split := run(t, `
		MATCH (p:Phone WHERE p.isBlocked='no')~[:hasPhone]~(s:Account),
		      (s)-[t:Transfer WHERE t.amount>1M]->()`)
	if len(split.Rows) != 8 {
		t.Errorf("split form: want 8 rows, got %d", len(split.Rows))
	}
	triple := run(t, `
		MATCH (s:Account)-[:signInWithIP]->(),
		      (s)-[t:Transfer WHERE t.amount>1M]->(),
		      (s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='yes')`)
	if len(triple.Rows) != 0 {
		t.Errorf("three-way pattern with blocked phone: want 0 on Fig 1, got %d", len(triple.Rows))
	}
	tripleOpen := run(t, `
		MATCH (s:Account)-[:signInWithIP]->(),
		      (s)-[t:Transfer WHERE t.amount>1M]->(),
		      (s)~[:hasPhone]~(p:Phone)`)
	// Accounts with IP sign-ins: a1 (ip1), a5 (ip2); both have phone p1;
	// out-transfers: a1: t1; a5: t8 → 2 rows.
	if len(tripleOpen.Rows) != 2 {
		t.Errorf("three-way pattern: want 2 rows, got %d", len(tripleOpen.Rows))
	}
}

// Figure 4 (§3): fraudulent accounts in Ankh-Morpork. Unblocked account x
// and blocked account y, both located in Ankh-Morpork, with a chain of
// transfers x→…→y. With TRAIL bounding the chain, the owner pairs are
// (Aretha, Jay) and (Dave, Jay).
func TestFig4_AnkhMorporkFraud(t *testing.T) {
	res := run(t, `
		MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->
		      (g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-
		      (y:Account WHERE y.isBlocked='yes'),
		      TRAIL (x)-[:Transfer]->+(y)`)
	pairs := map[string]bool{}
	for _, row := range res.Rows {
		x, _ := row.Get("x")
		y, _ := row.Get("y")
		pairs[string(x.Node)+"→"+string(y.Node)] = true
	}
	if !pairs["a2→a4"] || !pairs["a6→a4"] || len(pairs) != 2 {
		t.Errorf("Fig 4 pairs: got %v, want {a2→a4, a6→a4}", pairs)
	}
	// Trail multiplicity: one trail a2→a4, three trails a6→a4 through the
	// transfer cycle.
	if len(res.Rows) != 4 {
		t.Errorf("Fig 4 rows: want 4 (1 + 3 trails), got %d", len(res.Rows))
	}
}

// §4.4: bounded quantifiers on edge and parenthesized patterns.
func TestSection44_Quantifiers(t *testing.T) {
	res := run(t, `MATCH (a:Account)-[:Transfer]->{2,5}(b:Account)`)
	want := bruteForceTransferChains(dataset.Fig1(), 2, 5, 0)
	if len(res.Rows) != want {
		t.Errorf("transfer chains {2,5}: got %d, brute force says %d", len(res.Rows), want)
	}

	// Same-owner iterations: Fig 1 has no self transfers, so empty.
	same := run(t, `MATCH [(a:Account)-[:Transfer]->(b:Account) WHERE a.owner=b.owner]{2,5}`)
	if len(same.Rows) != 0 {
		t.Errorf("same-owner chains: want 0, got %d", len(same.Rows))
	}

	// Group aggregation: chains of 2..5 large transfers with total > 10M.
	agg := run(t, `
		MATCH (a:Account)
		      [()-[t:Transfer]->() WHERE t.amount>1M]{2,5}
		      (b:Account)
		WHERE SUM(t.amount)>10M`)
	wantAgg := bruteForceTransferChains(dataset.Fig1(), 2, 5, 10_000_000)
	if len(agg.Rows) != wantAgg {
		t.Errorf("SUM-filtered chains: got %d, brute force says %d", len(agg.Rows), wantAgg)
	}
	if len(agg.Rows) == 0 {
		t.Fatalf("expected some qualifying chains")
	}
}

// bruteForceTransferChains counts directed Transfer walks with length in
// [min,max] whose total amount exceeds minSum (0 = no constraint; every
// Fig 1 transfer exceeds 1M so the t.amount>1M prefilter is vacuous).
func bruteForceTransferChains(g *graph.Graph, min, max int, minSum int64) int {
	count := 0
	var walk func(at graph.NodeID, depth int, sum int64)
	walk = func(at graph.NodeID, depth int, sum int64) {
		if depth >= min && depth <= max && (minSum == 0 || sum > minSum) {
			count++
		}
		if depth == max {
			return
		}
		g.Incident(at, func(e *graph.Edge) bool {
			if e.Direction == graph.Directed && e.Source == at && e.HasLabel("Transfer") {
				amt, _ := e.Prop("amount").AsInt()
				walk(e.Target, depth+1, sum+amt)
			}
			return true
		})
	}
	g.Nodes(func(n *graph.Node) bool {
		if n.HasLabel("Account") {
			walk(n.ID, 0, 0)
		}
		return true
	})
	return count
}

// §4.5: path pattern union deduplicates; multiset alternation does not.
func TestSection45_UnionVsMultiset(t *testing.T) {
	union := run(t, `MATCH (c:City) | (c:Country)`)
	if got := varIDs(t, union, "c"); !equalStrings(got, sorted("c1", "c2")) {
		t.Errorf("path pattern union: got %v, want one c1 and one c2", got)
	}
	multi := run(t, `MATCH (c:City) |+| (c:Country)`)
	if got := varIDs(t, multi, "c"); !equalStrings(got, sorted("c1", "c2", "c2")) {
		t.Errorf("multiset alternation: got %v, want c1 once and c2 twice", got)
	}
}

// §4.5: overlapping quantifiers deduplicate under union: ->{1,5} | ->{3,7}
// is equivalent to ->{1,7}.
func TestSection45_OverlappingQuantifiers(t *testing.T) {
	lhs := matchReduced(t, `MATCH ->{1,5} | ->{3,7}`)
	rhs := matchReduced(t, `MATCH ->{1,7}`)
	if len(lhs) != len(rhs) {
		t.Fatalf("union of overlapping quantifiers: %d vs %d bindings", len(lhs), len(rhs))
	}
	lk := map[string]bool{}
	for _, r := range lhs {
		lk[strings.Join(r.ValueRow(), " ")] = true
	}
	for _, r := range rhs {
		if !lk[strings.Join(r.ValueRow(), " ")] {
			t.Errorf("binding %v missing from union form", r.ValueRow())
		}
	}
	// Multiset alternation keeps the overlap: strictly more results.
	multi := matchReduced(t, `MATCH ->{1,5} |+| ->{3,7}`)
	if len(multi) <= len(rhs) {
		t.Errorf("multiset alternation should keep overlapping bindings: got %d, union %d", len(multi), len(rhs))
	}
}

// §4.6: implicit equi-join on a conditional singleton is rejected at
// compile time.
func TestSection46_ConditionalJoinRejected(t *testing.T) {
	_, err := core.Compile(`MATCH [(x)->(y)] | [(x)->(z)], (y)->(w)`, core.Options{})
	if err == nil {
		t.Fatalf("equi-join on conditional singleton y must be rejected (paper §4.6)")
	}
	if !strings.Contains(err.Error(), "conditional") {
		t.Errorf("error should mention conditional singletons: %v", err)
	}
}

// §4.6: the question-mark operator with a postfilter over the conditional
// variable. On Fig 1 only transfers into blocked a4 qualify (no phone is
// blocked), both with and without the optional leg.
func TestSection46_QuestionMarkOptional(t *testing.T) {
	res := run(t, `
		MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]?
		WHERE y.isBlocked='yes' OR p.isBlocked='yes'`)
	for _, row := range res.Rows {
		y, _ := row.Get("y")
		if y.Node != "a4" {
			t.Errorf("only transfers into blocked a4 qualify, got y=%s", y.Node)
		}
	}
	// t3 (a2→a4) matches with the optional leg absent and with p=p4.
	if len(res.Rows) != 2 {
		t.Errorf("want 2 rows (with and without the optional leg), got %d", len(res.Rows))
	}
	nulls, bound := 0, 0
	for _, row := range res.Rows {
		p, _ := row.Get("p")
		if p.Kind == eval.BoundNull {
			nulls++
		} else {
			bound++
		}
	}
	if nulls != 1 || bound != 1 {
		t.Errorf("want one row with p unbound and one with p=p4, got %d/%d", nulls, bound)
	}
}

// §4.6: ? keeps singletons conditional whereas {0,1} exposes group
// variables: a group variable cannot join across path patterns, and the
// two operators are distinguished by the planner.
func TestSection46_QuestionVsZeroOne(t *testing.T) {
	// With {0,1}, p is a group variable; SAME on it must be rejected.
	_, err := core.Compile(`
		MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]{0,1}, (q:Phone)
		WHERE SAME(p, q)`, core.Options{})
	if err == nil || !strings.Contains(err.Error(), "group") {
		t.Fatalf("SAME over a {0,1} group variable must be rejected, got %v", err)
	}
	// With ?, p is a conditional singleton; SAME is still rejected, but for
	// conditionality (§4.7).
	_, err = core.Compile(`
		MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]?, (q:Phone)
		WHERE SAME(p, q)`, core.Options{})
	if err == nil || !strings.Contains(err.Error(), "conditional") {
		t.Fatalf("SAME over a conditional singleton must be rejected, got %v", err)
	}
}

// §4.7: SAME and ALL_DIFFERENT.
func TestSection47_SameAllDifferent(t *testing.T) {
	same := run(t, `
		MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s3)
		WHERE SAME(s, s3)`)
	if got := varIDs(t, same, "s"); !equalStrings(got, sorted("a1", "a3", "a5")) {
		t.Errorf("SAME triangle starts: got %v", got)
	}
	diff := run(t, `
		MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s3)
		WHERE ALL_DIFFERENT(s, s1, s2, s3)`)
	for _, row := range diff.Rows {
		ids := map[graph.NodeID]bool{}
		for _, v := range []string{"s", "s1", "s2", "s3"} {
			b, _ := row.Get(v)
			ids[b.Node] = true
		}
		if len(ids) != 4 {
			t.Errorf("ALL_DIFFERENT violated: %v", ids)
		}
	}
}

// §4.7: orientation predicates on ambiguous edge patterns.
func TestSection47_OrientationPredicates(t *testing.T) {
	directed := run(t, `MATCH (x)-[e]-(y) WHERE e IS DIRECTED`)
	if len(directed.Rows) != 32 { // 16 directed edges × 2 traversals
		t.Errorf("IS DIRECTED: want 32, got %d", len(directed.Rows))
	}
	undirected := run(t, `MATCH (x)-[e]-(y) WHERE NOT e IS DIRECTED`)
	if len(undirected.Rows) != 12 { // 6 undirected edges × 2 traversals
		t.Errorf("NOT IS DIRECTED: want 12, got %d", len(undirected.Rows))
	}
	src := run(t, `MATCH (x)-[e]-(y) WHERE x IS SOURCE OF e`)
	if len(src.Rows) != 16 {
		t.Errorf("IS SOURCE OF: want 16, got %d", len(src.Rows))
	}
	dst := run(t, `MATCH (x)-[e]-(y) WHERE x IS DESTINATION OF e AND y IS SOURCE OF e`)
	if len(dst.Rows) != 16 {
		t.Errorf("reverse traversals: want 16, got %d", len(dst.Rows))
	}
}

// §4.7: SQL/PGQ rejects = on element references; GQL permits it.
func TestSection47_ElementEqualityModes(t *testing.T) {
	const q = `MATCH (s)-[:Transfer]->()-[:Transfer]->()-[:Transfer]->(s3) WHERE s = s3`
	if _, err := core.Compile(q, core.Options{}); err == nil {
		t.Fatalf("PGQ mode must reject element equality (paper §4.7)")
	}
	cq, err := core.Compile(q, core.Options{GQL: true})
	if err != nil {
		t.Fatalf("GQL mode should accept element equality: %v", err)
	}
	res, err := eval.EvalPlan(dataset.Fig1(), cq.Plan, eval.Config{})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if got := varIDs(t, res, "s"); !equalStrings(got, sorted("a1", "a3", "a5")) {
		t.Errorf("GQL element equality triangles: got %v", got)
	}
}

// The binding.FormatTable presentation renders the §6.4-style two-row
// tables used by the documentation tools.
func TestBindingTableRendering(t *testing.T) {
	rs := matchReduced(t, `MATCH (y WHERE y.owner='Aretha')<-[e:Transfer]-(x)`)
	out := binding.FormatTable(rs)
	if !strings.Contains(out, "y") || !strings.Contains(out, "t2") {
		t.Errorf("unexpected table rendering:\n%s", out)
	}
}

// §4.1: anonymous middle node patterns concatenate edges.
func TestSection41_AnonymousMiddleNode(t *testing.T) {
	res := run(t, `MATCH (x)-[:Transfer]->()-[:isLocatedIn]->(y)`)
	// Each transfer target has exactly one isLocatedIn edge: 8 rows.
	if len(res.Rows) != 8 {
		t.Errorf("transfer-then-location: want 8 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		y, _ := row.Get("y")
		n := dataset.Fig1().Node(y.Node)
		if !n.HasLabel("City") && !n.HasLabel("Country") {
			t.Errorf("y must be a location, got %s", y.Node)
		}
	}
}

// §4.6: the path pattern union formulation of "transfer to a blocked
// account or to an account with a blocked phone". On Fig 1 only the first
// branch matches (no phone is blocked).
func TestSection46_UnionFormulation(t *testing.T) {
	res := run(t, `
		MATCH [(x:Account)-[:Transfer]->(y:Account WHERE y.isBlocked='yes')] |
		      [(x:Account)-[:Transfer]->()~[:hasPhone]~(p WHERE p.isBlocked='yes')]`)
	if len(res.Rows) != 1 {
		t.Fatalf("union formulation: want 1 row (t3 into a4), got %d", len(res.Rows))
	}
	x, _ := res.Rows[0].Get("x")
	y, _ := res.Rows[0].Get("y")
	p, _ := res.Rows[0].Get("p")
	if x.Node != "a2" || y.Node != "a4" {
		t.Errorf("binding: x=%s y=%s", x.Node, y.Node)
	}
	if p.Kind != eval.BoundNull {
		t.Errorf("p is a conditional singleton, unbound in the matching branch: %+v", p)
	}
}

// MATCH () is legal: a placeholder matching every node with no bindings.
func TestEmptyNodePattern(t *testing.T) {
	res := run(t, `MATCH ()`)
	if len(res.Rows) != 14 {
		t.Errorf("MATCH (): want 14 rows, got %d", len(res.Rows))
	}
	if len(res.Columns) != 0 {
		t.Errorf("MATCH (): no named columns, got %v", res.Columns)
	}
}
