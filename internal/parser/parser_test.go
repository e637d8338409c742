package parser

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpml/internal/ast"
)

func parse(t *testing.T, src string) *ast.MatchStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

func parseErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("parse %q: expected error", src)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Errorf("parse %q: error %q does not mention %q", src, err, wantSub)
	}
}

func TestNodePatterns(t *testing.T) {
	stmt := parse(t, `MATCH (x:Account WHERE x.isBlocked='no')`)
	c := stmt.Patterns[0].Expr.(*ast.NodePattern)
	if c.Var != "x" {
		t.Errorf("var: %q", c.Var)
	}
	if c.Label.String() != "Account" {
		t.Errorf("label: %v", c.Label)
	}
	if c.Where == nil {
		t.Errorf("where missing")
	}
	// All parts optional.
	parse(t, `MATCH ()`)
	parse(t, `MATCH (x)`)
	parse(t, `MATCH (:Account)`)
	parse(t, `MATCH (WHERE 1=1)`)
}

func TestLabelExpressions(t *testing.T) {
	cases := map[string]string{
		`MATCH (x:Account|IP)`:       "Account|IP",
		`MATCH (x:City&Country)`:     "City&Country",
		`MATCH (x:!%)`:               "!%",
		`MATCH (x:!(City|Country))`:  "!(City|Country)",
		`MATCH (x:A&B|C)`:            "A&B|C",
		`MATCH (x:(A|B)&C)`:          "(A|B)&C",
		`MATCH (x:!A&B)`:             "!A&B",
		`MATCH (x:%)`:                "%",
		`MATCH (x:Account|IP|Phone)`: "Account|IP|Phone",
	}
	for src, want := range cases {
		stmt := parse(t, src)
		np := stmt.Patterns[0].Expr.(*ast.NodePattern)
		if got := np.Label.String(); got != want {
			t.Errorf("%s: label %q, want %q", src, got, want)
		}
	}
}

func TestEdgeOrientations(t *testing.T) {
	// Fig 5: all seven orientations, full and abbreviated forms.
	cases := map[string]ast.Orientation{
		`MATCH (a)<-[e]-(b)`:  ast.Left,
		`MATCH (a)~[e]~(b)`:   ast.UndirectedEdge,
		`MATCH (a)-[e]->(b)`:  ast.Right,
		`MATCH (a)<~[e]~(b)`:  ast.LeftOrUndir,
		`MATCH (a)~[e]~>(b)`:  ast.UndirOrRight,
		`MATCH (a)<-[e]->(b)`: ast.LeftOrRight,
		`MATCH (a)-[e]-(b)`:   ast.AnyOrientation,
		`MATCH (a)<-(b)`:      ast.Left,
		`MATCH (a)~(b)`:       ast.UndirectedEdge,
		`MATCH (a)->(b)`:      ast.Right,
		`MATCH (a)<~(b)`:      ast.LeftOrUndir,
		`MATCH (a)~>(b)`:      ast.UndirOrRight,
		`MATCH (a)<->(b)`:     ast.LeftOrRight,
		`MATCH (a)-(b)`:       ast.AnyOrientation,
	}
	for src, want := range cases {
		stmt := parse(t, src)
		concat := stmt.Patterns[0].Expr.(*ast.Concat)
		ep := concat.Elems[1].(*ast.EdgePattern)
		if ep.Orientation != want {
			t.Errorf("%s: orientation %v, want %v", src, ep.Orientation, want)
		}
	}
}

func TestEdgeSpecParts(t *testing.T) {
	stmt := parse(t, `MATCH -[e:Transfer WHERE e.amount>5M]->`)
	ep := stmt.Patterns[0].Expr.(*ast.EdgePattern)
	if ep.Var != "e" || ep.Label.String() != "Transfer" || ep.Where == nil {
		t.Errorf("edge spec: %+v", ep)
	}
	if ep.Orientation != ast.Right {
		t.Errorf("orientation: %v", ep.Orientation)
	}
	// Empty spec.
	stmt = parse(t, `MATCH -[]->`)
	ep = stmt.Patterns[0].Expr.(*ast.EdgePattern)
	if ep.Var != "" || ep.Label != nil || ep.Where != nil {
		t.Errorf("empty spec: %+v", ep)
	}
}

func TestQuantifiers(t *testing.T) {
	type q struct {
		min, max int
		question bool
	}
	cases := map[string]q{
		`MATCH (a)-[e]->*(b)`:          {0, -1, false},
		`MATCH (a)-[e]->+(b)`:          {1, -1, false},
		`MATCH (a)-[e]->{2,5}(b)`:      {2, 5, false},
		`MATCH (a)-[e]->{3,}(b)`:       {3, -1, false},
		`MATCH (a)-[e]->{4}(b)`:        {4, 4, false},
		`MATCH (a)[-[e]->(c)]?(b)`:     {0, 1, true},
		`MATCH (a)[-[e]->(c)]{0,1}(b)`: {0, 1, false},
	}
	for src, want := range cases {
		stmt := parse(t, src)
		concat := stmt.Patterns[0].Expr.(*ast.Concat)
		quant, ok := concat.Elems[1].(*ast.Quantified)
		if !ok {
			t.Fatalf("%s: second element is %T", src, concat.Elems[1])
		}
		if quant.Min != want.min || quant.Max != want.max || quant.Question != want.question {
			t.Errorf("%s: {%d,%d,q=%v}, want {%d,%d,q=%v}",
				src, quant.Min, quant.Max, quant.Question, want.min, want.max, want.question)
		}
	}
	parseErr(t, `MATCH (a)-[e]->{5,2}(b)`, "upper bound")
	parseErr(t, `MATCH (a)*`, "quantifiers apply only")
}

func TestSelectors(t *testing.T) {
	cases := map[string]ast.Selector{
		`MATCH ANY SHORTEST (a)->(b)`:     {Kind: ast.AnyShortest},
		`MATCH ALL SHORTEST (a)->(b)`:     {Kind: ast.AllShortest},
		`MATCH ANY (a)->(b)`:              {Kind: ast.AnyPath},
		`MATCH ANY 3 (a)->(b)`:            {Kind: ast.AnyK, K: 3},
		`MATCH SHORTEST 2 (a)->(b)`:       {Kind: ast.ShortestK, K: 2},
		`MATCH SHORTEST 2 GROUP (a)->(b)`: {Kind: ast.ShortestKGroup, K: 2},
	}
	for src, want := range cases {
		stmt := parse(t, src)
		if got := stmt.Patterns[0].Selector; got != want {
			t.Errorf("%s: selector %+v, want %+v", src, got, want)
		}
	}
	parseErr(t, `MATCH ALL (a)->(b)`, "SHORTEST")
	parseErr(t, `MATCH SHORTEST (a)->(b)`, "count")
	parseErr(t, `MATCH ANY 0 (a)->(b)`, "at least 1")
}

func TestRestrictors(t *testing.T) {
	cases := map[string]ast.Restrictor{
		`MATCH TRAIL (a)->(b)`:   ast.Trail,
		`MATCH ACYCLIC (a)->(b)`: ast.Acyclic,
		`MATCH SIMPLE (a)->(b)`:  ast.Simple,
		`MATCH (a)->(b)`:         ast.NoRestrictor,
	}
	for src, want := range cases {
		if got := parse(t, src).Patterns[0].Restrictor; got != want {
			t.Errorf("%s: restrictor %v, want %v", src, got, want)
		}
	}
	// Restrictor at the head of a parenthesized pattern (§5.1).
	stmt := parse(t, `MATCH ANY SHORTEST [TRAIL (x)-[e]->*(y)] (z)`)
	concat := stmt.Patterns[0].Expr.(*ast.Concat)
	par := concat.Elems[0].(*ast.Paren)
	if par.Restrictor != ast.Trail {
		t.Errorf("paren restrictor: %v", par.Restrictor)
	}
}

func TestPathVariables(t *testing.T) {
	stmt := parse(t, `MATCH p = (a)->(b)`)
	if stmt.Patterns[0].PathVar != "p" {
		t.Errorf("path var: %q", stmt.Patterns[0].PathVar)
	}
	stmt = parse(t, `MATCH TRAIL p = (a)-[e]->*(b)`)
	if stmt.Patterns[0].PathVar != "p" || stmt.Patterns[0].Restrictor != ast.Trail {
		t.Errorf("restrictor+path var: %+v", stmt.Patterns[0])
	}
}

func TestUnions(t *testing.T) {
	stmt := parse(t, `MATCH (c:City) | (c:Country)`)
	u := stmt.Patterns[0].Expr.(*ast.Union)
	if len(u.Branches) != 2 || u.Ops[0] != ast.SetUnion {
		t.Errorf("union: %+v", u)
	}
	stmt = parse(t, `MATCH (c:City) |+| (c:Country)`)
	u = stmt.Patterns[0].Expr.(*ast.Union)
	if u.Ops[0] != ast.Multiset {
		t.Errorf("multiset: %+v", u)
	}
	stmt = parse(t, `MATCH (a) | (b) |+| (c)`)
	u = stmt.Patterns[0].Expr.(*ast.Union)
	if len(u.Branches) != 3 || u.Ops[0] != ast.SetUnion || u.Ops[1] != ast.Multiset {
		t.Errorf("mixed: %+v", u)
	}
}

func TestGraphPatternsAndWhere(t *testing.T) {
	stmt := parse(t, `
		MATCH (s:Account)-[:signInWithIP]-(),
		      (s)-[t:Transfer WHERE t.amount>1M]->(),
		      (s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='yes')
		WHERE s.owner = 'Mike' AND NOT p.number = '111'`)
	if len(stmt.Patterns) != 3 {
		t.Fatalf("patterns: %d", len(stmt.Patterns))
	}
	if stmt.Where == nil {
		t.Fatalf("postfilter missing")
	}
}

func TestParenDisambiguation(t *testing.T) {
	// Node pattern vs parenthesized path pattern.
	stmt := parse(t, `MATCH ((a)-[e]->(b))`)
	if _, ok := stmt.Patterns[0].Expr.(*ast.Paren); !ok {
		t.Errorf("nested pattern should be a Paren, got %T", stmt.Patterns[0].Expr)
	}
	stmt = parse(t, `MATCH (a)`)
	if _, ok := stmt.Patterns[0].Expr.(*ast.NodePattern); !ok {
		t.Errorf("(a) should be a node pattern, got %T", stmt.Patterns[0].Expr)
	}
	// Square brackets always delimit path patterns.
	stmt = parse(t, `MATCH [(a)-[e]->(b) WHERE e.amount>1M]{2,5}`)
	q := stmt.Patterns[0].Expr.(*ast.Quantified)
	par := q.Inner.(*ast.Paren)
	if !par.Square || par.Where == nil {
		t.Errorf("square paren with where: %+v", par)
	}
}

func TestExpressions(t *testing.T) {
	e, err := ParseExpr(`x.amount > 5M AND (y.owner = 'Jay' OR NOT z.flag)`)
	if err != nil {
		t.Fatal(err)
	}
	want := `x.amount > 5000000 AND (y.owner = 'Jay' OR NOT z.flag)`
	if got := e.String(); got != want {
		t.Errorf("printed: %q want %q", got, want)
	}
	for _, src := range []string{
		`a.x + b.y * 2 - 1 / 3 % 2`,
		`x.a IS NULL`,
		`x.a IS NOT NULL`,
		`e IS DIRECTED`,
		`e IS NOT DIRECTED`,
		`s IS SOURCE OF e`,
		`d IS NOT DESTINATION OF e`,
		`SAME(p, q, r)`,
		`ALL_DIFFERENT(p, q)`,
		`COUNT(e)`,
		`COUNT(e.*)`,
		`COUNT(DISTINCT e)`,
		`SUM(t.amount) > 10M`,
		`AVG(e.x) < 1`,
		`MIN(e.x) <= MAX(e.x)`,
		`TRUE OR FALSE XOR x.a = NULL`,
		`-x.a < 5`,
		`x.a <> 3`,
	} {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	for _, src := range []string{
		`x.`, `COUNT()`, `SAME(p)`, `SUM(1+2)`, `x IS BANANA`,
		`(a`, `1 +`, `= 3`,
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q): expected error", src)
		}
	}
}

func TestStatementErrors(t *testing.T) {
	parseErr(t, ``, "MATCH")
	parseErr(t, `SELECT x`, "MATCH")
	parseErr(t, `MATCH`, "")
	parseErr(t, `MATCH (a) extra`, "unexpected")
	parseErr(t, `MATCH (a)->(b) KEEP ANY SHORTEST`, "KEEP")
	parseErr(t, `MATCH (a`, "")
	parseErr(t, `MATCH -[e:]->`, "label")
	parseErr(t, `MATCH <[e]>`, "")
}

// roundtripQueries span the constructs the printer renders; they seed
// FuzzParsePrintParse too.
var roundtripQueries = []string{
	`MATCH (x:Account WHERE x.isBlocked = 'no')`,
	`MATCH (a)-[e:Transfer WHERE e.amount > 5000000]->(b)`,
	`MATCH (p:Phone)~[h:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[h2:hasPhone]~(p)`,
	`MATCH TRAIL p = (a WHERE a.owner = 'Dave')-[t:Transfer]->*(b WHERE b.owner = 'Aretha')`,
	`MATCH ALL SHORTEST (x)-[e]->+(y)`,
	`MATCH ANY 2 (x)-[e]->{1,3}(y)`,
	`MATCH SHORTEST 2 GROUP (x)-[e]->*(y)`,
	`MATCH (c:City) | (c:Country)`,
	`MATCH (c:City) |+| (c:Country)`,
	`MATCH (x)[-[e]->(y)]?`,
	`MATCH (a)[(n1)-[e]->(n2) WHERE e.amount > 1000000]{2,5}(b) WHERE SUM(e.amount) > 10000000`,
	`MATCH (s)<~[e]~(m)~[f]~>(x)<-[g]->(y)`,
	`MATCH (a:Account&!Phone)`,
	`MATCH (x), (x)-[e]->(y) WHERE SAME(x, y) OR ALL_DIFFERENT(x, y)`,
}

// The printer emits parseable GPML: parse → print → parse is a fixpoint.
func TestPrintParseRoundtrip(t *testing.T) {
	for _, src := range roundtripQueries {
		first := parse(t, src)
		printed := first.String()
		second, err := Parse(printed)
		if err != nil {
			t.Errorf("re-parse of %q (printed %q) failed: %v", src, printed, err)
			continue
		}
		if second.String() != printed {
			t.Errorf("print not a fixpoint:\n  src    %q\n  first  %q\n  second %q", src, printed, second.String())
		}
		// The statement with every pattern reversed is a fixed point too.
		rev := &ast.MatchStmt{Where: first.Where}
		for _, pp := range first.Patterns {
			r := *pp
			r.Expr = ast.Reverse(pp.Expr)
			rev.Patterns = append(rev.Patterns, &r)
		}
		revPrinted := rev.String()
		again, err := Parse(revPrinted)
		if err != nil {
			t.Errorf("re-parse of reversed %q (printed %q) failed: %v", src, revPrinted, err)
			continue
		}
		if again.String() != revPrinted {
			t.Errorf("reversed print not a fixpoint:\n  src    %q\n  first  %q\n  second %q", src, revPrinted, again.String())
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("MATCH (x:Account\n WHERE")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line < 1 || pe.Col < 1 {
		t.Errorf("position: %d:%d", pe.Line, pe.Col)
	}
}

// The paper's own queries parse (syntax normalized to the common GPML
// core: SELECT-style projection belongs to the host languages).
func TestPaperQueriesParse(t *testing.T) {
	queries := []string{
		// §4 examples.
		`MATCH (x:Account WHERE x.isBlocked='no')`,
		`MATCH -[e:Transfer WHERE e.amount>5M]->`,
		`MATCH (x)`,
		`MATCH (x:Account)`,
		`MATCH (x:Account|IP)`,
		`MATCH (x:Account) WHERE x.isBlocked='no'`,
		`MATCH (x)-[:Transfer]->()-[:isLocatedIn]->(y)`,
		`MATCH -[e]->`,
		`MATCH ~[e]~`,
		`MATCH (x)-[e]->(y)`,
		`MATCH (y WHERE y.owner='Aretha')<-[e:Transfer]-(x)`,
		`MATCH (s)-[e]->(m)-[f]->(t)`,
		`MATCH (p:Phone WHERE p.isBlocked='yes')~[e:hasPhone]~(a1:Account)-[t:Transfer WHERE t.amount>1M]->(a2)`,
		`MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)`,
		`MATCH p = (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)`,
		`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)`,
		`MATCH (p:Phone WHERE p.isBlocked='yes')~[:hasPhone]~(s:Account), (s)-[t:Transfer WHERE t.amount>1M]->()`,
		`MATCH (s:Account)-[:SignInWithIP]-(), (s)-[t:Transfer WHERE t.amount>1M]->(), (s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='yes')`,
		`MATCH (a:Account)-[:Transfer]->{2,5}(b:Account)`,
		`MATCH [(a:Account)-[:Transfer]->(b:Account) WHERE a.owner=b.owner]{2,5}`,
		`MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account)`,
		`MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account) WHERE SUM(t.amount)>10M`,
		`MATCH (c:City) | (c:Country)`,
		`MATCH (c:City) |+| (c:Country)`,
		`MATCH ->{1,5} | ->{3,7}`,
		`MATCH ->{1,7}`,
		`MATCH [(x)->(y)] | [(x)->(z)]`,
		`MATCH (x) [->(y)]?`,
		`MATCH [(x:Account)-[:Transfer]->(y:Account WHERE y.isBlocked='yes')] | [(x:Account)-[:Transfer]->()-[:hasPhone]-(p WHERE p.isBlocked='yes')]`,
		`MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]? WHERE y.isBlocked='yes' OR p.isBlocked='yes'`,
		// §5 examples.
		`MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`,
		`MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`,
		`MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')-[r:Transfer]->*(c WHERE c.owner='Mike')`,
		`MATCH (p:Account WHERE p.owner='Natalia')->{1,10}(q:Account WHERE q.owner='Mike')->{1,10}(r:Account WHERE r.owner='Scott')`,
		`MATCH ALL SHORTEST (p:Account WHERE p.owner='Scott')->+(q:Account WHERE q.isBlocked='yes')->+(r:Account WHERE r.owner='Charles')`,
		`MATCH ALL SHORTEST [(x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1)>1]`,
		`MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1`,
		`MATCH ALL SHORTEST [TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1]`,
		// §6 examples.
		`MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]`,
		`MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ (a)-[:isLocatedIn]->(c:City|Country)`,
	}
	for _, src := range queries {
		if _, err := Parse(src); err != nil {
			t.Errorf("paper query failed to parse:\n  %s\n  %v", src, err)
		}
	}
}

// LISTAGG (§3, PGQL-style) parses with an optional separator.
func TestListaggParsing(t *testing.T) {
	e, err := ParseExpr(`LISTAGG(e, ', ')`)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := e.(*ast.Aggregate)
	if !ok || agg.Sep != ", " {
		t.Fatalf("LISTAGG: %#v", e)
	}
	e, err = ParseExpr(`LISTAGG(e.ID)`)
	if err != nil {
		t.Fatal(err)
	}
	if agg := e.(*ast.Aggregate); agg.Sep != ", " {
		t.Errorf("default separator: %q", agg.Sep)
	}
	if _, err := ParseExpr(`LISTAGG(e, 5)`); err == nil {
		t.Errorf("non-string separator must fail")
	}
	if _, err := ParseExpr(`LISTAGG(e.ID, '-') = 'a-b'`); err != nil {
		t.Errorf("LISTAGG in comparison: %v", err)
	}
}

// pickDeeperError ties on position must prefer the branch that consumed
// more tokens: the error may point at a token behind the cursor, so the
// position alone can tie even when one branch got much further. The old
// behavior kept branch a unconditionally on a position tie, surfacing
// the shallow node-pattern failure for malformed parenthesized paths.
func TestPickDeeperErrorConsumedTieBreak(t *testing.T) {
	a := &Error{Msg: "shallow", Line: 1, Col: 5}
	b := &Error{Msg: "deep", Line: 1, Col: 5}
	if got := pickDeeperError(a, 1, b, 7).(*Error); got.Msg != "deep" {
		t.Errorf("position tie: want the branch with more consumed tokens, got %q", got.Msg)
	}
	if got := pickDeeperError(a, 7, b, 1).(*Error); got.Msg != "shallow" {
		t.Errorf("position tie: want the branch with more consumed tokens, got %q", got.Msg)
	}
	// Exact tie keeps a (deterministic diagnostics).
	if got := pickDeeperError(a, 3, b, 3).(*Error); got.Msg != "shallow" {
		t.Errorf("exact tie must keep a, got %q", got.Msg)
	}
	// A later position wins regardless of consumption.
	c := &Error{Msg: "later", Line: 1, Col: 9}
	if got := pickDeeperError(a, 100, c, 1).(*Error); got.Msg != "later" {
		t.Errorf("later position must win, got %q", got.Msg)
	}
	if got := pickDeeperError(c, 1, a, 100).(*Error); got.Msg != "later" {
		t.Errorf("later position must win, got %q", got.Msg)
	}
}

// Regression: a malformed parenthesized path pattern must report the
// paren-branch error (which consumed deep into the group) rather than
// the node-pattern branch's shallow failure at the same position.
func TestNodeOrParenErrorDepth(t *testing.T) {
	_, err := Parse(`MATCH ((a)-[e]->(b) WHERE`)
	if err == nil {
		t.Fatal("expected a parse error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T", err)
	}
	// The paren branch consumes past the inner pattern; its error points
	// well beyond column 8 (where the node branch gives up on '(a)').
	if pe.Col <= 8 {
		t.Errorf("error position %d:%d reports the shallow branch: %v", pe.Line, pe.Col, err)
	}
}

// $name placeholders parse into ast.Param leaves carrying their source
// position.
func TestParamParsing(t *testing.T) {
	e, err := ParseExpr(`x.owner = $owner`)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := e.(*ast.Binary)
	if !ok {
		t.Fatalf("want *ast.Binary, got %#v", e)
	}
	p, ok := cmp.R.(*ast.Param)
	if !ok {
		t.Fatalf("want *ast.Param on the right, got %#v", cmp.R)
	}
	if p.Name != "owner" {
		t.Errorf("param name = %q, want owner", p.Name)
	}
	if p.Line != 1 || p.Col != 11 {
		t.Errorf("param position = %d:%d, want 1:11", p.Line, p.Col)
	}
	if got := p.String(); got != "$owner" {
		t.Errorf("String() = %q, want $owner", got)
	}
	if _, err := ParseExpr(`x.owner = $`); err == nil {
		t.Error("bare $ must fail to lex")
	}
}

// TestNestingDepthGuard pins the recursion bound: every recursive
// production parses at exactly maxDepth levels and fails one past it with
// a positioned error, whatever mix of productions did the nesting.
func TestNestingDepthGuard(t *testing.T) {
	rep := strings.Repeat
	// Each shape wraps a core in n levels of one recursive production;
	// prefix is what precedes the first opener.
	shapes := []struct {
		name, prefix string
		build        func(n int) string
	}{
		{"expression parentheses", "MATCH (a) WHERE ", func(n int) string { return rep("(", n) + "1=1" + rep(")", n) }},
		{"NOT chain", "MATCH (a) WHERE ", func(n int) string { return rep("NOT ", n) + "TRUE" }},
		{"unary minus chain", "MATCH (a) WHERE ", func(n int) string { return rep("- ", n) + "1 = 1" }},
		{"path parentheses", "MATCH ", func(n int) string { return rep("(", n) + "(a)" + rep(")", n) }},
		{"quantified groups", "MATCH ", func(n int) string { return rep("[", n) + "-[e]->" + rep("]{1,2}", n) }},
		{"label parentheses", "MATCH (a:", func(n int) string { return rep("(", n) + "A" + rep(")", n) + ")" }},
		{"label negation", "MATCH (a:", func(n int) string { return rep("!", n) + "A)" }},
		// One counter for all productions: half the levels are path
		// parentheses, the rest expression parentheses inside them.
		{"mixed", "MATCH ", func(n int) string {
			k := n / 2
			return rep("(", k) + "(a WHERE " + rep("(", n-k) + "1=1" + rep(")", n-k) + ")" + rep(")", k)
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			if _, err := Parse(sh.prefix + sh.build(maxDepth)); err != nil {
				t.Fatalf("%d levels must parse: %v", maxDepth, err)
			}
			_, err := Parse(sh.prefix + sh.build(maxDepth+1))
			pe, ok := err.(*Error)
			if !ok {
				t.Fatalf("%d levels: want *Error, got %v", maxDepth+1, err)
			}
			if !strings.Contains(pe.Msg, "nested more than") {
				t.Errorf("want the nesting diagnostic, got %v", err)
			}
			// The error points into the nest, past the last admitted opener.
			if pe.Line != 1 || pe.Col <= len(sh.prefix)+maxDepth {
				t.Errorf("error position %d:%d is not inside the over-deep nest", pe.Line, pe.Col)
			}
		})
	}
	// The shape that used to end the process: 400,000 parentheses.
	if _, err := Parse("MATCH (a) WHERE " + rep("(", 400_000) + "1=1" + rep(")", 400_000)); err == nil {
		t.Fatal("400,000 nested parentheses must be rejected")
	}
	if _, err := ParseExpr(rep("(", maxDepth+1) + "1" + rep(")", maxDepth+1)); err == nil {
		t.Fatal("ParseExpr must enforce the same bound")
	}
}

// FuzzParsePrintParse checks the printer against the parser on arbitrary
// input: whatever parses must print to text that parses again and prints
// identically. Seeds are the round-trip list and every conformance query.
func FuzzParsePrintParse(f *testing.F) {
	for _, src := range roundtripQueries {
		f.Add(src)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no conformance cases to seed from (%v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(raw), "\nquery:\n")
		if !ok {
			f.Fatalf("%s: no query section", path)
		}
		query, _, _ := strings.Cut(rest, "\n-- result --")
		f.Add(strings.TrimSpace(query))
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, err := Parse(src)
		if err != nil {
			return
		}
		printed := first.String()
		second, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (printed %q) failed: %v", src, printed, err)
		}
		if again := second.String(); again != printed {
			t.Fatalf("print not a fixpoint:\n  src    %q\n  first  %q\n  second %q", src, printed, again)
		}
	})
}
