package plan

import (
	"slices"
	"strings"
	"testing"

	"gpml/internal/normalize"
	"gpml/internal/parser"
)

func analyze(t *testing.T, src string, opts Options) (*Plan, error) {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		t.Fatalf("normalize %q: %v", src, err)
	}
	return Analyze(norm, opts)
}

func mustAnalyze(t *testing.T, src string) *Plan {
	t.Helper()
	p, err := analyze(t, src, Options{})
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return p
}

func wantErr(t *testing.T, src, sub string) {
	t.Helper()
	if _, err := analyze(t, src, Options{}); err == nil {
		t.Errorf("analyze %q: expected error containing %q", src, sub)
	} else if !strings.Contains(err.Error(), sub) {
		t.Errorf("analyze %q: error %q does not contain %q", src, err, sub)
	}
}

func TestVariableClassification(t *testing.T) {
	p := mustAnalyze(t, `MATCH (a:Account) [()-[t:Transfer]->()]{2,5} (b:Account)`)
	if v := p.Var("a"); v == nil || v.Kind != VarNode || v.Group || v.Conditional {
		t.Errorf("a: %+v", p.Var("a"))
	}
	if v := p.Var("t"); v == nil || v.Kind != VarEdge || !v.Group {
		t.Errorf("t must be a group variable: %+v", p.Var("t"))
	}
	p = mustAnalyze(t, `MATCH (x) [-[e]->(y)]?`)
	if v := p.Var("y"); v == nil || v.Group || !v.Conditional {
		t.Errorf("y under ? must be a conditional singleton: %+v", p.Var("y"))
	}
	p = mustAnalyze(t, `MATCH (x) [-[e]->(y)]{0,1}`)
	if v := p.Var("y"); v == nil || !v.Group {
		t.Errorf("y under {0,1} must be a group variable (§4.6): %+v", p.Var("y"))
	}
	p = mustAnalyze(t, `MATCH [(x)-[e]->(y)] | [(x)-[f]->(z)]`)
	if v := p.Var("x"); v.Conditional {
		t.Errorf("x declared in all branches is unconditional")
	}
	if v := p.Var("y"); !v.Conditional {
		t.Errorf("y declared in one branch is conditional")
	}
	if v := p.Var("z"); !v.Conditional {
		t.Errorf("z declared in one branch is conditional")
	}
}

func TestKindConflicts(t *testing.T) {
	wantErr(t, `MATCH (x)-[x]->(y)`, "node variable")
	wantErr(t, `MATCH p = (p)->(y)`, "path")
	wantErr(t, `MATCH p = (x)->(y), p = (a)->(b)`, "path")
}

func TestGroupSingletonConflicts(t *testing.T) {
	wantErr(t, `MATCH (a) [(a)-[e]->(b)]{1,2}`, "quantifier scopes")
	wantErr(t, `MATCH [(x)-[e]->()]{1,2} [(x)-[f]->()]{1,2}`, "quantifier scopes")
	wantErr(t, `MATCH [(x)-[e]->()]{1,2}, (x)-[f]->(y)`, "group")
}

// §5: every unbounded quantifier needs a restrictor or selector in scope.
func TestTerminationRule(t *testing.T) {
	wantErr(t, `MATCH (a)-[e]->*(b)`, "restrictor or selector")
	wantErr(t, `MATCH (a)-[e]->{3,}(b)`, "restrictor or selector")
	mustAnalyze(t, `MATCH TRAIL (a)-[e]->*(b)`)
	mustAnalyze(t, `MATCH ACYCLIC (a)-[e]->*(b)`)
	mustAnalyze(t, `MATCH SIMPLE (a)-[e]->*(b)`)
	mustAnalyze(t, `MATCH ANY SHORTEST (a)-[e]->*(b)`)
	mustAnalyze(t, `MATCH (a) [TRAIL -[e]->*] (b)`)
	mustAnalyze(t, `MATCH (a)-[e]->{1,5}(b)`) // bounded: fine
}

// Engine modes: restrictor-bounded → DFS; selector-only → BFS; the
// unsupported mix is rejected.
func TestModeSelection(t *testing.T) {
	p := mustAnalyze(t, `MATCH TRAIL (a)-[e]->*(b)`)
	if p.Paths[0].Mode != ModeDFS || !p.Paths[0].HasUnbounded {
		t.Errorf("TRAIL: mode %v", p.Paths[0].Mode)
	}
	p = mustAnalyze(t, `MATCH ANY SHORTEST (a)-[e]->*(b)`)
	if p.Paths[0].Mode != ModeBFS {
		t.Errorf("selector-only: mode %v", p.Paths[0].Mode)
	}
	p = mustAnalyze(t, `MATCH ALL SHORTEST TRAIL (a)-[e]->*(b)`)
	if p.Paths[0].Mode != ModeDFS {
		t.Errorf("restrictor+selector: DFS enumerates, selector picks; mode %v", p.Paths[0].Mode)
	}
	if _, err := analyze(t, `MATCH ANY SHORTEST [TRAIL (x)-[e]->+(y)] -[f]->* (b)`, Options{}); err == nil {
		t.Errorf("selector-bounded quantifier + restrictor in one pattern must be rejected")
	}
	p = mustAnalyze(t, `MATCH (a)-[e]->{2,4}(b)`)
	if p.Paths[0].Mode != ModeDFS || p.Paths[0].HasUnbounded {
		t.Errorf("bounded: mode %v", p.Paths[0].Mode)
	}
}

// §5.3: prefilters over effectively unbounded groups are rejected; the
// postfilter and restrictor-bounded forms are accepted.
func TestUnboundedAggregateRule(t *testing.T) {
	wantErr(t,
		`MATCH ALL SHORTEST [(x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1)>1]`,
		"effectively unbounded")
	mustAnalyze(t, `MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1`)
	mustAnalyze(t, `MATCH ALL SHORTEST [TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1]`)
	// Bounded quantifier: prefilter aggregation allowed.
	mustAnalyze(t, `MATCH [(x)-[e]->(y)]{1,4} (z) WHERE SUM(e.amount) > 10`)
	p := mustAnalyze(t, `MATCH ANY SHORTEST (a) [[(x)-[e]->(y)]{1,3} WHERE SUM(e.amount) > 10]* (b)`)
	prog := p.Paths[0].Prog
	if got := prog.PrefilterGroups["e"]; !slices.Equal(got, []int{0, 1}) {
		t.Errorf("e must be recorded as a prefilter group variable declared under quantifiers [0 1], got %v", got)
	}
	// The WHERE reads e per iteration of the outer quantifier, 0.
	if !slices.Equal(prog.GroupScopes, []bool{true, false}) {
		t.Errorf("group scopes: got %v, want [true false]", prog.GroupScopes)
	}
	// A read outside every quantifier has no scope.
	p = mustAnalyze(t, `MATCH [(a)[()-[e]->()]{1,3}(b) WHERE SUM(e.amount) > 10]`)
	if prog := p.Paths[0].Prog; prog.PrefilterGroups["e"] == nil || prog.GroupScopes != nil {
		t.Errorf("unscoped read: groups %v, scopes %v", prog.PrefilterGroups, prog.GroupScopes)
	}
}

// TestDupReason gives each reason a pattern may produce duplicates for,
// and patterns that cannot: no union, at most one quantifier (? counts),
// and that quantifier's body consumes an edge. Every pattern of the
// served workloads is duplicate-free.
func TestDupReason(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		// snb_stream_rows, snb_prepared_short and snb_traversal.
		{`MATCH (a:Person WHERE a.country=$country)-[:likes]->(m:Post)<-[:likes]-(b:Person)`, ""},
		{`MATCH (a:Person WHERE a.firstName=$name)-[k:knows]-{1,2}(b:Person) WHERE b.country<>$country`, ""},
		{`MATCH TRAIL (a:Person WHERE a.firstName=$name)-[k:knows]-{1,3}(b:Person WHERE b.country=$country)`, ""},
		{`MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person)-[:knows]-(c:Person)`, ""},
		{`MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)-[:hasCreator]->(c:Person)`, ""},
		{`MATCH (a:Person WHERE a.country=$country)-[l:likes]->(m:Post)`, ""},
		{`MATCH (a:Person WHERE a.firstName=$name)-[:knows]-(b:Person), (b)-[:knows]-(c:Person), (c)-[:knows]-(a)`, ""},
		{`MATCH (a:Person WHERE a.firstName=$name)-[:likes]->(m:Post)<-[:likes]-(b:Person WHERE b.country=$country), TRAIL (a)-[:knows]-{1,2}(b)`, ""},
		{`MATCH ANY SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-{1,4}(b:Person WHERE b.firstName=$dst)`, ""},
		{`MATCH ALL SHORTEST p = (a:Person WHERE a.firstName=$src)-[:knows]-+(b:Person WHERE b.firstName=$dst)`, ""},
		{`MATCH (x)`, ""},
		{`MATCH (a)-[e]->(b)<-[f]-(c)`, ""},
		{`MATCH (a)-[:knows]-{1,2}(b)`, ""},
		{`MATCH TRAIL (a)-[e]->+(b)`, ""},
		{`MATCH ALL SHORTEST (a)-[e]->*(b)`, ""},
		{`MATCH (a)-[e]->?(b)`, ""},
		{`MATCH (a) [(x)-[e]->(y)-[f]->(z)]{2,3} (b)`, ""},
		{`MATCH (c:City) | (c:Country)`, "set union"},
		{`MATCH (a) [-[e]->() |+| -[e]->()] (b)`, "multiset union"},
		{`MATCH (x)-[:Transfer]->{1,2}()-[:Transfer]->{1,2}(y)`, "several quantifiers"},
		{`MATCH (x)-[:Transfer]->?()-[:Transfer]->?(y)`, "several quantifiers"},
		{`MATCH (a) [[(x)-[e]->(y)]{1,2}]{1,2} (b)`, "several quantifiers"},
		{`MATCH (a) [()]{0,2} (b)`, "edgeless quantifier body"},
		{`MATCH (a) [(y)]? (b)`, "edgeless quantifier body"},
	} {
		p := mustAnalyze(t, tc.query)
		for _, pp := range p.Paths {
			if pp.DupReason != tc.want {
				t.Errorf("%s pattern %d: DupReason %q, want %q", tc.query, pp.Index, pp.DupReason, tc.want)
			}
		}
		pp := p.Paths[0]
		// The mirror a tail seed runs has the same structure.
		if tc.want == "" && pp.Mirrored().DupReason != "" {
			t.Errorf("%s: mirror DupReason %q", tc.query, pp.Mirrored().DupReason)
		}
		stages := ""
		for _, st := range pp.Stages() {
			stages += st.Name + " "
		}
		if wantDedup := tc.want != ""; strings.Contains(stages, "dedup("+tc.want+")") != wantDedup || strings.Contains(stages, "dedup") != wantDedup {
			t.Errorf("%s: stages %q", tc.query, stages)
		}
	}
}

// Group references crossing their quantifier must be aggregated.
func TestGroupReferenceRules(t *testing.T) {
	wantErr(t, `MATCH (a) [()-[t]->()]{1,3} (b) WHERE t.amount > 5`, "must be aggregated")
	mustAnalyze(t, `MATCH (a) [()-[t]->()]{1,3} (b) WHERE SUM(t.amount) > 5`)
	// Aggregate over a non-group reference is rejected.
	wantErr(t, `MATCH (a)-[t]->(b) WHERE SUM(t.amount) > 5`, "not a group reference")
	// In-iteration references are singleton references.
	mustAnalyze(t, `MATCH (a) [()-[t]->() WHERE t.amount > 5]{1,3} (b)`)
}

// §4.6 / §4.7 conditional rules.
func TestConditionalRules(t *testing.T) {
	wantErr(t, `MATCH [(x)-[e]->(y)] | [(x)-[f]->(z)], (y)-[g]->(w)`, "conditional")
	wantErr(t, `MATCH (x)[-[e]->(y)]?, (y)-[f]->(w)`, "conditional")
	wantErr(t, `MATCH (x)[-[e]->(y)]? WHERE SAME(x, y)`, "unconditional")
	// A group variable in SAME fails the crossing rule first (it would
	// need aggregation, which SAME arguments cannot be).
	wantErr(t, `MATCH (a) [()-[t]->()]{1,2} (b) WHERE SAME(t, t)`, "group")
	mustAnalyze(t, `MATCH [(x)-[e]->(y)] | [(x)-[f]->(z)] WHERE x.a = 1`)
	// Conditional singletons may be referenced in predicates (NULL when
	// unbound), just not equi-joined or listed in SAME/ALL_DIFFERENT.
	mustAnalyze(t, `MATCH (x)[-[e]->(y)]? WHERE y.flag = 'on' OR y.flag IS NULL`)
}

func TestExpressionChecks(t *testing.T) {
	wantErr(t, `MATCH (x)-[e]->(y) WHERE z.a = 1`, "undeclared")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE x`, "not a predicate")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE x + 1 = 2`, "arithmetic")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE x = 1`, "element reference")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE x < y`, "= and <>")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE x IS DIRECTED`, "edge variable")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE e IS SOURCE OF e`, "node variable")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE x IS SOURCE OF y`, "edge variable")
	wantErr(t, `MATCH p = (x)-[e]->(y) WHERE p.len = 2`, "path variable")
	wantErr(t, `MATCH (x)-[e]->(y) WHERE COUNT(e.*) > 0`, "not a group")
	mustAnalyze(t, `MATCH (x)-[e]->(y) WHERE x.a = 1 AND e IS DIRECTED`)
	mustAnalyze(t, `MATCH (x)-[e]->(y) WHERE x.a IS NULL`)
	mustAnalyze(t, `MATCH (x)-[e]->(y) WHERE x.flag`) // boolean property
}

// §4.7: element equality is a GQL capability; SQL/PGQ must use SAME.
func TestElementEqualityModes(t *testing.T) {
	const q = `MATCH (x)-[e]->(y), (z)-[f]->(y) WHERE x = z`
	if _, err := analyze(t, q, Options{}); err == nil {
		t.Errorf("PGQ mode must reject element equality")
	}
	if _, err := analyze(t, q, Options{AllowElementEquality: true}); err != nil {
		t.Errorf("GQL mode must accept element equality: %v", err)
	}
	// <> is likewise mode-gated; < is rejected in both.
	if _, err := analyze(t, `MATCH (x)-[e]->(y) WHERE x <> y`, Options{AllowElementEquality: true}); err != nil {
		t.Errorf("GQL <> on elements: %v", err)
	}
	if _, err := analyze(t, `MATCH (x)-[e]->(y) WHERE x < y`, Options{AllowElementEquality: true}); err == nil {
		t.Errorf("ordering on elements must be rejected even in GQL mode")
	}
}

// Prefilters may not reference variables of other path patterns.
func TestCrossPatternPrefilter(t *testing.T) {
	wantErr(t, `MATCH (x)-[e]->(y), (a WHERE a.owner = x.owner)-[f]->(b)`, "another path pattern")
	mustAnalyze(t, `MATCH (x)-[e]->(y), (a)-[f]->(b) WHERE a.owner = x.owner`)
}

func TestColumnsOrder(t *testing.T) {
	p := mustAnalyze(t, `MATCH q = (b)-[e]->(a), (a)-[f]->(c)`)
	got := strings.Join(p.Columns, ",")
	if got != "q,b,e,a,f,c" {
		t.Errorf("column order: %s", got)
	}
}

func TestProgShape(t *testing.T) {
	p := mustAnalyze(t, `MATCH TRAIL (a)-[e]->*(b)`)
	prog := p.Paths[0].Prog
	if prog.NumScopes != 1 {
		t.Errorf("path-level restrictor: want 1 scope, got %d", prog.NumScopes)
	}
	if prog.NumQuants != 1 {
		t.Errorf("want 1 quantifier, got %d", prog.NumQuants)
	}
	ops := map[OpCode]int{}
	for _, in := range prog.Instrs {
		ops[in.Op]++
	}
	for _, op := range []OpCode{OpNode, OpEdge, OpAccept, OpScopeStart, OpScopeEnd, OpLoopStart, OpLoopCheck, OpIterStart, OpIterEnd, OpLoopEnd} {
		if ops[op] == 0 {
			t.Errorf("program lacks %v instruction:\n%s", op, prog)
		}
	}
	if !strings.Contains(prog.String(), "accept") {
		t.Errorf("disassembly should mention accept")
	}
}

func TestTagInstructions(t *testing.T) {
	p := mustAnalyze(t, `MATCH (c:City) |+| (c:Country)`)
	tags := 0
	for _, in := range p.Paths[0].Prog.Instrs {
		if in.Op == OpTag {
			tags++
		}
	}
	if tags != 2 {
		t.Errorf("multiset alternation: want 2 tag instructions, got %d", tags)
	}
	p = mustAnalyze(t, `MATCH (c:City) | (c:Country)`)
	for _, in := range p.Paths[0].Prog.Instrs {
		if in.Op == OpTag {
			t.Errorf("set union must not emit tags")
		}
	}
}

func TestOpCodeStrings(t *testing.T) {
	for op := OpNode; op <= OpAccept; op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d lacks a name", op)
		}
	}
	for _, k := range []VarKind{VarNode, VarEdge, VarPath} {
		if k.String() == "" {
			t.Errorf("var kind %d lacks a name", k)
		}
	}
}

// LISTAGG follows the aggregate crossing rules: group references only.
func TestListaggStaticRules(t *testing.T) {
	mustAnalyze(t, `MATCH (a) [()-[t]->()]{1,3} (b) WHERE LISTAGG(t, ',') = 'x'`)
	mustAnalyze(t, `MATCH (a) [()-[t]->()]{1,3} (b) WHERE LISTAGG(t.date) = 'x'`)
	wantErr(t, `MATCH (a)-[t]->(b) WHERE LISTAGG(t, ',') = 'x'`, "not a group reference")
	// SUM over bare elements stays rejected while LISTAGG is allowed.
	wantErr(t, `MATCH (a) [()-[t]->()]{1,3} (b) WHERE SUM(t) > 1`, "property reference")
}
