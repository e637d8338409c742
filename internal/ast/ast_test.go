package ast

import (
	"testing"
	"testing/quick"

	"gpml/internal/value"
)

func TestLabelMatching(t *testing.T) {
	labels := []string{"Account", "City"}
	cases := []struct {
		expr LabelExpr
		want bool
	}{
		{&LabelName{Name: "Account"}, true},
		{&LabelName{Name: "Phone"}, false},
		{&LabelWildcard{}, true},
		{&LabelNot{X: &LabelWildcard{}}, false},
		{&LabelAnd{L: &LabelName{Name: "Account"}, R: &LabelName{Name: "City"}}, true},
		{&LabelAnd{L: &LabelName{Name: "Account"}, R: &LabelName{Name: "Phone"}}, false},
		{&LabelOr{L: &LabelName{Name: "Phone"}, R: &LabelName{Name: "City"}}, true},
		{&LabelNot{X: &LabelName{Name: "Phone"}}, true},
	}
	for _, c := range cases {
		if got := c.expr.Matches(labels); got != c.want {
			t.Errorf("%s over %v = %v, want %v", c.expr, labels, got, c.want)
		}
	}
	// The paper's (:!%) matches only unlabelled elements.
	noLabels := &LabelNot{X: &LabelWildcard{}}
	if !noLabels.Matches(nil) || noLabels.Matches([]string{"X"}) {
		t.Errorf("!%% semantics wrong")
	}
}

// De Morgan for label expressions (property).
func TestLabelDeMorganProperty(t *testing.T) {
	names := []string{"A", "B", "C"}
	f := func(aIdx, bIdx uint8, hasA, hasB, hasC bool) bool {
		a := &LabelName{Name: names[aIdx%3]}
		b := &LabelName{Name: names[bIdx%3]}
		var labels []string
		if hasA {
			labels = append(labels, "A")
		}
		if hasB {
			labels = append(labels, "B")
		}
		if hasC {
			labels = append(labels, "C")
		}
		notAnd := &LabelNot{X: &LabelAnd{L: a, R: b}}
		orNots := &LabelOr{L: &LabelNot{X: a}, R: &LabelNot{X: b}}
		return notAnd.Matches(labels) == orNots.Matches(labels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelPrinterParenthesization(t *testing.T) {
	e := &LabelAnd{
		L: &LabelOr{L: &LabelName{Name: "A"}, R: &LabelName{Name: "B"}},
		R: &LabelName{Name: "C"},
	}
	if got := e.String(); got != "(A|B)&C" {
		t.Errorf("printed: %q", got)
	}
	e2 := &LabelNot{X: &LabelOr{L: &LabelName{Name: "A"}, R: &LabelName{Name: "B"}}}
	if got := e2.String(); got != "!(A|B)" {
		t.Errorf("printed: %q", got)
	}
}

func TestLabelNames(t *testing.T) {
	e := &LabelOr{
		L: &LabelAnd{L: &LabelName{Name: "B"}, R: &LabelName{Name: "A"}},
		R: &LabelNot{X: &LabelName{Name: "A"}},
	}
	got := LabelNames(e)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("LabelNames: %v", got)
	}
	if names := LabelNames(nil); len(names) != 0 {
		t.Errorf("nil expression has no names: %v", names)
	}
}

func TestOrientationTables(t *testing.T) {
	// Fig 5 semantics: which physical traversals each orientation admits.
	type row struct{ left, undir, right bool }
	want := map[Orientation]row{
		Left:           {true, false, false},
		UndirectedEdge: {false, true, false},
		Right:          {false, false, true},
		LeftOrUndir:    {true, true, false},
		UndirOrRight:   {false, true, true},
		LeftOrRight:    {true, false, true},
		AnyOrientation: {true, true, true},
	}
	for o, w := range want {
		if o.AllowsLeft() != w.left || o.AllowsUndirected() != w.undir || o.AllowsRight() != w.right {
			t.Errorf("%v: allows(left=%v,undir=%v,right=%v), want %+v",
				o, o.AllowsLeft(), o.AllowsUndirected(), o.AllowsRight(), w)
		}
		// The mirror admits the same edges traversed from the other end.
		m := o.Mirror()
		if m.AllowsLeft() != w.right || m.AllowsUndirected() != w.undir || m.AllowsRight() != w.left || m.Mirror() != o {
			t.Errorf("%v: mirror %v does not swap left and right", o, m)
		}
	}
}

func TestPatternPrinting(t *testing.T) {
	stmt := &MatchStmt{
		Patterns: []*PathPattern{{
			Selector:   Selector{Kind: AllShortest},
			Restrictor: Trail,
			PathVar:    "p",
			Expr: &Concat{Elems: []PathExpr{
				&NodePattern{Var: "a", Label: &LabelName{Name: "Account"}},
				&Quantified{
					Inner: &Paren{Square: true, Expr: &Concat{Elems: []PathExpr{
						&NodePattern{Var: AnonNodeVar(1)},
						&EdgePattern{Var: "t", Label: &LabelName{Name: "Transfer"}, Orientation: Right},
						&NodePattern{Var: AnonNodeVar(2)},
					}}},
					Min: 1, Max: -1,
				},
				&NodePattern{Var: "b"},
			}},
		}},
		Where: &Binary{Op: OpGt, L: &Aggregate{Kind: value.AggSum, Arg: &PropAccess{Var: "t", Prop: "amount"}}, R: &Literal{Val: value.Int(10)}},
	}
	want := "MATCH ALL SHORTEST TRAIL p = (a:Account)[()-[t:Transfer]->()]+(b) WHERE SUM(t.amount) > 10"
	if got := stmt.String(); got != want {
		t.Errorf("printed:\n got  %s\n want %s", got, want)
	}
}

func TestQuantifierPrinting(t *testing.T) {
	inner := &Paren{Expr: &EdgePattern{Var: "e", Orientation: Right}, Square: true}
	cases := []struct {
		q    *Quantified
		want string
	}{
		{&Quantified{Inner: inner, Min: 0, Max: -1}, "[-[e]->]*"},
		{&Quantified{Inner: inner, Min: 1, Max: -1}, "[-[e]->]+"},
		{&Quantified{Inner: inner, Min: 2, Max: 5}, "[-[e]->]{2,5}"},
		{&Quantified{Inner: inner, Min: 3, Max: -1}, "[-[e]->]{3,}"},
		{&Quantified{Inner: inner, Min: 0, Max: 1, Question: true}, "[-[e]->]?"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("quantifier printed %q, want %q", got, c.want)
		}
	}
	if !(&Quantified{Min: 0, Max: -1}).Unbounded() || (&Quantified{Min: 0, Max: 3}).Unbounded() {
		t.Errorf("Unbounded wrong")
	}
}

func TestEdgePatternPrinting(t *testing.T) {
	cases := []struct {
		e    *EdgePattern
		want string
	}{
		{&EdgePattern{Orientation: Right}, "->"},
		{&EdgePattern{Orientation: Left}, "<-"},
		{&EdgePattern{Orientation: AnyOrientation}, "-"},
		{&EdgePattern{Orientation: LeftOrRight}, "<->"},
		{&EdgePattern{Orientation: UndirOrRight}, "~>"},
		{&EdgePattern{Orientation: LeftOrUndir}, "<~"},
		{&EdgePattern{Orientation: UndirectedEdge}, "~"},
		{&EdgePattern{Var: "e", Orientation: Right}, "-[e]->"},
		{&EdgePattern{Var: "e", Label: &LabelName{Name: "T"}, Orientation: UndirectedEdge}, "~[e:T]~"},
		{&EdgePattern{Label: &LabelName{Name: "T"}, Orientation: LeftOrRight}, "<-[:T]->"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("edge printed %q, want %q", got, c.want)
		}
	}
}

func TestAnonVarHelpers(t *testing.T) {
	if !IsAnonVar(AnonNodeVar(1)) || !IsAnonVar(AnonEdgeVar(2)) || IsAnonVar("x") {
		t.Errorf("IsAnonVar wrong")
	}
	if ReducedVar(AnonNodeVar(9)) != "□" || ReducedVar(AnonEdgeVar(9)) != "−" || ReducedVar("v") != "v" {
		t.Errorf("ReducedVar wrong")
	}
}

func TestExprVars(t *testing.T) {
	e := &Binary{
		Op: OpAnd,
		L:  &Binary{Op: OpGt, L: &PropAccess{Var: "x", Prop: "a"}, R: &Literal{Val: value.Int(1)}},
		R:  &Binary{Op: OpEq, L: &Aggregate{Kind: value.AggCount, Arg: &VarRef{Name: "g"}}, R: &Literal{Val: value.Int(2)}},
	}
	vars := ExprVars(e)
	if inAgg, ok := vars["x"]; !ok || inAgg {
		t.Errorf("x: %v %v", inAgg, ok)
	}
	if inAgg, ok := vars["g"]; !ok || !inAgg {
		t.Errorf("g must be marked as aggregated: %v %v", inAgg, ok)
	}
}

func TestWalkers(t *testing.T) {
	expr := &Concat{Elems: []PathExpr{
		&NodePattern{Var: "a"},
		&Union{
			Branches: []PathExpr{&NodePattern{Var: "b"}, &NodePattern{Var: "c"}},
			Ops:      []UnionOp{SetUnion},
		},
		&Quantified{Inner: &Paren{Expr: &EdgePattern{Var: "e", Orientation: Right}}, Min: 1, Max: 2},
	}}
	seen := 0
	WalkPath(expr, func(PathExpr) bool { seen++; return true })
	if seen != 8 { // concat, node a, union, node b, node c, quant, paren, edge
		t.Errorf("WalkPath visited %d nodes, want 8", seen)
	}
	// Pruned walk.
	seen = 0
	WalkPath(expr, func(e PathExpr) bool {
		seen++
		_, isUnion := e.(*Union)
		return !isUnion
	})
	if seen != 6 {
		t.Errorf("pruned walk visited %d, want 6", seen)
	}
}

func TestSelectorRestrictorStrings(t *testing.T) {
	if (Selector{Kind: ShortestKGroup, K: 4}).String() != "SHORTEST 4 GROUP" {
		t.Errorf("selector string wrong")
	}
	if (Selector{}).String() != "" || NoRestrictor.String() != "" {
		t.Errorf("empty selectors/restrictors print empty")
	}
	for _, o := range []Orientation{Left, UndirectedEdge, Right, LeftOrUndir, UndirOrRight, LeftOrRight, AnyOrientation} {
		if o.String() == "" {
			t.Errorf("orientation %d lacks a name", o)
		}
	}
}
