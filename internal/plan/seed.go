package plan

import (
	"sort"
	"strings"

	"gpml/internal/ast"
)

// End-position analysis: what every match's first node (the seed the
// evaluator starts at) and last node provably satisfy. The evaluator seeds
// from the store's cheapest label index instead of scanning all nodes, the
// join planner seeds a bind join through a bound head or tail variable,
// and the cost model prices the labels and equality predicates found
// there. Every result is sound but not complete: an empty one means
// nothing could be proven.

// endConstraint walks e from its first element (fromTail: its last) and
// collects fact(n) over the node patterns that provably bind that end
// position, plus whether the walk consumed an edge (after which later
// elements no longer bind it). Consecutive node patterns before the first
// edge all bind the same position, so their facts accumulate; a union
// keeps what every branch proves; a quantifier that may be skipped proves
// nothing and counts as moved, so later elements are not misattributed to
// the end position.
func endConstraint(e ast.PathExpr, fromTail bool, fact func(*ast.NodePattern) map[string]struct{}) (map[string]struct{}, bool) {
	switch x := e.(type) {
	case *ast.Concat:
		acc := map[string]struct{}{}
		for k := range x.Elems {
			el := x.Elems[k]
			if fromTail {
				el = x.Elems[len(x.Elems)-1-k]
			}
			facts, moved := endConstraint(el, fromTail, fact)
			for f := range facts {
				acc[f] = struct{}{}
			}
			if moved {
				return acc, true
			}
		}
		return acc, false
	case *ast.NodePattern:
		return fact(x), false
	case *ast.Paren:
		return endConstraint(x.Expr, fromTail, fact)
	case *ast.Quantified:
		if x.Question || x.Min == 0 {
			return nil, true
		}
		return endConstraint(x.Inner, fromTail, fact)
	case *ast.Union:
		if len(x.Branches) == 0 {
			return nil, true
		}
		acc, moved := endConstraint(x.Branches[0], fromTail, fact)
		for _, br := range x.Branches[1:] {
			facts, m := endConstraint(br, fromTail, fact)
			for f := range acc {
				if _, ok := facts[f]; !ok {
					delete(acc, f)
				}
			}
			moved = moved || m
		}
		return acc, moved
	default: // an edge pattern
		return nil, true
	}
}

// endFacts returns what endConstraint proves for one end, sorted (nil when
// nothing).
func endFacts(e ast.PathExpr, fromTail bool, fact func(*ast.NodePattern) map[string]struct{}) []string {
	set, _ := endConstraint(e, fromTail, fact)
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// seedLabels returns the labels every match's first node carries.
func seedLabels(e ast.PathExpr) []string { return endFacts(e, false, nodeLabels) }

// tailLabels returns the labels every match's last node carries: the
// automaton's target set and the cost model's endpoint selectivity.
func tailLabels(e ast.PathExpr) []string { return endFacts(e, true, nodeLabels) }

// nodeLabels is the label fact of a node pattern.
func nodeLabels(n *ast.NodePattern) map[string]struct{} { return impliedLabels(n.Label) }

// nodeVar is the variable fact of a node pattern: its named variable.
func nodeVar(n *ast.NodePattern) map[string]struct{} {
	if ast.IsAnonVar(n.Var) {
		return nil
	}
	return map[string]struct{}{n.Var: {}}
}

// EqConjunct is one top-level conjunct x.p = operand of a node pattern's
// WHERE (either side order), for the node's own variable x, whose operand
// is a parameter or a literal: evaluable before any element is bound.
type EqConjunct struct {
	Prop    string
	Operand ast.Expr // *ast.Param or *ast.Literal
}

// endEq returns the equality conjuncts every match's first (fromTail:
// last) node satisfies, sorted by property and operand. A fact is the
// property and the operand's text, so a union keeps a conjunct only when
// every branch states it with the same parameter or literal.
func endEq(e ast.PathExpr, fromTail bool) []EqConjunct {
	ops := map[string]ast.Expr{}
	keys := endFacts(e, fromTail, func(n *ast.NodePattern) map[string]struct{} { return eqFacts(n, ops) })
	out := make([]EqConjunct, len(keys))
	for i, k := range keys {
		prop, _, _ := strings.Cut(k, "\x00")
		out[i] = EqConjunct{Prop: prop, Operand: ops[k]}
	}
	return out
}

// eqFacts is the equality fact of a node pattern: one key per top-level
// x.p = operand conjunct (property, NUL, operand text), whose operand it
// records in ops.
func eqFacts(n *ast.NodePattern, ops map[string]ast.Expr) map[string]struct{} {
	out := map[string]struct{}{}
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		b, ok := e.(*ast.Binary)
		if !ok {
			return
		}
		switch b.Op {
		case ast.OpAnd:
			walk(b.L)
			walk(b.R)
		case ast.OpEq:
			pa, ok := b.L.(*ast.PropAccess)
			other := b.R
			if !ok {
				pa, ok = b.R.(*ast.PropAccess)
				other = b.L
			}
			if !ok || pa.Var != n.Var {
				return
			}
			var text string
			switch x := other.(type) {
			case *ast.Param:
				text = "$" + x.Name
			case *ast.Literal:
				text = x.Val.Key()
			default:
				return
			}
			key := pa.Prop + "\x00" + text
			out[key] = struct{}{}
			ops[key] = other
		}
	}
	walk(n.Where)
	return out
}

// impliedLabels returns the labels every element matching the expression
// must carry: a plain name implies itself, a conjunction implies both
// sides' labels, a disjunction implies the labels common to all
// alternatives, and negation/wildcard imply nothing.
func impliedLabels(e ast.LabelExpr) map[string]struct{} {
	switch x := e.(type) {
	case *ast.LabelName:
		return map[string]struct{}{x.Name: {}}
	case *ast.LabelAnd:
		out := map[string]struct{}{}
		for _, side := range []ast.LabelExpr{x.L, x.R} {
			for l := range impliedLabels(side) {
				out[l] = struct{}{}
			}
		}
		return out
	case *ast.LabelOr:
		out := impliedLabels(x.L)
		right := impliedLabels(x.R)
		for l := range out {
			if _, ok := right[l]; !ok {
				delete(out, l)
			}
		}
		return out
	default: // nil, wildcard, negation
		return nil
	}
}
