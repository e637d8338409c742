// Package eval executes compiled GPML path patterns against property
// graphs, implementing the paper's execution model (§6): lazy expansion of
// rigid patterns by depth-first search with restrictor pruning, a
// level-synchronous product search for selector-bounded unbounded
// quantifiers, reduction and deduplication of path bindings, selector
// application, cross-pattern joins and postfiltering.
package eval

import (
	"fmt"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Resolver supplies variable bindings to the expression evaluator. Unbound
// singletons resolve to NULL (conditional singletons that did not bind,
// §4.6); group lookups return the elements accumulated so far. Element and
// property lookups go through the query's pinned graph.Stepper view, so
// expressions evaluate identically over any backend, and element identity
// is the (kind, index) pair of a binding.Ref.
type Resolver interface {
	Graph() graph.Stepper
	// Elem resolves a singleton (or iteration-local) element binding.
	Elem(name string) (binding.Ref, bool)
	// Group resolves the accumulated group list for a variable.
	Group(name string) ([]binding.Ref, bool)
}

// Params are a query's bound parameter values ($name placeholders), late-
// bound at execution time so one compiled plan serves many argument sets.
// A nil map is a valid empty binding.
type Params map[string]value.Value

// paramScope is optionally implemented by resolvers evaluating under a
// bound parameter set. Resolvers without it (or without the name) make a
// $name leaf an unbound-parameter error — StreamPlan validates bindings
// up front (plan.CheckBind), so only the single-pattern entry points
// (Enumerate, MatchPattern) can reach it.
type paramScope interface {
	ParamValue(name string) (value.Value, bool)
}

// EvalPred evaluates an expression as a predicate under Kleene 3VL. A
// filter passes only when the result is TRUE.
func EvalPred(e ast.Expr, r Resolver) (value.Tri, error) {
	switch x := e.(type) {
	case *ast.Binary:
		switch x.Op {
		case ast.OpAnd:
			l, err := EvalPred(x.L, r)
			if err != nil {
				return value.Unknown, err
			}
			if l == value.False {
				return value.False, nil
			}
			rr, err := EvalPred(x.R, r)
			if err != nil {
				return value.Unknown, err
			}
			return l.And(rr), nil
		case ast.OpOr:
			l, err := EvalPred(x.L, r)
			if err != nil {
				return value.Unknown, err
			}
			if l == value.True {
				return value.True, nil
			}
			rr, err := EvalPred(x.R, r)
			if err != nil {
				return value.Unknown, err
			}
			return l.Or(rr), nil
		case ast.OpXor:
			l, err := EvalPred(x.L, r)
			if err != nil {
				return value.Unknown, err
			}
			rr, err := EvalPred(x.R, r)
			if err != nil {
				return value.Unknown, err
			}
			return l.Xor(rr), nil
		case ast.OpEq, ast.OpNe:
			// Element-reference equality (GQL mode; validated statically).
			if lv, lok := x.L.(*ast.VarRef); lok {
				if rv, rok := x.R.(*ast.VarRef); rok {
					le, lb := r.Elem(lv.Name)
					re, rb := r.Elem(rv.Name)
					if !lb || !rb {
						return value.Unknown, nil
					}
					same := le == re
					if x.Op == ast.OpNe {
						return value.TriOf(!same), nil
					}
					return value.TriOf(same), nil
				}
			}
			return evalCompare(x, r)
		case ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			return evalCompare(x, r)
		default:
			return truthiness(EvalValue(e, r))
		}
	case *ast.Unary:
		if x.Op == "NOT" {
			t, err := EvalPred(x.X, r)
			if err != nil {
				return value.Unknown, err
			}
			return t.Not(), nil
		}
		return truthiness(EvalValue(e, r))
	case *ast.IsNull:
		v, err := EvalValue(x.X, r)
		if err != nil {
			return value.Unknown, err
		}
		res := value.TriOf(v.IsNull())
		if x.Negate {
			res = res.Not()
		}
		return res, nil
	case *ast.IsDirected:
		ref, ok := r.Elem(x.Var)
		if !ok {
			return value.Unknown, nil
		}
		edge := edgeOf(r.Graph(), ref)
		if edge == nil {
			return value.Unknown, fmt.Errorf("eval: %q is not bound to an edge", x.Var)
		}
		res := value.TriOf(edge.Direction == graph.Directed)
		if x.Negate {
			res = res.Not()
		}
		return res, nil
	case *ast.EndpointOf:
		nref, nok := r.Elem(x.NodeVar)
		eref, eok := r.Elem(x.EdgeVar)
		if !nok || !eok {
			return value.Unknown, nil
		}
		g := r.Graph()
		edge := edgeOf(g, eref)
		if edge == nil {
			return value.Unknown, fmt.Errorf("eval: %q is not bound to an edge", x.EdgeVar)
		}
		var res value.Tri
		if edge.Direction != graph.Directed {
			// Undirected edges have no source/destination roles.
			res = value.False
		} else {
			src, tgt := g.EdgeEnds(int(eref.Idx))
			end := src
			if x.Dest {
				end = tgt
			}
			res = value.TriOf(end == int(nref.Idx))
		}
		if x.Negate {
			res = res.Not()
		}
		return res, nil
	case *ast.Same:
		var first binding.Ref
		for i, v := range x.Vars {
			ref, ok := r.Elem(v)
			if !ok {
				return value.Unknown, fmt.Errorf("eval: SAME argument %q is unbound", v)
			}
			if i == 0 {
				first = ref
			} else if ref != first {
				return value.False, nil
			}
		}
		return value.True, nil
	case *ast.AllDifferent:
		seen := make(map[binding.Ref]struct{}, len(x.Vars))
		for _, v := range x.Vars {
			ref, ok := r.Elem(v)
			if !ok {
				return value.Unknown, fmt.Errorf("eval: ALL_DIFFERENT argument %q is unbound", v)
			}
			if _, dup := seen[ref]; dup {
				return value.False, nil
			}
			seen[ref] = struct{}{}
		}
		return value.True, nil
	case *ast.Literal:
		return truthy(x.Val), nil
	default:
		return truthiness(EvalValue(e, r))
	}
}

func truthiness(v value.Value, err error) (value.Tri, error) {
	if err != nil {
		return value.Unknown, err
	}
	return truthy(v), nil
}

// truthy converts a value used in predicate position: booleans map to
// TRUE/FALSE, NULL and non-booleans to UNKNOWN.
func truthy(v value.Value) value.Tri {
	if b, ok := v.AsBool(); ok {
		return value.TriOf(b)
	}
	return value.Unknown
}

func evalCompare(x *ast.Binary, r Resolver) (value.Tri, error) {
	l, err := EvalValue(x.L, r)
	if err != nil {
		return value.Unknown, err
	}
	rr, err := EvalValue(x.R, r)
	if err != nil {
		return value.Unknown, err
	}
	switch x.Op {
	case ast.OpEq:
		return value.Eq(l, rr), nil
	case ast.OpNe:
		return value.Ne(l, rr), nil
	case ast.OpLt:
		return value.Lt(l, rr), nil
	case ast.OpLe:
		return value.Le(l, rr), nil
	case ast.OpGt:
		return value.Gt(l, rr), nil
	case ast.OpGe:
		return value.Ge(l, rr), nil
	default:
		return value.Unknown, fmt.Errorf("eval: %s is not a comparison", x.Op)
	}
}

// EvalValue evaluates an expression to a property value. Unbound variables
// and undefined properties yield NULL; arithmetic over non-numeric operands
// yields NULL (the row simply fails the filter) rather than aborting the
// query.
func EvalValue(e ast.Expr, r Resolver) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil
	case *ast.Param:
		if ps, ok := r.(paramScope); ok {
			if v, bound := ps.ParamValue(x.Name); bound {
				return v, nil
			}
		}
		return value.Null, &plan.BindError{
			Name: x.Name,
			Msg:  fmt.Sprintf("parameter $%s is not bound", x.Name),
			Line: x.Line,
			Col:  x.Col,
		}
	case *ast.PropAccess:
		ref, ok := r.Elem(x.Var)
		if !ok {
			return value.Null, nil
		}
		return propOf(r.Graph(), ref, x.Prop), nil
	case *ast.VarRef:
		// An element reference in value position only reaches evaluation in
		// IS NULL checks; report boundness via NULL/non-NULL.
		if _, ok := r.Elem(x.Name); ok {
			return value.Bool(true), nil
		}
		return value.Null, nil
	case *ast.Unary:
		if x.Op == "NOT" {
			t, err := EvalPred(x, r) // the whole negation, not just the operand
			if err != nil {
				return value.Null, err
			}
			return triValue(t), nil
		}
		v, err := EvalValue(x.X, r)
		if err != nil {
			return value.Null, err
		}
		neg, err := value.Neg(v)
		if err != nil {
			return value.Null, nil // non-numeric: NULL, filter fails
		}
		return neg, nil
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv, ast.OpMod:
			l, err := EvalValue(x.L, r)
			if err != nil {
				return value.Null, err
			}
			rr, err := EvalValue(x.R, r)
			if err != nil {
				return value.Null, err
			}
			var out value.Value
			switch x.Op {
			case ast.OpAdd:
				out, err = value.Add(l, rr)
			case ast.OpSub:
				out, err = value.Sub(l, rr)
			case ast.OpMul:
				out, err = value.Mul(l, rr)
			case ast.OpDiv:
				out, err = value.Div(l, rr)
			default:
				out, err = value.Mod(l, rr)
			}
			if err != nil {
				return value.Null, nil // type mismatch: NULL
			}
			return out, nil
		default:
			t, err := EvalPred(x, r)
			if err != nil {
				return value.Null, err
			}
			return triValue(t), nil
		}
	case *ast.Aggregate:
		return evalAggregate(x, r)
	case *ast.IsNull, *ast.IsDirected, *ast.EndpointOf, *ast.Same, *ast.AllDifferent:
		t, err := EvalPred(e, r)
		if err != nil {
			return value.Null, err
		}
		return triValue(t), nil
	default:
		return value.Null, fmt.Errorf("eval: cannot evaluate %T as a value", e)
	}
}

func triValue(t value.Tri) value.Value {
	switch t {
	case value.True:
		return value.Bool(true)
	case value.False:
		return value.Bool(false)
	default:
		return value.Null
	}
}

// evalAggregate computes COUNT/SUM/AVG/MIN/MAX over a group variable's
// accumulated elements (§4.4).
func evalAggregate(agg *ast.Aggregate, r Resolver) (value.Value, error) {
	var name, prop string
	switch arg := agg.Arg.(type) {
	case *ast.VarRef:
		name = arg.Name
	case *ast.PropAccess:
		name, prop = arg.Var, arg.Prop
	default:
		return value.Null, fmt.Errorf("eval: bad aggregate argument %T", agg.Arg)
	}
	refs, _ := r.Group(name)
	if prop == "" || prop == "*" {
		if agg.Kind == value.AggListagg {
			// LISTAGG(e, sep): join the element identifiers (§3's
			// LISTAGG(e.ID, ', ') reconstructing the matched path).
			ids := make([]value.Value, 0, len(refs))
			for _, ref := range refs {
				ids = append(ids, value.Str(binding.ElemID(r.Graph(), ref.Kind, ref.Idx)))
			}
			if agg.Distinct {
				ids = value.Distinct(ids)
			}
			return value.ListAgg(ids, agg.Sep), nil
		}
		// COUNT(e) / COUNT(e.*): count elements, distinct by (kind,
		// index).
		if agg.Distinct {
			seen := map[binding.Ref]struct{}{}
			for _, ref := range refs {
				seen[ref] = struct{}{}
			}
			return value.Int(int64(len(seen))), nil
		}
		return value.Int(int64(len(refs))), nil
	}
	vals := make([]value.Value, 0, len(refs))
	g := r.Graph()
	for _, ref := range refs {
		vals = append(vals, propOf(g, ref, prop))
	}
	if agg.Distinct {
		if agg.Kind == value.AggCount {
			return value.CountDistinct(vals), nil
		}
		vals = value.Distinct(vals)
	}
	if agg.Kind == value.AggListagg {
		return value.ListAgg(vals, agg.Sep), nil
	}
	return value.Aggregate(agg.Kind, vals)
}

// propOf reads a property from a bound element — a slice index into the
// view's dense arena, not an id map lookup.
func propOf(g graph.Stepper, ref binding.Ref, prop string) value.Value {
	switch ref.Kind {
	case binding.NodeElem:
		if n := g.NodeByIndex(int(ref.Idx)); n != nil {
			return n.Prop(prop)
		}
	case binding.EdgeElem:
		if e := g.EdgeByIndex(int(ref.Idx)); e != nil {
			return e.Prop(prop)
		}
	}
	return value.Null
}

// edgeOf resolves an edge ref, or nil when the ref is not an edge.
func edgeOf(g graph.Stepper, ref binding.Ref) *graph.Edge {
	if ref.Kind != binding.EdgeElem {
		return nil
	}
	return g.EdgeByIndex(int(ref.Idx))
}
