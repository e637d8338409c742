package plan

import (
	"fmt"
	"slices"

	"gpml/internal/ast"
	"gpml/internal/value"
)

// exprClass classifies what an expression denotes.
type exprClass uint8

const (
	clsValue exprClass = iota
	clsElem            // an element reference (node or edge variable)
)

// checkExpr validates an expression occurring at the given site. asPred
// reports whether the expression is used as a predicate (WHERE clause).
func (a *analyzer) checkExpr(e ast.Expr, site exprSite, asPred bool) error {
	if asPred {
		return a.checkPred(e, site)
	}
	_, err := a.checkValue(e, site)
	return err
}

func (a *analyzer) checkPred(e ast.Expr, site exprSite) error {
	switch x := e.(type) {
	case *ast.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpXor:
			if err := a.checkPred(x.L, site); err != nil {
				return err
			}
			return a.checkPred(x.R, site)
		case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			lc, err := a.checkValue(x.L, site)
			if err != nil {
				return err
			}
			rc, err := a.checkValue(x.R, site)
			if err != nil {
				return err
			}
			if lc == clsElem || rc == clsElem {
				if lc != rc {
					return fmt.Errorf("plan: cannot compare an element reference with a value in %q", x)
				}
				if x.Op != ast.OpEq && x.Op != ast.OpNe {
					return fmt.Errorf("plan: element references only support = and <> comparisons, got %q", x)
				}
				if !a.opts.AllowElementEquality {
					return fmt.Errorf("plan: SQL/PGQ cannot test element references with %s; use SAME(...) or ALL_DIFFERENT(...) (paper §4.7)", x.Op)
				}
			}
			return nil
		default:
			// Arithmetic used as a predicate: allowed, truthiness decided
			// at runtime (non-boolean evaluates to UNKNOWN).
			_, err := a.checkValue(e, site)
			return err
		}
	case *ast.Unary:
		if x.Op == "NOT" {
			return a.checkPred(x.X, site)
		}
		_, err := a.checkValue(e, site)
		return err
	case *ast.IsNull:
		_, err := a.checkValue(x.X, site)
		return err
	case *ast.IsDirected:
		info, err := a.refCheck(x.Var, site, false)
		if err != nil {
			return err
		}
		if info.Kind != VarEdge {
			return fmt.Errorf("plan: IS DIRECTED applies to edge variables; %q is a %s variable", x.Var, info.Kind)
		}
		return nil
	case *ast.EndpointOf:
		ni, err := a.refCheck(x.NodeVar, site, false)
		if err != nil {
			return err
		}
		if ni.Kind != VarNode {
			return fmt.Errorf("plan: %q must be a node variable in IS SOURCE/DESTINATION OF", x.NodeVar)
		}
		ei, err := a.refCheck(x.EdgeVar, site, false)
		if err != nil {
			return err
		}
		if ei.Kind != VarEdge {
			return fmt.Errorf("plan: %q must be an edge variable in IS SOURCE/DESTINATION OF", x.EdgeVar)
		}
		return nil
	case *ast.Same:
		return a.checkElemList("SAME", x.Vars, site)
	case *ast.AllDifferent:
		return a.checkElemList("ALL_DIFFERENT", x.Vars, site)
	case *ast.VarRef:
		if _, err := a.refCheck(x.Name, site, false); err != nil {
			return err
		}
		return fmt.Errorf("plan: variable reference %q is not a predicate", x.Name)
	case *ast.PropAccess:
		// A boolean property used directly as a predicate.
		_, err := a.checkValue(e, site)
		return err
	case *ast.Literal:
		return nil
	case *ast.Param:
		// Truthiness of the bound value is decided at runtime, like any
		// other non-boolean expression used as a predicate.
		a.recordParam(x)
		return nil
	case *ast.Aggregate:
		return fmt.Errorf("plan: aggregate %s is not a predicate; compare it with a value", x)
	default:
		return fmt.Errorf("plan: unknown expression %T", e)
	}
}

func (a *analyzer) checkValue(e ast.Expr, site exprSite) (exprClass, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return clsValue, nil
	case *ast.Param:
		a.recordParam(x)
		return clsValue, nil
	case *ast.VarRef:
		if _, err := a.refCheck(x.Name, site, false); err != nil {
			return clsValue, err
		}
		return clsElem, nil // node or edge reference (paths rejected by refCheck)
	case *ast.PropAccess:
		if _, err := a.refCheck(x.Var, site, false); err != nil {
			return clsValue, err
		}
		if x.Prop == "*" {
			return clsValue, fmt.Errorf("plan: %s.* is only valid inside an aggregate such as COUNT(%s.*)", x.Var, x.Var)
		}
		return clsValue, nil
	case *ast.Unary:
		if x.Op == "NOT" {
			if err := a.checkPred(x.X, site); err != nil {
				return clsValue, err
			}
			return clsValue, nil
		}
		c, err := a.checkValue(x.X, site)
		if err != nil {
			return clsValue, err
		}
		if c == clsElem {
			return clsValue, fmt.Errorf("plan: cannot negate an element reference in %q", x)
		}
		return clsValue, nil
	case *ast.Binary:
		switch x.Op {
		case ast.OpAnd, ast.OpOr, ast.OpXor, ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
			// A boolean-valued subexpression.
			if err := a.checkPred(x, site); err != nil {
				return clsValue, err
			}
			return clsValue, nil
		default:
			lc, err := a.checkValue(x.L, site)
			if err != nil {
				return clsValue, err
			}
			rc, err := a.checkValue(x.R, site)
			if err != nil {
				return clsValue, err
			}
			if lc == clsElem || rc == clsElem {
				return clsValue, fmt.Errorf("plan: element references cannot appear in arithmetic: %q", x)
			}
			return clsValue, nil
		}
	case *ast.Aggregate:
		return clsValue, a.checkAggregate(x, site)
	case *ast.IsNull, *ast.IsDirected, *ast.EndpointOf, *ast.Same, *ast.AllDifferent:
		if err := a.checkPred(e, site); err != nil {
			return clsValue, err
		}
		return clsValue, nil
	default:
		return clsValue, fmt.Errorf("plan: unknown expression %T", e)
	}
}

// checkAggregate validates COUNT/SUM/AVG/MIN/MAX over a group reference.
func (a *analyzer) checkAggregate(agg *ast.Aggregate, site exprSite) error {
	var name, prop string
	switch arg := agg.Arg.(type) {
	case *ast.VarRef:
		name = arg.Name
	case *ast.PropAccess:
		name, prop = arg.Var, arg.Prop
	default:
		return fmt.Errorf("plan: aggregate argument must be a variable or property reference: %s", agg)
	}
	if _, err := a.refCheck(name, site, true); err != nil {
		return err
	}
	if prop == "" || prop == "*" {
		// COUNT(e) / COUNT(e.*) count elements; LISTAGG(e, sep) joins
		// element identifiers (the §3 LISTAGG(e.ID, ', ') usage).
		if agg.Kind != value.AggCount && agg.Kind != value.AggListagg {
			return fmt.Errorf("plan: %s requires a property reference such as %s(%s.prop)", agg.Kind, agg.Kind, name)
		}
	}
	return nil
}

// checkElemList validates SAME/ALL_DIFFERENT argument lists: element
// references that are unconditional singletons (§4.7).
func (a *analyzer) checkElemList(op string, vars []string, site exprSite) error {
	for _, v := range vars {
		info, err := a.refCheck(v, site, false)
		if err != nil {
			return err
		}
		if info.Kind == VarPath {
			return fmt.Errorf("plan: %s applies to element references, %q is a path variable", op, v)
		}
		if info.Group {
			return fmt.Errorf("plan: %s requires singleton references, %q is a group variable", op, v)
		}
		if info.Conditional {
			return fmt.Errorf("plan: %s requires unconditional singletons, %q is a conditional singleton (paper §4.7)", op, v)
		}
	}
	return nil
}

// refCheck validates one variable reference and applies the group-crossing
// rules of §4.4 and the §5.3 prohibition on effectively-unbounded group
// references in prefilters.
func (a *analyzer) refCheck(name string, site exprSite, inAgg bool) (*VarInfo, error) {
	info, ok := a.vars[name]
	if !ok {
		return nil, fmt.Errorf("plan: reference to undeclared variable %q", name)
	}
	if info.Kind == VarPath {
		if inAgg {
			return nil, fmt.Errorf("plan: path variable %q cannot be aggregated", name)
		}
		return nil, fmt.Errorf("plan: path variable %q cannot be used in expressions", name)
	}
	if !site.post && site.patternIdx >= 0 && !slices.Contains(info.Patterns, site.patternIdx) {
		return nil, fmt.Errorf("plan: prefilter references variable %q declared in another path pattern; move the condition to the final WHERE clause", name)
	}
	crossing := info.Group && !isPrefix(info.QuantChain, site.chain)
	if crossing {
		if !inAgg {
			return nil, fmt.Errorf("plan: group variable %q is referenced across its quantifier and must be aggregated (e.g. SUM(%s.prop), COUNT(%s))", name, name, name)
		}
		if !site.post {
			// §5.3: prefilter over an effectively unbounded group.
			common := commonPrefixLen(info.QuantChain, site.chain)
			for _, qid := range info.QuantChain[common:] {
				q := a.quantByID[qid]
				if q != nil && q.Unbounded() && !a.underRestr[qid] {
					return nil, fmt.Errorf(
						"plan: prefilter aggregates the effectively unbounded group variable %q (paper §5.3); move the predicate to the final WHERE clause, bound the quantifier, or add a restrictor", name)
				}
			}
		}
	} else if inAgg {
		return nil, fmt.Errorf("plan: aggregate over %q, which is not a group reference at this position", name)
	}
	return info, nil
}

func commonPrefixLen(a, b []int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
