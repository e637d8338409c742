// Package ast defines the abstract syntax of GPML graph patterns and value
// expressions, following Section 4 of the paper. The same node types are
// used before and after normalization (Section 6.2); normalization only
// constrains their shape.
package ast

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// MatchStmt is "MATCH p1, p2, … [WHERE expr]". The comma-separated path
// patterns form a graph pattern (§4.3); the final WHERE is the postfilter
// (§5.2).
type MatchStmt struct {
	Patterns []*PathPattern
	Where    Expr // optional postfilter; nil if absent
}

// String renders the statement back to GPML syntax.
func (m *MatchStmt) String() string {
	var b strings.Builder
	b.WriteString("MATCH ")
	for i, p := range m.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if m.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(m.Where.String())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Path patterns
// ---------------------------------------------------------------------------

// Restrictor is a path predicate guaranteeing finiteness (Fig 7).
type Restrictor uint8

// Restrictors.
const (
	NoRestrictor Restrictor = iota
	Trail                   // no repeated edges
	Acyclic                 // no repeated nodes
	Simple                  // no repeated nodes except first == last
)

// String returns the GPML keyword for the restrictor.
func (r Restrictor) String() string {
	switch r {
	case Trail:
		return "TRAIL"
	case Acyclic:
		return "ACYCLIC"
	case Simple:
		return "SIMPLE"
	default:
		return ""
	}
}

// SelectorKind enumerates the selector algorithms of Fig 8.
type SelectorKind uint8

// Selector kinds.
const (
	NoSelector     SelectorKind = iota
	AnyShortest                 // ANY SHORTEST
	AllShortest                 // ALL SHORTEST
	AnyPath                     // ANY
	AnyK                        // ANY k
	ShortestK                   // SHORTEST k
	ShortestKGroup              // SHORTEST k GROUP
)

// Selector is a selector with its count parameter where applicable.
type Selector struct {
	Kind SelectorKind
	K    int // for AnyK, ShortestK, ShortestKGroup
}

// String renders the selector keyword sequence.
func (s Selector) String() string {
	switch s.Kind {
	case AnyShortest:
		return "ANY SHORTEST"
	case AllShortest:
		return "ALL SHORTEST"
	case AnyPath:
		return "ANY"
	case AnyK:
		return fmt.Sprintf("ANY %d", s.K)
	case ShortestK:
		return fmt.Sprintf("SHORTEST %d", s.K)
	case ShortestKGroup:
		return fmt.Sprintf("SHORTEST %d GROUP", s.K)
	default:
		return ""
	}
}

// PathPattern is one top-level path pattern: an optional selector (only
// legal at the head of a path pattern, Fig 8), an optional restrictor, an
// optional path variable, and the pattern expression.
type PathPattern struct {
	Selector   Selector
	Restrictor Restrictor
	PathVar    string // "" if none
	Expr       PathExpr
}

// String renders the path pattern.
func (p *PathPattern) String() string {
	var b strings.Builder
	if p.Selector.Kind != NoSelector {
		b.WriteString(p.Selector.String())
		b.WriteByte(' ')
	}
	if p.Restrictor != NoRestrictor {
		b.WriteString(p.Restrictor.String())
		b.WriteByte(' ')
	}
	if p.PathVar != "" {
		b.WriteString(p.PathVar)
		b.WriteString(" = ")
	}
	b.WriteString(p.Expr.String())
	return b.String()
}

// PathExpr is a path pattern expression node.
type PathExpr interface {
	fmt.Stringer
	pathExpr()
}

// Concat is the concatenation of pattern elements.
type Concat struct {
	Elems []PathExpr
}

func (*Concat) pathExpr() {}

// String renders the concatenation.
func (c *Concat) String() string {
	parts := make([]string, len(c.Elems))
	for i, e := range c.Elems {
		parts[i] = e.String()
	}
	return strings.Join(parts, "")
}

// UnionOp distinguishes path pattern union (set semantics) from multiset
// alternation (§4.5).
type UnionOp uint8

// Union operators.
const (
	SetUnion UnionOp = iota // |
	Multiset                // |+|
)

// String renders the operator.
func (o UnionOp) String() string {
	if o == Multiset {
		return " |+| "
	}
	return " | "
}

// Union is an n-ary alternation. Ops[i] joins Branches[i] and
// Branches[i+1]; len(Ops) == len(Branches)-1. Mixed operators are kept in
// source order (left-associative).
type Union struct {
	Branches []PathExpr
	Ops      []UnionOp
}

func (*Union) pathExpr() {}

// String renders the alternation.
func (u *Union) String() string {
	var b strings.Builder
	for i, br := range u.Branches {
		if i > 0 {
			b.WriteString(u.Ops[i-1].String())
		}
		b.WriteString(br.String())
	}
	return b.String()
}

// NodePattern is "(var :labelExpr WHERE cond)" with every part optional.
type NodePattern struct {
	Var   string // "" = anonymous (normalization assigns a fresh variable)
	Label LabelExpr
	Where Expr
}

func (*NodePattern) pathExpr() {}

// String renders the node pattern.
func (n *NodePattern) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(displayVar(n.Var))
	if n.Label != nil {
		b.WriteByte(':')
		b.WriteString(n.Label.String())
	}
	if n.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(n.Where.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Orientation enumerates the seven edge-pattern orientations of Fig 5.
type Orientation uint8

// Orientations (Fig 5 order).
const (
	Left           Orientation = iota // <-[]-    pointing left
	UndirectedEdge                    // ~[]~     undirected
	Right                             // -[]->    pointing right
	LeftOrUndir                       // <~[]~    left or undirected
	UndirOrRight                      // ~[]~>    undirected or right
	LeftOrRight                       // <-[]->   left or right
	AnyOrientation                    // -[]-     left, undirected or right
)

// String names the orientation.
func (o Orientation) String() string {
	switch o {
	case Left:
		return "left"
	case UndirectedEdge:
		return "undirected"
	case Right:
		return "right"
	case LeftOrUndir:
		return "left-or-undirected"
	case UndirOrRight:
		return "undirected-or-right"
	case LeftOrRight:
		return "left-or-right"
	case AnyOrientation:
		return "any"
	default:
		return fmt.Sprintf("orientation(%d)", uint8(o))
	}
}

// AllowsLeft reports whether the orientation admits traversing a directed
// edge against its direction (arriving via the edge's source).
func (o Orientation) AllowsLeft() bool {
	return o == Left || o == LeftOrUndir || o == LeftOrRight || o == AnyOrientation
}

// AllowsRight reports whether the orientation admits traversing a directed
// edge along its direction.
func (o Orientation) AllowsRight() bool {
	return o == Right || o == UndirOrRight || o == LeftOrRight || o == AnyOrientation
}

// AllowsUndirected reports whether the orientation admits undirected edges.
func (o Orientation) AllowsUndirected() bool {
	return o == UndirectedEdge || o == LeftOrUndir || o == UndirOrRight || o == AnyOrientation
}

// Mirror returns the orientation that admits the same edges when they are
// traversed from the other end (left and right swap).
func (o Orientation) Mirror() Orientation {
	switch o {
	case Left:
		return Right
	case Right:
		return Left
	case LeftOrUndir:
		return UndirOrRight
	case UndirOrRight:
		return LeftOrUndir
	}
	return o
}

// EdgePattern is an edge pattern in one of the seven orientations, e.g.
// -[e:Transfer WHERE e.amount>5M]->, or an abbreviation such as ->.
type EdgePattern struct {
	Var         string
	Label       LabelExpr
	Where       Expr
	Orientation Orientation
}

func (*EdgePattern) pathExpr() {}

// String renders the edge pattern in its full (bracketed) form when it has
// content, abbreviated otherwise.
func (e *EdgePattern) String() string {
	spec := ""
	if e.Var != "" || e.Label != nil || e.Where != nil {
		var b strings.Builder
		b.WriteString(displayVar(e.Var))
		if e.Label != nil {
			b.WriteByte(':')
			b.WriteString(e.Label.String())
		}
		if e.Where != nil {
			b.WriteString(" WHERE ")
			b.WriteString(e.Where.String())
		}
		spec = b.String()
	}
	left, right := edgeDelims(e.Orientation)
	if spec == "" {
		return abbrev(e.Orientation)
	}
	return left + "[" + spec + "]" + right
}

func edgeDelims(o Orientation) (string, string) {
	switch o {
	case Left:
		return "<-", "-"
	case UndirectedEdge:
		return "~", "~"
	case Right:
		return "-", "->"
	case LeftOrUndir:
		return "<~", "~"
	case UndirOrRight:
		return "~", "~>"
	case LeftOrRight:
		return "<-", "->"
	default:
		return "-", "-"
	}
}

func abbrev(o Orientation) string {
	switch o {
	case Left:
		return "<-"
	case UndirectedEdge:
		return "~"
	case Right:
		return "->"
	case LeftOrUndir:
		return "<~"
	case UndirOrRight:
		return "~>"
	case LeftOrRight:
		return "<->"
	default:
		return "-"
	}
}

// Paren is a parenthesized path pattern "( RESTRICTOR? expr WHERE? )" or
// "[ … ]" (§4.4: "a path pattern enclosed in parentheses or square brackets
// with an optional WHERE clause"; §5.1: restrictors may be placed at the
// head of a parenthesized path pattern).
type Paren struct {
	Restrictor Restrictor
	Expr       PathExpr
	Where      Expr // per-match prefilter over the parenthesized fragment
	Square     bool // rendered with [ ] instead of ( )
}

func (*Paren) pathExpr() {}

// String renders the parenthesized pattern.
func (p *Paren) String() string {
	open, close := "(", ")"
	if p.Square {
		open, close = "[", "]"
	}
	var b strings.Builder
	b.WriteString(open)
	if p.Restrictor != NoRestrictor {
		b.WriteString(p.Restrictor.String())
		b.WriteByte(' ')
	}
	b.WriteString(p.Expr.String())
	if p.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(p.Where.String())
	}
	b.WriteString(close)
	return b.String()
}

// Quantified applies a quantifier (Fig 6) or the question-mark operator
// (§4.6) to an edge pattern or parenthesized path pattern. Max < 0 means
// unbounded ({m,}). Question marks the ?-operator, whose inner singletons
// stay conditional singletons rather than becoming group variables.
type Quantified struct {
	Inner    PathExpr
	Min      int
	Max      int // -1 = unbounded
	Question bool
}

func (*Quantified) pathExpr() {}

// Unbounded reports whether the quantifier has no upper bound.
func (q *Quantified) Unbounded() bool { return q.Max < 0 }

// String renders the quantifier in its canonical {m,n} form (or ?, which
// has distinct semantics).
func (q *Quantified) String() string {
	if q.Question {
		return q.Inner.String() + "?"
	}
	if q.Max < 0 {
		switch q.Min {
		case 0:
			return q.Inner.String() + "*"
		case 1:
			return q.Inner.String() + "+"
		default:
			return fmt.Sprintf("%s{%d,}", q.Inner.String(), q.Min)
		}
	}
	return fmt.Sprintf("%s{%d,%d}", q.Inner.String(), q.Min, q.Max)
}

// Reverse returns the pattern expression that matches every path of e
// walked from its last node to its first: concatenations run back to
// front and every edge's orientation is mirrored, while labels, WHERE
// clauses, restrictors, quantifier bounds and the order of union branches
// are kept. The input is not modified; nodes without path-expression
// children are shared. Reverse(Reverse(e)) prints as e.
func Reverse(e PathExpr) PathExpr {
	switch x := e.(type) {
	case *Concat:
		elems := make([]PathExpr, len(x.Elems))
		for i, el := range x.Elems {
			elems[len(elems)-1-i] = Reverse(el)
		}
		return &Concat{Elems: elems}
	case *EdgePattern:
		m := *x
		m.Orientation = x.Orientation.Mirror()
		return &m
	case *Paren:
		m := *x
		m.Expr = Reverse(x.Expr)
		return &m
	case *Quantified:
		m := *x
		m.Inner = Reverse(x.Inner)
		return &m
	case *Union:
		branches := make([]PathExpr, len(x.Branches))
		for i, br := range x.Branches {
			branches[i] = Reverse(br)
		}
		return &Union{Branches: branches, Ops: x.Ops}
	default:
		return e
	}
}

// ---------------------------------------------------------------------------
// Anonymous variables
// ---------------------------------------------------------------------------

// Normalization (§6.2) introduces fresh variables for anonymous node and
// edge patterns; the paper writes them □ᵢ and −ᵢ. We spell them "$nᵢ" and
// "$eᵢ" ('$' cannot appear in source identifiers, so no capture is
// possible).

// AnonNodeVar constructs the i-th anonymous node variable.
func AnonNodeVar(i int) string { return fmt.Sprintf("$n%d", i) }

// AnonEdgeVar constructs the i-th anonymous edge variable.
func AnonEdgeVar(i int) string { return fmt.Sprintf("$e%d", i) }

// IsAnonVar reports whether the variable was introduced by normalization.
func IsAnonVar(v string) bool { return strings.HasPrefix(v, "$") }

// displayVar hides anonymous variables when printing patterns.
func displayVar(v string) string {
	if IsAnonVar(v) {
		return ""
	}
	return v
}

// ReducedVar is the display name a variable gets after reduction (§6.5):
// anonymous node variables merge to "□", anonymous edge variables to "−".
func ReducedVar(v string) string {
	switch {
	case strings.HasPrefix(v, "$n"):
		return "□"
	case strings.HasPrefix(v, "$e"):
		return "−"
	default:
		return v
	}
}
