// Package parser implements a recursive-descent parser for GPML statements
// (Section 4 of the paper): MATCH followed by comma-separated path
// patterns, each with optional selector, restrictor and path variable, and
// an optional final WHERE postfilter.
//
// GPML's ASCII-art syntax makes '(', '<', '-', '~', '[' context dependent;
// the parser resolves the ambiguities with bounded backtracking over the
// token stream (e.g. "(x:Account)" is a node pattern while
// "((x)-[e]->(y))" is a parenthesized path pattern).
package parser

import (
	"fmt"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/lexer"
	"gpml/internal/value"
)

// Error is a parse error with position information.
type Error struct {
	Msg  string
	Line int
	Col  int
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Pos returns the 1-based source position the error points at.
func (e *Error) Pos() (line, col int) { return e.Line, e.Col }

// Parser consumes a token stream.
type Parser struct {
	toks    []lexer.Token
	pos     int
	depth   int   // open recursive productions; see enter
	tooDeep error // set once depth passes maxDepth; the parse has failed
}

// maxDepth bounds how deeply the recursive productions may nest in one
// statement. Recursive descent spends goroutine stack per level, and a
// stack overflow is a fatal error no recover can catch, so a few hundred
// kilobytes of "((((…" would otherwise end the process that parsed it.
// No hand-written query comes near the limit.
const maxDepth = 512

// enter opens one level of a recursive production — expression and label
// parentheses, NOT / unary minus / label negation chains, parenthesized
// and bracketed path patterns — failing with a positioned error past
// maxDepth. All productions share the one counter, so mixed nesting is
// bounded too. Callers defer leave, which also keeps the count right when
// parseNodeOrParen backtracks out of a failed branch. The error is kept
// in tooDeep and reported by Parse whatever the backtracking branches
// make of it: no alternative reading of the input is any shallower.
func (p *Parser) enter() error {
	if p.depth++; p.depth > maxDepth && p.tooDeep == nil {
		p.tooDeep = p.errHere("pattern or expression nested more than %d levels deep", maxDepth)
	}
	return p.tooDeep
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a complete GPML statement: MATCH … [WHERE …].
func Parse(src string) (*ast.MatchStmt, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseMatch()
	if p.tooDeep != nil {
		return nil, p.tooDeep
	}
	if err != nil {
		return nil, err
	}
	if !p.at(lexer.EOF) {
		return nil, p.errHere("unexpected %s after statement", p.cur())
	}
	return stmt, nil
}

// ParseExpr parses a standalone value expression (used by the SQL/PGQ
// COLUMNS clause and by tests).
func ParseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if p.tooDeep != nil {
		return nil, p.tooDeep
	}
	if err != nil {
		return nil, err
	}
	if !p.at(lexer.EOF) {
		return nil, p.errHere("unexpected %s after expression", p.cur())
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

func (p *Parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *Parser) peek() lexer.Token { return p.peekAt(1) }

func (p *Parser) peekAt(off int) lexer.Token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+off]
}

func (p *Parser) at(k lexer.Kind) bool { return p.cur().Kind == k }

func (p *Parser) atKw(words ...string) bool {
	t := p.cur()
	if t.Kind != lexer.KEYWORD {
		return false
	}
	for _, w := range words {
		if t.Text == w {
			return true
		}
	}
	return false
}

func (p *Parser) advance() lexer.Token {
	t := p.cur()
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(k lexer.Kind) (lexer.Token, error) {
	if !p.at(k) {
		return lexer.Token{}, p.errHere("expected %s, found %s", k, p.cur())
	}
	return p.advance(), nil
}

func (p *Parser) expectKw(w string) error {
	if !p.atKw(w) {
		return p.errHere("expected %s, found %s", w, p.cur())
	}
	p.advance()
	return nil
}

func (p *Parser) errHere(format string, args ...any) error {
	t := p.cur()
	return &Error{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

// ---------------------------------------------------------------------------
// Statement level
// ---------------------------------------------------------------------------

func (p *Parser) parseMatch() (*ast.MatchStmt, error) {
	if err := p.expectKw("MATCH"); err != nil {
		return nil, err
	}
	stmt := &ast.MatchStmt{}
	for {
		pp, err := p.parsePathPattern()
		if err != nil {
			return nil, err
		}
		stmt.Patterns = append(stmt.Patterns, pp)
		if !p.at(lexer.COMMA) {
			break
		}
		p.advance()
	}
	if p.atKw("WHERE") {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.atKw("KEEP") {
		return nil, p.errHere("KEEP is a GPML language opportunity (paper §7.2) and is not supported; place the selector at the head of the path pattern instead")
	}
	return stmt, nil
}

func (p *Parser) parsePathPattern() (*ast.PathPattern, error) {
	pp := &ast.PathPattern{}
	sel, err := p.parseSelector()
	if err != nil {
		return nil, err
	}
	pp.Selector = sel
	pp.Restrictor = p.parseRestrictor()
	// Optional path variable: IDENT '='.
	if p.at(lexer.IDENT) && p.peek().Kind == lexer.EQ {
		pp.PathVar = p.advance().Text
		p.advance() // '='
	}
	expr, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	pp.Expr = expr
	return pp, nil
}

// parseSelector recognizes the Fig 8 selectors at the head of a path
// pattern: ANY SHORTEST, ALL SHORTEST, ANY, ANY k, SHORTEST k,
// SHORTEST k GROUP.
func (p *Parser) parseSelector() (ast.Selector, error) {
	switch {
	case p.atKw("ANY"):
		p.advance()
		if p.atKw("SHORTEST") {
			p.advance()
			return ast.Selector{Kind: ast.AnyShortest}, nil
		}
		if p.at(lexer.INT) {
			k := p.advance().Int
			if k < 1 {
				return ast.Selector{}, p.errHere("selector count must be at least 1, got %d", k)
			}
			return ast.Selector{Kind: ast.AnyK, K: int(k)}, nil
		}
		return ast.Selector{Kind: ast.AnyPath}, nil
	case p.atKw("ALL"):
		// ALL alone is the default semantics (no selector); Fig 8 only
		// defines ALL SHORTEST.
		if p.peek().Kind == lexer.KEYWORD && p.peek().Text == "SHORTEST" {
			p.advance()
			p.advance()
			return ast.Selector{Kind: ast.AllShortest}, nil
		}
		return ast.Selector{}, p.errHere("expected SHORTEST after ALL (Fig 8 defines ALL SHORTEST)")
	case p.atKw("SHORTEST"):
		p.advance()
		if !p.at(lexer.INT) {
			return ast.Selector{}, p.errHere("expected count after SHORTEST (use ANY SHORTEST or ALL SHORTEST for the unparameterized forms)")
		}
		k := p.advance().Int
		if k < 1 {
			return ast.Selector{}, p.errHere("selector count must be at least 1, got %d", k)
		}
		if p.atKw("GROUP") {
			p.advance()
			return ast.Selector{Kind: ast.ShortestKGroup, K: int(k)}, nil
		}
		return ast.Selector{Kind: ast.ShortestK, K: int(k)}, nil
	default:
		return ast.Selector{}, nil
	}
}

func (p *Parser) parseRestrictor() ast.Restrictor {
	switch {
	case p.atKw("TRAIL"):
		p.advance()
		return ast.Trail
	case p.atKw("ACYCLIC"):
		p.advance()
		return ast.Acyclic
	case p.atKw("SIMPLE"):
		p.advance()
		return ast.Simple
	default:
		return ast.NoRestrictor
	}
}

// ---------------------------------------------------------------------------
// Path pattern expressions
// ---------------------------------------------------------------------------

// parseUnion parses concatenations joined by | and |+| (§4.5),
// left-associatively at equal precedence.
func (p *Parser) parseUnion() (ast.PathExpr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	if !p.at(lexer.BAR) && !p.at(lexer.MULTIBAR) {
		return first, nil
	}
	u := &ast.Union{Branches: []ast.PathExpr{first}}
	for p.at(lexer.BAR) || p.at(lexer.MULTIBAR) {
		op := ast.SetUnion
		if p.at(lexer.MULTIBAR) {
			op = ast.Multiset
		}
		p.advance()
		br, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		u.Branches = append(u.Branches, br)
		u.Ops = append(u.Ops, op)
	}
	return u, nil
}

// parseConcat parses a maximal sequence of path elements.
func (p *Parser) parseConcat() (ast.PathExpr, error) {
	var elems []ast.PathExpr
	for {
		if !p.startsElement() {
			break
		}
		el, err := p.parseElement()
		if err != nil {
			return nil, err
		}
		elems = append(elems, el)
	}
	if len(elems) == 0 {
		return nil, p.errHere("expected a node pattern, edge pattern or parenthesized path pattern, found %s", p.cur())
	}
	if len(elems) == 1 {
		return elems[0], nil
	}
	return &ast.Concat{Elems: elems}, nil
}

// startsElement reports whether the current token can begin a path element.
func (p *Parser) startsElement() bool {
	switch p.cur().Kind {
	case lexer.LPAREN, lexer.LBRACKET, lexer.LT, lexer.MINUS, lexer.TILDE:
		return true
	default:
		return false
	}
}

// parseElement parses one pattern element with an optional quantifier.
func (p *Parser) parseElement() (ast.PathExpr, error) {
	var (
		el  ast.PathExpr
		err error
	)
	switch p.cur().Kind {
	case lexer.LPAREN:
		el, err = p.parseNodeOrParen()
	case lexer.LBRACKET:
		el, err = p.parseParen(lexer.LBRACKET, lexer.RBRACKET)
	case lexer.LT, lexer.MINUS, lexer.TILDE:
		el, err = p.parseEdgePattern()
	default:
		return nil, p.errHere("expected pattern element, found %s", p.cur())
	}
	if err != nil {
		return nil, err
	}
	return p.parseQuantifierSuffix(el)
}

// parseQuantifierSuffix applies *, +, ?, {m,n} postfix operators.
func (p *Parser) parseQuantifierSuffix(el ast.PathExpr) (ast.PathExpr, error) {
	var q *ast.Quantified
	switch p.cur().Kind {
	case lexer.STAR:
		p.advance()
		q = &ast.Quantified{Inner: el, Min: 0, Max: -1}
	case lexer.PLUS:
		p.advance()
		q = &ast.Quantified{Inner: el, Min: 1, Max: -1}
	case lexer.QUESTION:
		p.advance()
		q = &ast.Quantified{Inner: el, Min: 0, Max: 1, Question: true}
	case lexer.LBRACE:
		p.advance()
		lo, err := p.expect(lexer.INT)
		if err != nil {
			return nil, err
		}
		q = &ast.Quantified{Inner: el, Min: int(lo.Int), Max: int(lo.Int)}
		if p.at(lexer.COMMA) {
			p.advance()
			if p.at(lexer.INT) {
				hi := p.advance()
				q.Max = int(hi.Int)
			} else {
				q.Max = -1
			}
		}
		if _, err := p.expect(lexer.RBRACE); err != nil {
			return nil, err
		}
		if q.Max >= 0 && q.Max < q.Min {
			return nil, p.errHere("quantifier {%d,%d} has upper bound below lower bound", q.Min, q.Max)
		}
	default:
		return el, nil
	}
	switch q.Inner.(type) {
	case *ast.EdgePattern, *ast.Paren:
		return q, nil
	default:
		return nil, p.errHere("quantifiers apply only to edge patterns and parenthesized path patterns (paper §4.4)")
	}
}

// parseNodeOrParen disambiguates "(…)" between a node pattern and a
// parenthesized path pattern by attempting the node pattern first and
// backtracking on failure.
func (p *Parser) parseNodeOrParen() (ast.PathExpr, error) {
	save := p.pos
	np, nodeErr := p.parseNodePattern()
	if nodeErr == nil {
		return np, nil
	}
	nodeConsumed := p.pos - save
	p.pos = save
	paren, parenErr := p.parseParen(lexer.LPAREN, lexer.RPAREN)
	if parenErr == nil {
		return paren, nil
	}
	parenConsumed := p.pos - save
	// Report the error from whichever parse progressed further.
	return nil, pickDeeperError(nodeErr, nodeConsumed, parenErr, parenConsumed)
}

// pickDeeperError chooses the more useful of two backtracking-branch
// failures: the one positioned further into the input. Positions can tie
// even when the branches got unequally far — an error may point at a token
// other than the cursor — so ties fall back to the number of tokens the
// branch consumed before failing; an exact tie keeps a. Both tie-breaks
// are deterministic, so diagnostics are stable across runs.
func pickDeeperError(a error, aConsumed int, b error, bConsumed int) error {
	pa, aok := a.(*Error)
	pb, bok := b.(*Error)
	if aok && bok {
		if pb.Line != pa.Line || pb.Col != pa.Col {
			if pb.Line > pa.Line || (pb.Line == pa.Line && pb.Col > pa.Col) {
				return b
			}
			return a
		}
		if bConsumed > aConsumed {
			return b
		}
		return a
	}
	return b
}

// parseNodePattern parses "(var? (:labelExpr)? (WHERE expr)?)".
func (p *Parser) parseNodePattern() (*ast.NodePattern, error) {
	if _, err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	np := &ast.NodePattern{}
	if p.at(lexer.IDENT) {
		np.Var = p.advance().Text
	}
	if p.at(lexer.COLON) {
		p.advance()
		le, err := p.parseLabelExpr()
		if err != nil {
			return nil, err
		}
		np.Label = le
	}
	if p.atKw("WHERE") {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		np.Where = w
	}
	if _, err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	return np, nil
}

// parseParen parses "( RESTRICTOR? pathExpr (WHERE expr)? )" with the given
// delimiters (parentheses or square brackets, §4.4).
func (p *Parser) parseParen(open, close lexer.Kind) (*ast.Paren, error) {
	if _, err := p.expect(open); err != nil {
		return nil, err
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	par := &ast.Paren{Square: open == lexer.LBRACKET}
	par.Restrictor = p.parseRestrictor()
	inner, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	par.Expr = inner
	if p.atKw("WHERE") {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		par.Where = w
	}
	if _, err := p.expect(close); err != nil {
		return nil, err
	}
	return par, nil
}

// ---------------------------------------------------------------------------
// Edge patterns (Fig 5)
// ---------------------------------------------------------------------------

// parseEdgePattern assembles one of the seven orientations, in full
// ("<-[spec]-", "~[spec]~>", …) or abbreviated ("<-", "~>", "-") form.
func (p *Parser) parseEdgePattern() (*ast.EdgePattern, error) {
	switch p.cur().Kind {
	case lexer.LT:
		p.advance()
		switch p.cur().Kind {
		case lexer.MINUS:
			p.advance()
			if p.at(lexer.LBRACKET) {
				// <-[spec]- or <-[spec]->
				ep, err := p.parseEdgeSpec()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(lexer.MINUS); err != nil {
					return nil, err
				}
				if p.at(lexer.GT) {
					p.advance()
					ep.Orientation = ast.LeftOrRight
				} else {
					ep.Orientation = ast.Left
				}
				return ep, nil
			}
			// <- or <->
			if p.at(lexer.GT) {
				p.advance()
				return &ast.EdgePattern{Orientation: ast.LeftOrRight}, nil
			}
			return &ast.EdgePattern{Orientation: ast.Left}, nil
		case lexer.TILDE:
			p.advance()
			if p.at(lexer.LBRACKET) {
				// <~[spec]~
				ep, err := p.parseEdgeSpec()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(lexer.TILDE); err != nil {
					return nil, err
				}
				ep.Orientation = ast.LeftOrUndir
				return ep, nil
			}
			return &ast.EdgePattern{Orientation: ast.LeftOrUndir}, nil
		default:
			return nil, p.errHere("expected '-' or '~' after '<' in edge pattern, found %s", p.cur())
		}
	case lexer.MINUS:
		p.advance()
		if p.at(lexer.LBRACKET) {
			// -[spec]- or -[spec]->
			ep, err := p.parseEdgeSpec()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.MINUS); err != nil {
				return nil, err
			}
			if p.at(lexer.GT) {
				p.advance()
				ep.Orientation = ast.Right
			} else {
				ep.Orientation = ast.AnyOrientation
			}
			return ep, nil
		}
		if p.at(lexer.GT) {
			p.advance()
			return &ast.EdgePattern{Orientation: ast.Right}, nil
		}
		return &ast.EdgePattern{Orientation: ast.AnyOrientation}, nil
	case lexer.TILDE:
		p.advance()
		if p.at(lexer.LBRACKET) {
			// ~[spec]~ or ~[spec]~>
			ep, err := p.parseEdgeSpec()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.TILDE); err != nil {
				return nil, err
			}
			if p.at(lexer.GT) {
				p.advance()
				ep.Orientation = ast.UndirOrRight
			} else {
				ep.Orientation = ast.UndirectedEdge
			}
			return ep, nil
		}
		if p.at(lexer.GT) {
			p.advance()
			return &ast.EdgePattern{Orientation: ast.UndirOrRight}, nil
		}
		return &ast.EdgePattern{Orientation: ast.UndirectedEdge}, nil
	default:
		return nil, p.errHere("expected edge pattern, found %s", p.cur())
	}
}

// parseEdgeSpec parses "[var? (:labelExpr)? (WHERE expr)?]".
func (p *Parser) parseEdgeSpec() (*ast.EdgePattern, error) {
	if _, err := p.expect(lexer.LBRACKET); err != nil {
		return nil, err
	}
	ep := &ast.EdgePattern{}
	if p.at(lexer.IDENT) {
		ep.Var = p.advance().Text
	}
	if p.at(lexer.COLON) {
		p.advance()
		le, err := p.parseLabelExpr()
		if err != nil {
			return nil, err
		}
		ep.Label = le
	}
	if p.atKw("WHERE") {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ep.Where = w
	}
	if _, err := p.expect(lexer.RBRACKET); err != nil {
		return nil, err
	}
	return ep, nil
}

// ---------------------------------------------------------------------------
// Label expressions (§4.1)
// ---------------------------------------------------------------------------

func (p *Parser) parseLabelExpr() (ast.LabelExpr, error) {
	return p.parseLabelOr()
}

func (p *Parser) parseLabelOr() (ast.LabelExpr, error) {
	l, err := p.parseLabelAnd()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.BAR) {
		p.advance()
		r, err := p.parseLabelAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.LabelOr{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseLabelAnd() (ast.LabelExpr, error) {
	l, err := p.parseLabelUnary()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.AMP) {
		p.advance()
		r, err := p.parseLabelUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.LabelAnd{L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseLabelUnary() (ast.LabelExpr, error) {
	switch p.cur().Kind {
	case lexer.BANG:
		p.advance()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.parseLabelUnary()
		if err != nil {
			return nil, err
		}
		return &ast.LabelNot{X: x}, nil
	case lexer.PERCENT:
		p.advance()
		return &ast.LabelWildcard{}, nil
	case lexer.IDENT:
		return &ast.LabelName{Name: p.advance().Text}, nil
	case lexer.LPAREN:
		p.advance()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		inner, err := p.parseLabelExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RPAREN); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errHere("expected label expression, found %s", p.cur())
	}
}

// ---------------------------------------------------------------------------
// Value expressions
// ---------------------------------------------------------------------------

func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	l, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.atKw("OR") {
		p.advance()
		r, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseXor() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKw("XOR") {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpXor, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("AND") {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.atKw("NOT") {
		p.advance()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case lexer.EQ, lexer.NE, lexer.LT, lexer.LE, lexer.GT, lexer.GE:
		op := map[lexer.Kind]ast.BinOp{
			lexer.EQ: ast.OpEq, lexer.NE: ast.OpNe,
			lexer.LT: ast.OpLt, lexer.LE: ast.OpLe,
			lexer.GT: ast.OpGt, lexer.GE: ast.OpGe,
		}[p.cur().Kind]
		p.advance()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Op: op, L: l, R: r}, nil
	case lexer.KEYWORD:
		if p.cur().Text != "IS" {
			return l, nil
		}
		p.advance()
		negate := false
		if p.atKw("NOT") {
			p.advance()
			negate = true
		}
		switch {
		case p.atKw("NULL"):
			p.advance()
			return &ast.IsNull{X: l, Negate: negate}, nil
		case p.atKw("DIRECTED"):
			p.advance()
			v, ok := l.(*ast.VarRef)
			if !ok {
				return nil, p.errHere("IS DIRECTED applies to a variable reference, not %s", l)
			}
			return &ast.IsDirected{Var: v.Name, Negate: negate}, nil
		case p.atKw("SOURCE", "DESTINATION"):
			dest := p.cur().Text == "DESTINATION"
			p.advance()
			if err := p.expectKw("OF"); err != nil {
				return nil, err
			}
			edge, err := p.expect(lexer.IDENT)
			if err != nil {
				return nil, err
			}
			v, ok := l.(*ast.VarRef)
			if !ok {
				return nil, p.errHere("IS SOURCE/DESTINATION OF applies to a variable reference, not %s", l)
			}
			return &ast.EndpointOf{NodeVar: v.Name, EdgeVar: edge.Text, Dest: dest, Negate: negate}, nil
		default:
			return nil, p.errHere("expected NULL, DIRECTED, SOURCE OF or DESTINATION OF after IS, found %s", p.cur())
		}
	default:
		return l, nil
	}
}

func (p *Parser) parseAdd() (ast.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.PLUS) || p.at(lexer.MINUS) {
		op := ast.OpAdd
		if p.at(lexer.MINUS) {
			op = ast.OpSub
		}
		p.advance()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMul() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.STAR) || p.at(lexer.SLASH) || p.at(lexer.PERCENT) {
		var op ast.BinOp
		switch p.cur().Kind {
		case lexer.STAR:
			op = ast.OpMul
		case lexer.SLASH:
			op = ast.OpDiv
		default:
			op = ast.OpMod
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.at(lexer.MINUS) {
		p.advance()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case lexer.INT:
		p.advance()
		return &ast.Literal{Val: value.Int(t.Int)}, nil
	case lexer.FLOAT:
		p.advance()
		return &ast.Literal{Val: value.Float(t.Float)}, nil
	case lexer.STRING:
		p.advance()
		return &ast.Literal{Val: value.Str(t.Text)}, nil
	case lexer.PARAM:
		p.advance()
		return &ast.Param{Name: t.Text, Line: t.Line, Col: t.Col}, nil
	case lexer.LPAREN:
		p.advance()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RPAREN); err != nil {
			return nil, err
		}
		return inner, nil
	case lexer.KEYWORD:
		switch t.Text {
		case "TRUE":
			p.advance()
			return &ast.Literal{Val: value.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return &ast.Literal{Val: value.Bool(false)}, nil
		case "NULL":
			p.advance()
			return &ast.Literal{Val: value.Null}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "LISTAGG":
			return p.parseAggregate()
		case "SAME", "ALL_DIFFERENT":
			return p.parseElementListPredicate()
		default:
			return nil, p.errHere("unexpected %s in expression", t)
		}
	case lexer.IDENT:
		p.advance()
		name := t.Text
		if p.at(lexer.DOT) {
			p.advance()
			switch {
			case p.at(lexer.IDENT):
				return &ast.PropAccess{Var: name, Prop: p.advance().Text}, nil
			case p.at(lexer.STAR):
				p.advance()
				return &ast.PropAccess{Var: name, Prop: "*"}, nil
			case p.at(lexer.KEYWORD):
				// Property names may collide with keywords (e.g. x.count).
				return &ast.PropAccess{Var: name, Prop: strings.ToLower(p.advance().Text)}, nil
			default:
				return nil, p.errHere("expected property name after '.', found %s", p.cur())
			}
		}
		return &ast.VarRef{Name: name}, nil
	default:
		return nil, p.errHere("unexpected %s in expression", t)
	}
}

// parseAggregate parses COUNT/SUM/AVG/MIN/MAX '(' [DISTINCT] arg ')', where
// arg is a variable reference or property access (prop may be '*': the
// paper's COUNT(e.*) form).
func (p *Parser) parseAggregate() (ast.Expr, error) {
	kindTok := p.advance()
	kind, _ := value.ParseAggKind(kindTok.Text)
	if _, err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	agg := &ast.Aggregate{Kind: kind}
	if p.atKw("DISTINCT") {
		p.advance()
		agg.Distinct = true
	}
	arg, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch arg.(type) {
	case *ast.VarRef, *ast.PropAccess:
		agg.Arg = arg
	default:
		return nil, p.errHere("aggregate argument must be a variable or property reference, found %s", arg)
	}
	if kind == value.AggListagg {
		agg.Sep = ", " // PGQL's default
		if p.at(lexer.COMMA) {
			p.advance()
			sep, err := p.expect(lexer.STRING)
			if err != nil {
				return nil, err
			}
			agg.Sep = sep.Text
		}
	}
	if _, err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	return agg, nil
}

// parseElementListPredicate parses SAME(v1, v2, …) / ALL_DIFFERENT(v1, …).
func (p *Parser) parseElementListPredicate() (ast.Expr, error) {
	kw := p.advance().Text
	if _, err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	var vars []string
	for {
		v, err := p.expect(lexer.IDENT)
		if err != nil {
			return nil, err
		}
		vars = append(vars, v.Text)
		if !p.at(lexer.COMMA) {
			break
		}
		p.advance()
	}
	if _, err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	if len(vars) < 2 {
		return nil, p.errHere("%s requires at least two element references", kw)
	}
	if kw == "SAME" {
		return &ast.Same{Vars: vars}, nil
	}
	return &ast.AllDifferent{Vars: vars}, nil
}
