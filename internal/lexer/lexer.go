package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Error is a lexical error with position information.
type Error struct {
	Msg  string
	Line int
	Col  int
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Pos returns the 1-based source position the error points at.
func (e *Error) Pos() (line, col int) { return e.Line, e.Col }

// Lexer scans GPML source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src, line: 1, col: 1} }

// Tokenize scans the entire input and returns all tokens including the
// trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

func (l *Lexer) errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &Error{Msg: "unterminated block comment", Line: startLine, Col: startCol}
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = EOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(rune(c)) || c >= utf8.RuneSelf:
		return l.lexWord(tok)
	case c >= '0' && c <= '9':
		return l.lexNumber(tok)
	case c == '\'':
		return l.lexString(tok)
	case c == '$':
		return l.lexParam(tok)
	}
	l.advance()
	switch c {
	case '(':
		tok.Kind = LPAREN
	case ')':
		tok.Kind = RPAREN
	case '[':
		tok.Kind = LBRACKET
	case ']':
		tok.Kind = RBRACKET
	case '{':
		tok.Kind = LBRACE
	case '}':
		tok.Kind = RBRACE
	case ',':
		tok.Kind = COMMA
	case '.':
		tok.Kind = DOT
	case ':':
		tok.Kind = COLON
	case '|':
		if l.peek() == '+' && l.peekAt(1) == '|' {
			l.advance()
			l.advance()
			tok.Kind = MULTIBAR
		} else {
			tok.Kind = BAR
		}
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			tok.Kind = LE
		case '>':
			l.advance()
			tok.Kind = NE
		default:
			tok.Kind = LT
		}
	case '>':
		if l.peek() == '=' {
			l.advance()
			tok.Kind = GE
		} else {
			tok.Kind = GT
		}
	case '=':
		tok.Kind = EQ
	case '-':
		tok.Kind = MINUS
	case '+':
		tok.Kind = PLUS
	case '*':
		tok.Kind = STAR
	case '/':
		tok.Kind = SLASH
	case '%':
		tok.Kind = PERCENT
	case '~':
		tok.Kind = TILDE
	case '?':
		tok.Kind = QUESTION
	case '!':
		tok.Kind = BANG
	case '&':
		tok.Kind = AMP
	default:
		return Token{}, &Error{Msg: fmt.Sprintf("unexpected character %q", c), Line: tok.Line, Col: tok.Col}
	}
	return tok, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *Lexer) lexWord(tok Token) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		for i := 0; i < size; i++ {
			l.advance()
		}
	}
	if l.pos == start {
		// A non-ASCII rune that cannot start a word: consuming nothing
		// would hand Tokenize the same position forever.
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		msg := fmt.Sprintf("unexpected character %q", r)
		if r == utf8.RuneError && size == 1 {
			msg = fmt.Sprintf("invalid UTF-8 byte %#x", l.src[l.pos])
		}
		return Token{}, &Error{Msg: msg, Line: tok.Line, Col: tok.Col}
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if IsKeyword(upper) {
		tok.Kind = KEYWORD
		tok.Text = upper
		return tok, nil
	}
	tok.Kind = IDENT
	tok.Text = word
	return tok, nil
}

// lexNumber scans an integer or float. The paper writes amounts like 5M and
// 10M "for readability"; the lexer accepts the multiplier suffixes K, M and
// B (×10³, ×10⁶, ×10⁹) on integer literals.
func (l *Lexer) lexNumber(tok Token) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
		l.advance()
	}
	isFloat := false
	// A '.' starts a fraction only when followed by a digit: "1.5" is a
	// float, but "e.amount" style property access after an integer (as in
	// range syntax "{1,2}") never puts '.' directly after a number, and
	// "123.foo" should not silently become a float.
	if l.peek() == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9' {
		isFloat = true
		l.advance()
		for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		// Exponent: e[+-]?digits. Only if followed by a digit or sign+digit,
		// otherwise it is an identifier boundary (e.g. "5M" handled below).
		off := 1
		if s := l.peekAt(1); s == '+' || s == '-' {
			off = 2
		}
		if d := l.peekAt(off); d >= '0' && d <= '9' {
			isFloat = true
			for i := 0; i < off; i++ {
				l.advance()
			}
			for l.pos < len(l.src) && l.peek() >= '0' && l.peek() <= '9' {
				l.advance()
			}
		}
	}
	text := l.src[start:l.pos]
	var mult int64 = 1
	switch c := l.peek(); c {
	case 'K', 'k':
		mult = 1_000
	case 'M', 'm':
		mult = 1_000_000
	case 'B', 'b':
		mult = 1_000_000_000
	}
	if mult != 1 {
		// Consume the suffix only when it is not part of a longer word
		// (e.g. "5Mx" is an error, "5 Mx" lexes separately).
		if next := rune(l.peekAt(1)); !isIdentPart(next) || l.peekAt(1) == 0 {
			l.advance()
		} else {
			return Token{}, l.errf("invalid numeric suffix in %q", text+string(l.peek()))
		}
	}
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, l.errf("invalid float literal %q: %v", text, err)
		}
		tok.Kind = FLOAT
		tok.Float = f * float64(mult)
		return tok, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, l.errf("invalid integer literal %q: %v", text, err)
	}
	tok.Kind = INT
	tok.Int = i * mult
	return tok, nil
}

// lexParam scans a $name query parameter. The name follows identifier
// rules and keeps its source spelling: parameters are named by the caller,
// not by the language, so no keyword folding applies.
func (l *Lexer) lexParam(tok Token) (Token, error) {
	l.advance() // '$'
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		for i := 0; i < size; i++ {
			l.advance()
		}
	}
	if l.pos == start {
		return Token{}, &Error{Msg: "expected parameter name after '$'", Line: tok.Line, Col: tok.Col}
	}
	tok.Kind = PARAM
	tok.Text = l.src[start:l.pos]
	return tok, nil
}

// lexString scans a single-quoted string; ” escapes a quote (SQL style).
func (l *Lexer) lexString(tok Token) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, &Error{Msg: "unterminated string literal", Line: tok.Line, Col: tok.Col}
		}
		c := l.advance()
		if c == '\'' {
			if l.peek() == '\'' {
				l.advance()
				b.WriteByte('\'')
				continue
			}
			tok.Kind = STRING
			tok.Text = b.String()
			return tok, nil
		}
		b.WriteByte(c)
	}
}
