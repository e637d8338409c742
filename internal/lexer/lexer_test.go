package lexer

import (
	"strings"
	"testing"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("tokenize %q: %v", src, err)
	}
	out := make([]Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func equalKinds(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPunctuation(t *testing.T) {
	got := kinds(t, "( ) [ ] { } , . : | <->")
	want := []Kind{LPAREN, RPAREN, LBRACKET, RBRACKET, LBRACE, RBRACE, COMMA, DOT, COLON, BAR, LT, MINUS, GT, EOF}
	if !equalKinds(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestFusedOperators(t *testing.T) {
	got := kinds(t, "<= >= <> |+|")
	want := []Kind{LE, GE, NE, MULTIBAR, EOF}
	if !equalKinds(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	// '<' '-' stays split (edge arrows are assembled by the parser, so
	// "a < -5" lexes correctly).
	got = kinds(t, "a < -5")
	want = []Kind{IDENT, LT, MINUS, INT, EOF}
	if !equalKinds(got, want) {
		t.Errorf("a < -5: got %v want %v", got, want)
	}
	// '|' not followed by '+|' stays BAR.
	got = kinds(t, "| + |")
	want = []Kind{BAR, PLUS, BAR, EOF}
	if !equalKinds(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	for _, src := range []string{"MATCH", "match", "Match", "mAtCh"} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].Kind != KEYWORD || toks[0].Text != "MATCH" {
			t.Errorf("%q: got %v %q", src, toks[0].Kind, toks[0].Text)
		}
	}
	toks, _ := Tokenize("owner")
	if toks[0].Kind != IDENT || toks[0].Text != "owner" {
		t.Errorf("identifier case must be preserved: %+v", toks[0])
	}
	if !IsKeyword("ALL_DIFFERENT") || IsKeyword("OWNER") {
		t.Errorf("IsKeyword wrong")
	}
}

func TestStrings(t *testing.T) {
	toks, err := Tokenize("'Ankh-Morpork' 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "Ankh-Morpork" {
		t.Errorf("string 1: %q", toks[0].Text)
	}
	if toks[1].Text != "it's" {
		t.Errorf("escaped quote: %q", toks[1].Text)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Errorf("unterminated string must fail")
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Tokenize("42 1.5 2e3 1.5e-2 5M 10K 2B 3m")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != INT || toks[0].Int != 42 {
		t.Errorf("42: %+v", toks[0])
	}
	if toks[1].Kind != FLOAT || toks[1].Float != 1.5 {
		t.Errorf("1.5: %+v", toks[1])
	}
	if toks[2].Kind != FLOAT || toks[2].Float != 2000 {
		t.Errorf("2e3: %+v", toks[2])
	}
	if toks[3].Kind != FLOAT || toks[3].Float != 0.015 {
		t.Errorf("1.5e-2: %+v", toks[3])
	}
	if toks[4].Kind != INT || toks[4].Int != 5_000_000 {
		t.Errorf("5M: %+v", toks[4])
	}
	if toks[5].Kind != INT || toks[5].Int != 10_000 {
		t.Errorf("10K: %+v", toks[5])
	}
	if toks[6].Kind != INT || toks[6].Int != 2_000_000_000 {
		t.Errorf("2B: %+v", toks[6])
	}
	if toks[7].Kind != INT || toks[7].Int != 3_000_000 {
		t.Errorf("3m (lower-case suffix): %+v", toks[7])
	}
}

func TestNumberEdgeCases(t *testing.T) {
	// Quantifier braces: {1,2} must lex the ints cleanly.
	got := kinds(t, "{1,2}")
	want := []Kind{LBRACE, INT, COMMA, INT, RBRACE, EOF}
	if !equalKinds(got, want) {
		t.Errorf("{1,2}: %v", got)
	}
	// Property access after an int-valued context: "1.x" is not a float.
	got = kinds(t, "1 .x")
	want = []Kind{INT, DOT, IDENT, EOF}
	if !equalKinds(got, want) {
		t.Errorf("1 .x: %v", got)
	}
	// Invalid suffix: "5Mx" must error.
	if _, err := Tokenize("5Mx"); err == nil {
		t.Errorf("5Mx must fail")
	}
	// Overflow.
	if _, err := Tokenize("999999999999999999999999"); err == nil {
		t.Errorf("overflowing int must fail")
	}
}

func TestComments(t *testing.T) {
	toks, err := Tokenize("MATCH // a line comment\n (x) /* block\ncomment */ WHERE")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != EOF {
			texts = append(texts, tok.String())
		}
	}
	if len(texts) != 5 { // MATCH ( x ) WHERE
		t.Errorf("comments not skipped: %v", texts)
	}
	if _, err := Tokenize("/* unterminated"); err == nil {
		t.Errorf("unterminated block comment must fail")
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("MATCH\n  (x)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("MATCH position: %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("( position: %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Tokenize("abc\n  @")
	if err == nil {
		t.Fatalf("@ must fail")
	}
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type: %T", err)
	}
	if le.Line != 2 || le.Col != 3 {
		t.Errorf("error position: %d:%d", le.Line, le.Col)
	}
	if !strings.Contains(le.Error(), "2:3") {
		t.Errorf("error message: %v", le)
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks, err := Tokenize("conta_bancária")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != IDENT || toks[0].Text != "conta_bancária" {
		t.Errorf("unicode ident: %+v", toks[0])
	}
}

// A non-ASCII rune outside the grammar, or a byte that is not UTF-8, is a
// positioned error. As an empty identifier that consumes nothing it would
// make Tokenize append empty tokens until memory runs out.
func TestUnexpectedNonASCII(t *testing.T) {
	for _, tc := range []struct {
		src, msg string
		col      int
	}{
		{"MATCH (a)→(b)", `unexpected character '→'`, 10},
		{"MATCH (a)—(b)", `unexpected character '—'`, 10},
		{"MATCH\u00a0(a)", `unexpected character '\u00a0'`, 6},
		{"MATCH (a)\xff(b)", "invalid UTF-8 byte 0xff", 10},
	} {
		_, err := Tokenize(tc.src)
		le, ok := err.(*Error)
		if !ok {
			t.Errorf("%q: err = %v, want a lexer error", tc.src, err)
			continue
		}
		if le.Line != 1 || le.Col != tc.col || le.Msg != tc.msg {
			t.Errorf("%q: error %d:%d %q, want 1:%d %q", tc.src, le.Line, le.Col, le.Msg, tc.col, tc.msg)
		}
	}
}

func TestEdgePatternTokenStream(t *testing.T) {
	// The paper's full edge pattern: <-[e:Transfer WHERE e.amount>5M]->
	got := kinds(t, "<-[e:Transfer WHERE e.amount>5M]->")
	want := []Kind{LT, MINUS, LBRACKET, IDENT, COLON, IDENT, KEYWORD, IDENT, DOT, IDENT, GT, INT, RBRACKET, MINUS, GT, EOF}
	if !equalKinds(got, want) {
		t.Errorf("edge pattern stream:\n got  %v\n want %v", got, want)
	}
}

func TestTokenAndKindStrings(t *testing.T) {
	toks, _ := Tokenize("x 'a' 1 1.5 MATCH (")
	for _, tok := range toks {
		if tok.String() == "" {
			t.Errorf("empty token string for %v", tok.Kind)
		}
	}
	for k := EOF; k <= AMP; k++ {
		if k.String() == "" {
			t.Errorf("empty kind string for %d", k)
		}
	}
}
