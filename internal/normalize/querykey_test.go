package normalize

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gpml/internal/lexer"
)

// TestQueryKeyCollisions pins which textual variants share a cache key:
// layout, comments, keyword case, numeric and string literal spelling
// collapse; anything that tokenizes differently must not.
func TestQueryKeyCollisions(t *testing.T) {
	collide := [][2]string{
		{"MATCH (x:Account)", "  MATCH   (x:Account)  "},
		{"MATCH (x:Account)", "MATCH (x:Account) // trailing comment"},
		{"MATCH (x)-[e]->(y)", "MATCH (x) - [e] -> (y)"},
		{"match (x:Account)", "MATCH (x:Account)"},
		{"MATCH (x WHERE x.f = 1.5)", "MATCH (x WHERE x.f = 1.50)"},
		{"MATCH (x WHERE x.f = 2.0)", "MATCH (x WHERE x.f = 2.00)"},
		{"MATCH (x WHERE x.a = $v)", "MATCH (x WHERE x.a=$v)"},
		{"MATCH (x:Account)\nWHERE x.isBlocked = 'no'", "MATCH (x:Account) WHERE x.isBlocked = 'no'"},
	}
	for _, pair := range collide {
		a, err := QueryKey(pair[0])
		if err != nil {
			t.Fatalf("QueryKey(%q): %v", pair[0], err)
		}
		b, err := QueryKey(pair[1])
		if err != nil {
			t.Fatalf("QueryKey(%q): %v", pair[1], err)
		}
		if a != b {
			t.Errorf("keys differ:\n%q -> %q\n%q -> %q", pair[0], a, pair[1], b)
		}
	}
}

func TestQueryKeyDistinctions(t *testing.T) {
	distinct := [][2]string{
		{"MATCH (x:Account)", "MATCH (y:Account)"},               // identifiers are case- and name-sensitive
		{"MATCH (x:Account)", "MATCH (x:account)"},               // labels too
		{"MATCH (x WHERE x.a = 'b')", "MATCH (x WHERE x.a = b)"}, // string vs identifier
		{"MATCH (x WHERE x.n = 1)", "MATCH (x WHERE x.n = 1.0)"}, // INT vs FLOAT literal
		{"MATCH (x WHERE x.a = $v)", "MATCH (x WHERE x.a = $w)"}, // parameter names
		{"MATCH (x)-[e]->(y)", "MATCH (x)<-[e]-(y)"},
	}
	for _, pair := range distinct {
		a, err := QueryKey(pair[0])
		if err != nil {
			t.Fatalf("QueryKey(%q): %v", pair[0], err)
		}
		b, err := QueryKey(pair[1])
		if err != nil {
			t.Fatalf("QueryKey(%q): %v", pair[1], err)
		}
		if a == b {
			t.Errorf("keys collide for distinct queries %q and %q: %q", pair[0], pair[1], a)
		}
	}
}

func TestQueryKeyLexError(t *testing.T) {
	if _, err := QueryKey("MATCH (x WHERE x.a = 'unterminated"); err == nil {
		t.Fatal("expected a lex error for unterminated string")
	}
}

// FuzzQueryKey checks QueryKey against edits of the source text at token
// boundaries: inserting whitespace or a block comment, or flipping the
// case of a keyword, keeps the key; changing the value of an integer or
// string literal changes it. Seeds are every conformance query under each
// edit.
func FuzzQueryKey(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no conformance cases to seed from (%v)", err)
	}
	for i, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(raw), "\nquery:\n")
		if !ok {
			f.Fatalf("%s: no query section", path)
		}
		query, _, _ := strings.Cut(rest, "\n-- result --")
		for op := uint8(0); op < 5; op++ {
			f.Add(strings.TrimSpace(query), uint(i), op)
		}
	}
	f.Fuzz(func(t *testing.T, src string, pick uint, op uint8) {
		toks, err := lexer.Tokenize(src)
		if err != nil {
			return
		}
		key, err := QueryKey(src)
		if err != nil {
			t.Fatalf("QueryKey(%q): %v after a clean tokenize", src, err)
		}
		// nth returns the index of the pick-th token (cyclically) that
		// keep accepts, or -1 when none does.
		nth := func(keep func(lexer.Token) bool) int {
			var idx []int
			for i, tok := range toks {
				if keep(tok) {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				return -1
			}
			return idx[pick%uint(len(idx))]
		}
		var edited string
		same := true
		switch op %= 5; op {
		case 0, 1: // insert layout before a token (not EOF: a trailing line comment would swallow it)
			if len(toks) == 1 {
				return
			}
			at := tokenOffset(src, toks[pick%uint(len(toks)-1)])
			fill := []string{" ", "\n", "\t", "\r\n"}[pick%4]
			if op == 1 {
				fill = " /* " + fill + " */ "
			}
			edited = src[:at] + fill + src[at:]
		case 2: // flip the ASCII case of a keyword's spelling
			i := nth(func(tok lexer.Token) bool { return tok.Kind == lexer.KEYWORD })
			if i < 0 {
				return
			}
			start, end := tokenSpan(src, toks[i])
			edited = src[:start] + flipASCIICase(src[start:end]) + src[end:]
		case 3, 4: // change one integer or string literal's value
			kind := lexer.INT
			if op == 4 {
				kind = lexer.STRING
			}
			// A multiplied literal that overflowed reads negative; its
			// decimal spelling would lex as a minus and an integer.
			i := nth(func(tok lexer.Token) bool { return tok.Kind == kind && tok.Int >= 0 })
			if i < 0 {
				return
			}
			lit := strconv.FormatInt(toks[i].Int^1, 10)
			if kind == lexer.STRING {
				lit = "'" + strings.ReplaceAll(toks[i].Text+"x", "'", "''") + "'"
			}
			start, end := tokenSpan(src, toks[i])
			edited = src[:start] + lit + src[end:]
			if !onlyValueDiffers(toks, edited, i) {
				return // the new spelling fused with a neighbour
			}
			same = false
		}
		got, err := QueryKey(edited)
		if err != nil {
			t.Fatalf("QueryKey(%q) (edited from %q): %v", edited, src, err)
		}
		if (got == key) != same {
			t.Fatalf("edit op %d of %q to %q: keys %q and %q, want equal=%v", op, src, edited, key, got, same)
		}
	})
}

// tokenOffset is the byte offset a token starts at; the lexer's columns
// count bytes.
func tokenOffset(src string, tok lexer.Token) int {
	off := 0
	for line := 1; line < tok.Line; line++ {
		off += strings.IndexByte(src[off:], '\n') + 1
	}
	return off + tok.Col - 1
}

// tokenSpan is the byte range of a token's spelling: the shortest prefix
// of the text at its offset that lexes to the same token alone.
func tokenSpan(src string, tok lexer.Token) (int, int) {
	start := tokenOffset(src, tok)
	for end := start + 1; end <= len(src); end++ {
		toks, err := lexer.Tokenize(src[start:end])
		if err == nil && len(toks) == 2 && sameValue(toks[0], tok) {
			return start, end
		}
	}
	return start, len(src)
}

// sameValue compares tokens by kind and payload, ignoring position.
func sameValue(a, b lexer.Token) bool {
	a.Line, a.Col, b.Line, b.Col = 0, 0, 0, 0
	return a == b
}

// onlyValueDiffers reports whether edited lexes to the tokens of the
// original except for the payload of token i, which keeps its kind.
func onlyValueDiffers(orig []lexer.Token, edited string, i int) bool {
	toks, err := lexer.Tokenize(edited)
	if err != nil || len(toks) != len(orig) || toks[i].Kind != orig[i].Kind || sameValue(toks[i], orig[i]) {
		return false
	}
	for j := range toks {
		if j != i && !sameValue(toks[j], orig[j]) {
			return false
		}
	}
	return true
}

// flipASCIICase swaps the case of every ASCII letter in s.
func flipASCIICase(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}
