package ast_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpml/internal/ast"
	"gpml/internal/parser"
)

// corpusStatements parses every query of the conformance corpus.
func corpusStatements(t *testing.T) []*ast.MatchStmt {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance cases: %v", err)
	}
	var out []*ast.MatchStmt
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(raw), "\nquery:\n")
		if !ok {
			t.Fatalf("%s: no query", path)
		}
		query, _, _ := strings.Cut(rest, "\n-- result --")
		stmt, err := parser.Parse(query)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, stmt)
	}
	return out
}

// Reversal is an involution over every corpus pattern, and leaves its
// input untouched.
func TestReverseInvolution(t *testing.T) {
	n := 0
	for _, stmt := range corpusStatements(t) {
		for _, pp := range stmt.Patterns {
			before := pp.Expr.String()
			once := ast.Reverse(pp.Expr)
			if got := ast.Reverse(once).String(); got != before {
				t.Errorf("Reverse(Reverse(%s)) = %s", before, got)
			}
			if pp.Expr.String() != before {
				t.Errorf("Reverse modified its input %s", before)
			}
			n++
		}
	}
	if n < 20 {
		t.Fatalf("only %d corpus patterns", n)
	}
}

// Every one of the seven orientations is mirrored: left and right swap,
// undirected stays, and mirroring twice is the identity.
func TestReverseMirrorsOrientations(t *testing.T) {
	for o := ast.Left; o <= ast.AnyOrientation; o++ {
		e := ast.Reverse(&ast.EdgePattern{Var: "e", Orientation: o}).(*ast.EdgePattern)
		m := e.Orientation
		if m != o.Mirror() || m.Mirror() != o {
			t.Errorf("%s: reversed to %s, Mirror gives %s", o, m, o.Mirror())
		}
		if m.AllowsLeft() != o.AllowsRight() || m.AllowsRight() != o.AllowsLeft() || m.AllowsUndirected() != o.AllowsUndirected() {
			t.Errorf("%s mirrored to %s admits different edges", o, m)
		}
	}
}

func TestReverseShape(t *testing.T) {
	for src, want := range map[string]string{
		`MATCH (a:A)-[e:T]->(b)<~[f]~(c)`:               `(c)~[f]~>(b)<-[e:T]-(a:A)`,
		`MATCH (a)[(m)-[e]->(n) WHERE e.w > 1]{1,3}(b)`: `(b)[(n)<-[e]-(m) WHERE e.w > 1]{1,3}(a)`,
		`MATCH (x)[-[e]->(y) | <-[f]-(z)]?`:             `[(y)<-[e]- | (z)-[f]->]?(x)`,
		`MATCH (a)[TRAIL (m)-[e]->+(n)](b)`:             `(b)[TRAIL (n)<-[e]-+(m)](a)`,
	} {
		stmt, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := ast.Reverse(stmt.Patterns[0].Expr).String(); got != want {
			t.Errorf("Reverse(%s) = %s, want %s", src, got, want)
		}
	}
}
