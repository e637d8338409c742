package gpml_test

import (
	"context"
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gpml"
	"gpml/internal/normalize"
	"gpml/internal/qcache"
)

// Parameterized queries: one compiled plan, many argument sets. The
// prepared form with WithParams must reproduce the literal query's
// result exactly, across engines and argument values.
func TestParamsMatchLiteralQuery(t *testing.T) {
	g := gpml.Fig1()
	prepared := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked = $blocked)`)
	if got := prepared.Params(); len(got) != 1 || got[0] != "blocked" {
		t.Fatalf("Params() = %v, want [blocked]", got)
	}
	for _, blocked := range []string{"no", "yes"} {
		literal := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked = '` + blocked + `')`)
		want, err := literal.Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prepared.Eval(g, gpml.WithParams(map[string]gpml.Value{
			"blocked": gpml.Str(blocked),
		}))
		if err != nil {
			t.Fatal(err)
		}
		if gpml.FormatResult(got) != gpml.FormatResult(want) {
			t.Errorf("blocked=%q: parameterized result diverges:\ngot:\n%s\nwant:\n%s",
				blocked, gpml.FormatResult(got), gpml.FormatResult(want))
		}
	}
}

// Parameters must work in every predicate path: element predicates in
// the engines and the statement-level postfilter. Each prepared query
// must return what the same text with its arguments written as literals
// returns. (Automaton-vs-enumerating agreement under bound parameters is
// internal/eval's TestEnginesAgreeOnCorpus.)
func TestParamsAcrossEngines(t *testing.T) {
	g := gpml.Fig1()
	cases := []struct{ prepared, literal string }{
		// node predicate (seed filter)
		{`MATCH (x:Account WHERE x.isBlocked = $b)`,
			`MATCH (x:Account WHERE x.isBlocked = 'no')`},
		// edge predicate inside a quantified pattern (automaton-eligible)
		{`MATCH TRAIL (x:Account)-[t:Transfer WHERE t.amount > $min]->+(y:Account)`,
			`MATCH TRAIL (x:Account)-[t:Transfer WHERE t.amount > 900000]->+(y:Account)`},
		// statement-level postfilter over two variables
		{`MATCH (x:Account)-[t:Transfer]->(y:Account) WHERE x.isBlocked = $b AND y.isBlocked = $b`,
			`MATCH (x:Account)-[t:Transfer]->(y:Account) WHERE x.isBlocked = 'no' AND y.isBlocked = 'no'`},
	}
	allArgs := map[string]gpml.Value{"b": gpml.Str("no"), "min": gpml.Int(900_000)}
	for _, c := range cases {
		q := gpml.MustCompile(c.prepared)
		// Binding is strict (exact arity), so pass each query only the
		// parameters it declares.
		args := make(map[string]gpml.Value)
		for _, name := range q.Params() {
			args[name] = allArgs[name]
		}
		got, err := q.Eval(g, gpml.WithParams(args))
		if err != nil {
			t.Fatalf("%s: %v", c.prepared, err)
		}
		want, err := gpml.MustCompile(c.literal).Eval(g)
		if err != nil {
			t.Fatalf("%s: %v", c.literal, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: no rows — the predicate matched nothing, test is vacuous", c.literal)
		}
		if out, lit := gpml.FormatResult(got), gpml.FormatResult(want); out != lit {
			t.Errorf("%s: diverges from the literal query:\ngot:\n%s\nwant:\n%s", c.prepared, out, lit)
		}
	}
}

// Bind-time validation: missing and unknown parameters are positioned
// errors raised before evaluation starts, never panics.
func TestParamsBindErrors(t *testing.T) {
	g := gpml.Fig1()
	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked = $blocked)`)

	// Missing value for a used placeholder.
	_, err := q.Eval(g)
	var bind *gpml.BindError
	if !errors.As(err, &bind) {
		t.Fatalf("missing param: want *BindError, got %v", err)
	}
	if bind.Name != "blocked" {
		t.Errorf("missing param names %q, want blocked", bind.Name)
	}
	if line, col, ok := gpml.ErrorPosition(err); !ok || line != 1 || col != 38 {
		t.Errorf("missing param position = %d:%d (ok=%v), want 1:38 (the $)", line, col, ok)
	}
	if d := gpml.Diagnostic(q.Source(), err); !strings.Contains(d, "^") {
		t.Errorf("missing param diagnostic has no caret:\n%s", d)
	}

	// Supplied name the query never uses (arity mismatch).
	_, err = q.Eval(g, gpml.WithParams(map[string]gpml.Value{
		"blocked": gpml.Str("no"),
		"extra":   gpml.Int(1),
	}))
	if !errors.As(err, &bind) {
		t.Fatalf("unknown param: want *BindError, got %v", err)
	}
	if bind.Name != "extra" {
		t.Errorf("unknown param names %q, want extra", bind.Name)
	}

	// Stream must fail the same way, before a pipeline spins up.
	if _, err := q.Stream(context.Background(), g); !errors.As(err, &bind) {
		t.Fatalf("Stream without params: want *BindError, got %v", err)
	}

	// Type looseness is the language's: comparing a string property to an
	// int parameter is not a bind error, it just matches nothing.
	res, err := q.Eval(g, gpml.WithParams(map[string]gpml.Value{"blocked": gpml.Int(7)}))
	if err != nil {
		t.Fatalf("int-typed param: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("int-typed param matched %d rows, want 0", len(res.Rows))
	}
}

// The plan cache contract (the serving path's core invariant): textual
// variants sharing a QueryKey hit one cache entry, and a cached plan
// replayed with fresh bindings is byte-identical to a fresh compile.
func TestPlanCacheNormalizationCollisions(t *testing.T) {
	cache := qcache.New(8)
	compile := func(src string) *gpml.Query {
		key, err := normalize.QueryKey(src)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := cache.Get(key); ok {
			return v.(*gpml.Query)
		}
		q := gpml.MustCompile(src)
		cache.Put(key, q)
		return q
	}
	variants := []string{
		`MATCH (x:Account WHERE x.isBlocked = $b)`,
		`  MATCH   (x:Account  WHERE x.isBlocked = $b)`,
		"MATCH (x:Account WHERE x.isBlocked = $b) // comment",
		"match (x:Account where x.isBlocked = $b)",
	}
	first := compile(variants[0])
	for _, v := range variants[1:] {
		if compile(v) != first {
			t.Errorf("variant %q missed the cache entry of %q", v, variants[0])
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != int64Len(variants)-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, int64Len(variants)-1)
	}

	g := gpml.Fig1()
	args := map[string]gpml.Value{"b": gpml.Str("no")}
	fresh, err := gpml.MustCompile(variants[0]).Eval(g, gpml.WithParams(args))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := first.Eval(g, gpml.WithParams(args))
	if err != nil {
		t.Fatal(err)
	}
	if gpml.FormatResult(cached) != gpml.FormatResult(fresh) {
		t.Error("cached plan replay diverges from fresh compile")
	}
}

func int64Len(s []string) uint64 { return uint64(len(s)) }

// Cached-plan replay across the conformance corpus: every corpus query
// evaluated through a plan that has already served a request (cache hit
// path, shared memoized automaton) must be byte-identical to a fresh
// compile. This is the "prepared statements don't change results"
// guarantee the server relies on.
func TestPlanCacheReplayMatchesFreshAcrossCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance cases (err=%v)", err)
	}
	sort.Strings(files)
	cache := qcache.New(64)
	for _, path := range files {
		c := parseConformanceCase(t, path)
		build, ok := conformanceGraphs[c.graph]
		if !ok {
			t.Fatalf("%s: unknown graph %q", path, c.graph)
		}
		g := build()
		key, err := normalize.QueryKey(c.query)
		if err != nil {
			t.Fatalf("%s: QueryKey: %v", path, err)
		}
		q, err := gpml.Compile(c.query, gpml.GQLMode())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cache.Put("gql\x00"+key, q)
		fresh, err := gpml.MustCompile(c.query, gpml.GQLMode()).Eval(g)
		if err != nil {
			t.Fatalf("%s: fresh eval: %v", path, err)
		}
		// Replay through the cache twice: the second hit exercises a plan
		// whose automaton memo and analysis are fully warm.
		for round := 0; round < 2; round++ {
			v, ok := cache.Get("gql\x00" + key)
			if !ok {
				t.Fatalf("%s: cache entry vanished", path)
			}
			res, err := v.(*gpml.Query).Eval(g)
			if err != nil {
				t.Fatalf("%s: cached eval: %v", path, err)
			}
			if gpml.FormatResult(res) != gpml.FormatResult(fresh) {
				t.Errorf("%s: cached replay (round %d) diverges from fresh compile", path, round)
			}
		}
	}
}
