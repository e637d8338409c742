package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpml"
	"gpml/internal/gql"
)

// TestRequestBodyCap pins the hostile-input bound on /query and /explain:
// a body of exactly maxBodyBytes is served, one byte more is refused with
// 413 and kind bad_request. The padding sits inside the JSON object, so
// the decoder has to read all of it.
func TestRequestBodyCap(t *testing.T) {
	h := testServer(t).Handler()
	body := func(size int) string {
		head, tail := `{"query":"MATCH (x:Account)"`, `}`
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	for _, path := range []string{"/query", "/explain"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body(maxBodyBytes))))
		if w.Code != http.StatusOK {
			t.Errorf("%s with a body of exactly the limit: status %d, want 200\n%s", path, w.Code, w.Body)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body(maxBodyBytes+1))))
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), `"kind":"bad_request"`) {
			t.Errorf("%s with an oversized body: status %d body %s, want 413 bad_request", path, w.Code, w.Body)
		}
	}
}

// TestDeeplyNestedQueryIs400 sends the body that used to end the process:
// 400,000 nested parentheses are about 800 KB, under the body cap, and a
// recursive-descent parse of them overflows the goroutine stack, which no
// recover can catch. The parser's nesting bound turns it into a positioned
// compile error, and the same handler serves the next request.
func TestDeeplyNestedQueryIs400(t *testing.T) {
	h := testServer(t).Handler()
	const levels = 400_000
	nested := `{"query":"MATCH (a) WHERE ` + strings.Repeat("(", levels) + "1=1" + strings.Repeat(")", levels) + `"}`
	if len(nested) >= maxBodyBytes {
		t.Fatalf("test premise: the %d-byte body must pass the %d-byte cap", len(nested), maxBodyBytes)
	}
	for _, path := range []string{"/query", "/explain"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(nested)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"kind":"compile"`) ||
			!strings.Contains(w.Body.String(), "nested more than") {
			t.Fatalf("%s with %d nested parentheses: status %d, want a 400 compile error naming the nesting bound\n%.300s",
				path, levels, w.Code, w.Body)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"query":"MATCH (x:Account)"}`)))
		if w.Code != http.StatusOK {
			t.Errorf("%s after the rejected request: status %d, want 200\n%s", path, w.Code, w.Body)
		}
	}
}

// TestUnlexableCharacterIs400 sends queries with a character outside the
// grammar. Each is a positioned compile error, not an endless run of empty
// tokens that exhausts memory, and the server stays healthy.
func TestUnlexableCharacterIs400(t *testing.T) {
	h := testServer(t).Handler()
	// The invalid byte reaches the lexer as U+FFFD: JSON strings are
	// decoded to valid UTF-8.
	for _, query := range []string{"MATCH (a)→(b)", "MATCH (a)\u00a0-(b)", "MATCH (a)\xff(b)"} {
		body, err := json.Marshal(map[string]string{"query": query})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"kind":"compile"`) ||
			!strings.Contains(w.Body.String(), `"line":1,"col":10`) {
			t.Errorf("%q: status %d body %s, want a 400 compile error at 1:10", query, w.Code, w.Body)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/healthz after %q: status %d, want 200", query, w.Code)
		}
	}
}

// FuzzQueryBody POSTs arbitrary bytes to /query and /explain on the
// Figure 1 catalog. Every answer is either a 200 — an NDJSON stream of a
// header, rows and a trailer (or, for a stream a search limit cut, an
// error record), or an explain plan — or a 4xx JSON error with a kind. No
// input reaches a 500 internal error, and none panics. The seeds are the
// conformance texts, and a parameterized text with a parameter of every
// JSON type. The row budget keeps one input's work small.
func FuzzQueryBody(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if len(files) == 0 {
		f.Fatal("no conformance texts")
	}
	seed := func(req map[string]any) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, rest, _ := strings.Cut(string(raw), "\nquery:\n")
		query, _, _ := strings.Cut(rest, "\n-- result --")
		seed(map[string]any{"query": query})
	}
	for _, v := range []any{"Dave", 7, 1.5, true, nil, []any{1}, map[string]any{"a": 1}} {
		seed(map[string]any{"query": "MATCH (x:Account WHERE x.owner=$p)-[t:Transfer]->{1,2}(y)", "params": map[string]any{"p": v}, "limit": 5})
	}
	f.Add([]byte(`{"query":"MATCH (x)","graph":"nope","gql":true,"timeout_ms":-1}`))
	f.Add([]byte(`{"query":"MATCH (x)","unknown":1}`))
	f.Add([]byte(`[]`))

	catalog := gql.NewCatalog()
	if err := catalog.Register("fig1", gpml.Snapshot(gpml.Fig1())); err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog, MaxRows: 100})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/explain"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch {
			case w.Code == http.StatusOK && path == "/query":
				checkStream(t, w.Body.String())
			case w.Code == http.StatusOK:
				var resp explainResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Plan) == 0 {
					t.Fatalf("%s: 200 without a plan (%v): %s", path, err, w.Body)
				}
			case w.Code >= 400 && w.Code < 500:
				var got map[string]errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || got["error"].Kind == "" || got["error"].Kind == "internal" {
					t.Fatalf("%s: status %d without a classified error (%v): %s", path, w.Code, err, w.Body)
				}
			default:
				t.Fatalf("%s: status %d: %s\nbody: %q", path, w.Code, w.Body, body)
			}
		}
	})
}

// checkStream checks a 200 /query answer: a header with columns, row
// records, and a trailer or a classified, non-internal error record.
func checkStream(t *testing.T, stream string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	var header struct{ Columns *[]string }
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || header.Columns == nil {
		t.Fatalf("stream header %q (%v)", lines[0], err)
	}
	for _, l := range lines[1 : len(lines)-1] {
		var rec struct{ Row []string }
		if err := json.Unmarshal([]byte(l), &rec); err != nil || len(rec.Row) != len(*header.Columns) {
			t.Fatalf("row record %q (%v) under columns %v", l, err, *header.Columns)
		}
	}
	var last struct {
		Rows  *int
		Error *errorBody
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil ||
		(last.Rows == nil) == (last.Error == nil) || last.Error != nil && last.Error.Kind != "limit" {
		t.Fatalf("stream ends in %q (%v), want a trailer or a limit error", lines[len(lines)-1], err)
	}
}
