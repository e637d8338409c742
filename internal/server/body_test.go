package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
