package server

import (
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
