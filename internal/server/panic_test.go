package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gpml"
	"gpml/internal/gql"
	"gpml/internal/graph"
)

// panicStore is a catalog store whose NodeByIndex panics: a stand-in for
// any bug a request can reach while its rows are matched or rendered.
type panicStore struct{ graph.Stepper }

func (panicStore) NodeByIndex(int) *graph.Node { panic("injected NodeByIndex fault") }

// statsPanicStore is a catalog store whose LabelStats panics: /explain
// reads statistics when it orders a join.
type statsPanicStore struct{ graph.Stepper }

func (statsPanicStore) LabelStats() graph.StoreStats { panic("injected LabelStats fault") }

// panicDurability is a durability source whose DurabilityStats panics:
// /stats reads it on every request.
type panicDurability struct{}

func (panicDurability) DurabilityStats() graph.DurabilityStats {
	panic("injected DurabilityStats fault")
}

// captureLog redirects the standard logger for the test's duration.
func captureLog(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	prev := log.Writer()
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return buf
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestQueryPanicBeforeFirstByteIs500: a panic before any byte of the
// response is written answers 500 with a JSON error, logs the stack, and
// leaves the server serving.
func TestQueryPanicBeforeFirstByteIs500(t *testing.T) {
	logs := captureLog(t)
	catalog := gql.NewCatalog()
	if err := catalog.Register("bad", panicStore{gpml.Snapshot(gpml.Fig1())}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"query":"MATCH (x:Account)"}`))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]errorBody
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || body["error"].Kind != "internal" {
		t.Fatalf("status %d, body %+v (%v), want 500 with an internal error", resp.StatusCode, body, err)
	}
	if l := logs.String(); !strings.Contains(l, "panic serving /query: injected NodeByIndex fault") || !strings.Contains(l, "goroutine") {
		t.Errorf("panic not logged with its stack:\n%s", l)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: %d", resp.StatusCode)
	}
}

// TestQueryPanicMidStreamEndsWithErrorRecord: once rows have been written
// the status is sent, so a panic ends the stream with an NDJSON error
// record and aborts the handler (net/http then closes the connection
// instead of completing the chunked response).
func TestQueryPanicMidStreamEndsWithErrorRecord(t *testing.T) {
	logs := captureLog(t)
	cols, rows := fig1Rows(t)
	rec := newRecorder()
	const at = 5000 // well past the first flush
	src := &scriptedRows{rows: rows, n: 2 * at, before: func(i int) {
		if i == at {
			panic("injected row fault")
		}
	}}
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("handler ended with %v, want http.ErrAbortHandler", p)
			}
		}()
		testServer(t).streamNDJSON(rec, cols, src, false, 0)
	}()
	lines := rec.lines()
	if len(lines) != at+2 {
		t.Fatalf("%d lines, want header, %d rows and the error record", len(lines), at)
	}
	if last := lines[len(lines)-1]; last != `{"error":{"message":"internal error","kind":"internal"}}` {
		t.Errorf("last record %q", last)
	}
	if !strings.Contains(logs.String(), "injected row fault") {
		t.Errorf("panic not logged:\n%s", logs.String())
	}
}

// TestExplainPanicIs500: a panic while /explain plans a join answers 500
// with a JSON error, logs the stack under the /explain route, and leaves
// the server serving.
func TestExplainPanicIs500(t *testing.T) {
	logs := captureLog(t)
	catalog := gql.NewCatalog()
	if err := catalog.Register("bad", statsPanicStore{gpml.Snapshot(gpml.Fig1())}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"query":"MATCH (x:Account)-[:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City)"}`
	resp, err := http.Post(srv.URL+"/explain", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]errorBody
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || got["error"].Kind != "internal" {
		t.Fatalf("status %d, body %+v (%v), want 500 with an internal error", resp.StatusCode, got, err)
	}
	if l := logs.String(); !strings.Contains(l, "panic serving /explain: injected LabelStats fault") || !strings.Contains(l, "goroutine") {
		t.Errorf("panic not logged with its stack:\n%s", l)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: %d", resp.StatusCode)
	}
}

// TestStatsPanicIs500: a panic while /stats gathers its counters answers
// 500 with a JSON error, logs the stack under the /stats route, and leaves
// the server serving.
func TestStatsPanicIs500(t *testing.T) {
	logs := captureLog(t)
	catalog := gql.NewCatalog()
	if err := catalog.Register("fig1", gpml.Fig1()); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog, Durability: panicDurability{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]errorBody
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || got["error"].Kind != "internal" {
		t.Fatalf("status %d, body %+v (%v), want 500 with an internal error", resp.StatusCode, got, err)
	}
	if l := logs.String(); !strings.Contains(l, "panic serving /stats: injected DurabilityStats fault") || !strings.Contains(l, "goroutine") {
		t.Errorf("panic not logged with its stack:\n%s", l)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: %d", resp.StatusCode)
	}
}
