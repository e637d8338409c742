package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpml"
	"gpml/internal/gql"
	"gpml/internal/graph"
)

// oracleRow is the encoder the append path replaced, kept as the reference
// it must match byte for byte.
func oracleRow(t testing.TB, cells []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string][]string{"row": cells}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileStrings cover every class json.Encoder treats specially.
var hostileStrings = []string{
	"", "NULL", "plain", `quo"te`, `back\slash`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029end", "bad\xffutf8\xc3", "\xe2\x80", "ok\ufffdrune",
	"[a,b]", "path(a1,t1,a2)", "héllo wörld ✓ 🎉", `{"row":["x"]}`,
}

func TestNDJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range hostileStrings {
		want := oracleRow(t, []string{s})
		got := append(appendJSONString([]byte(`{"row":[`), []byte(s)), "]}\n"...)
		if !bytes.Equal(got, want) {
			t.Errorf("%q:\n got %s want %s", s, got, want)
		}
	}
}

// FuzzNDJSONString holds the escaper to json.Encoder on arbitrary bytes,
// seeded from the conformance corpus: every result cell of every golden
// (ids, group and path renderings) and Figure 1's ids and string
// properties.
func FuzzNDJSONString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.txt"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no conformance cases (err=%v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, table, _ := strings.Cut(string(raw), "-- result --")
		for _, cell := range strings.FieldsFunc(table, func(r rune) bool { return r == '|' || r == '\n' }) {
			f.Add(strings.TrimSpace(cell))
		}
	}
	g := gpml.Fig1()
	addProps := func(props map[string]gpml.Value) {
		for _, v := range props {
			f.Add(v.String())
		}
	}
	g.Nodes(func(n *graph.Node) bool { f.Add(string(n.ID)); addProps(n.Props); return true })
	g.Edges(func(e *graph.Edge) bool { f.Add(string(e.ID)); addProps(e.Props); return true })

	f.Fuzz(func(t *testing.T, s string) {
		want := oracleRow(t, []string{s})
		got := append(appendJSONString([]byte(`{"row":[`), []byte(s)), "]}\n"...)
		if !bytes.Equal(got, want) {
			t.Errorf("%q:\n got %s want %s", s, got, want)
		}
	})
}

// recorder is a ResponseWriter that keeps every Write with its arrival
// time; failAt > 0 makes that Write (1-based) and all later ones fail.
type recorder struct {
	mu      sync.Mutex
	header  http.Header
	writes  [][]byte
	at      []time.Time
	flushes int
	failAt  int
	onFail  func()
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(int)     {}
func (r *recorder) Flush() {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
}

func (r *recorder) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failAt > 0 && len(r.writes)+1 >= r.failAt {
		if r.onFail != nil {
			r.onFail()
			r.onFail = nil
		}
		return 0, errors.New("recorder: connection lost")
	}
	r.writes = append(r.writes, append([]byte(nil), b...))
	r.at = append(r.at, time.Now())
	return len(b), nil
}

// lines returns the records on the wire so far.
func (r *recorder) lines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	all := string(bytes.Join(r.writes, nil))
	if all == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(all, "\n"), "\n")
}

// scriptedRows replays real rows (cycled) as a producer whose pace and
// ending the test controls: before(i) runs on the pulling goroutine just
// before row i (0-based) is handed out.
type scriptedRows struct {
	rows   []*gpml.Row
	n      int
	before func(i int)
	endErr error

	mu     sync.Mutex
	pulled int
	closed bool
}

func (s *scriptedRows) Next() bool {
	s.mu.Lock()
	i, closed := s.pulled, s.closed
	s.mu.Unlock()
	if closed || i >= s.n {
		return false
	}
	if s.before != nil {
		s.before(i)
	}
	s.mu.Lock()
	s.pulled++
	s.mu.Unlock()
	return true
}

func (s *scriptedRows) Row() *gpml.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows[(s.pulled-1)%len(s.rows)]
}

func (s *scriptedRows) Err() error { return s.endErr }

func (s *scriptedRows) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

func (s *scriptedRows) state() (pulled int, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pulled, s.closed
}

// fig1Rows materializes a small real answer to replay.
func fig1Rows(t *testing.T) (cols []string, rows []*gpml.Row) {
	t.Helper()
	q := gpml.MustCompile(`MATCH (x:Account)-[t:Transfer]->(y:Account)`)
	rs, err := q.Stream(context.Background(), gpml.Snapshot(gpml.Fig1()))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for rs.Next() {
		rows = append(rows, rs.Row().Clone()) // Row is borrowed until the next Next
	}
	if err := rs.Err(); err != nil || len(rows) == 0 {
		t.Fatalf("fig1 rows: %d, err %v", len(rows), err)
	}
	return q.Columns(), rows
}

func testServer(t *testing.T) *Server {
	t.Helper()
	catalog := gql.NewCatalog()
	if err := catalog.Register("fig1", gpml.Snapshot(gpml.Fig1())); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitFor polls cond for up to a second.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// staleMargin is flushDelay with a generous allowance for loaded CI.
const staleMargin = 50 * time.Millisecond

func TestFlushFirstRowBeforeSecondPull(t *testing.T) {
	cols, rows := fig1Rows(t)
	rec := newRecorder()
	var atSecondPull []string
	src := &scriptedRows{rows: rows, n: 3, before: func(i int) {
		if i == 1 {
			atSecondPull = rec.lines()
		}
	}}
	testServer(t).streamNDJSON(rec, cols, src, false, 0)
	if len(atSecondPull) != 2 || !strings.HasPrefix(atSecondPull[0], `{"columns"`) || !strings.HasPrefix(atSecondPull[1], `{"row"`) {
		t.Fatalf("on the wire when the second row was pulled: %q, want header and first row", atSecondPull)
	}
	if got := rec.lines(); len(got) != 5 || got[4] != `{"rows":3}` {
		t.Fatalf("full stream: %q", got)
	}
	// Header+row 1, then rows 2-3 with the trailer: a short answer is two
	// writes (a third only if the producer dawdled past flushDelay).
	if n := len(rec.writes); n < 2 || n > 3 {
		t.Errorf("%d writes for a 3-row answer, want 2 (3 at most)", n)
	}
}

func TestFlushStalledProducerBoundsStaleness(t *testing.T) {
	cols, rows := fig1Rows(t)
	rec := newRecorder()
	var waited time.Duration
	var seen bool
	src := &scriptedRows{rows: rows, n: 3, before: func(i int) {
		if i != 2 {
			return
		}
		// Row 2 (the second) is encoded and pending; the producer now
		// stalls. The row must reach the wire on the timer alone.
		start := time.Now()
		seen = waitFor(func() bool { return len(rec.lines()) >= 3 })
		waited = time.Since(start)
	}}
	testServer(t).streamNDJSON(rec, cols, src, false, 0)
	if !seen {
		t.Fatalf("second row never reached the wire while the producer stalled; wire: %q", rec.lines())
	}
	if waited > staleMargin {
		t.Errorf("second row waited %v for a stalled producer, want <= %v (flushDelay %v)", waited, staleMargin, flushDelay)
	}
}

func TestFlushHeaderAloneBoundsStaleness(t *testing.T) {
	cols, rows := fig1Rows(t)
	rec := newRecorder()
	var seen bool
	src := &scriptedRows{rows: rows, n: 1, before: func(int) {
		seen = waitFor(func() bool { return len(rec.lines()) >= 1 })
	}}
	testServer(t).streamNDJSON(rec, cols, src, true, 0)
	if !seen {
		t.Fatal("header never reached the wire while the first row was slow")
	}
	if got := rec.lines(); len(got) != 3 || !strings.Contains(got[0], `"cached":true`) {
		t.Fatalf("stream: %q", got)
	}
}

func TestFlushCoalescesFastStream(t *testing.T) {
	cols, rows := fig1Rows(t)
	rec := newRecorder()
	s := testServer(t)
	const n = 10_000
	s.streamNDJSON(rec, cols, &scriptedRows{rows: rows, n: n}, false, 0)
	lines := rec.lines()
	if len(lines) != n+2 || lines[n+1] != `{"rows":10000}` {
		t.Fatalf("%d lines, trailer %q", len(lines), lines[len(lines)-1])
	}
	if rec.flushes > n/100 || len(rec.writes) != rec.flushes {
		t.Errorf("%d flushes / %d writes for %d rows, want <= %d and one flush per write", rec.flushes, len(rec.writes), n, n/100)
	}
	if got := s.rows.Load(); got != n {
		t.Errorf("server row counter %d, want %d", got, n)
	}
	for i, w := range rec.writes {
		if len(w) > flushBytes+256 {
			t.Errorf("write %d is %d bytes, want about flushBytes (%d) at most", i, len(w), flushBytes)
		}
	}
}

func TestFlushWriteErrorStopsPulling(t *testing.T) {
	cols, rows := fig1Rows(t)
	t.Run("handler-side", func(t *testing.T) {
		rec := newRecorder()
		src := &scriptedRows{rows: rows, n: 100_000}
		pulledAtFail := -1
		rec.failAt, rec.onFail = 2, func() { pulledAtFail, _ = src.state() }
		testServer(t).streamNDJSON(rec, cols, src, false, 0)
		pulled, closed := src.state()
		if pulledAtFail < 0 || pulled > pulledAtFail+1 {
			t.Errorf("pulled %d rows, write failed at %d: want at most one more", pulled, pulledAtFail)
		}
		if !closed {
			t.Error("rows not closed after the write error")
		}
		if len(rec.writes) != 1 {
			t.Errorf("%d writes landed, want only the one before the failure", len(rec.writes))
		}
	})
	t.Run("timer-side", func(t *testing.T) {
		rec := newRecorder()
		failed := make(chan struct{})
		src := &scriptedRows{rows: rows, n: 100_000}
		pulledAtFail := -1
		rec.failAt, rec.onFail = 2, func() { pulledAtFail, _ = src.state(); close(failed) }
		src.before = func(i int) {
			if i == 2 { // row 2 is pending: stall until the timer's write fails
				select {
				case <-failed:
				case <-time.After(time.Second):
				}
			}
		}
		testServer(t).streamNDJSON(rec, cols, src, false, 0)
		pulled, closed := src.state()
		if pulledAtFail < 0 || pulled > pulledAtFail+1 {
			t.Errorf("pulled %d rows, write failed at %d: want at most one more", pulled, pulledAtFail)
		}
		if !closed {
			t.Error("rows not closed after the write error")
		}
	})
}

func TestStreamCutEndsInOneErrorRecord(t *testing.T) {
	cols, rows := fig1Rows(t)
	cases := []struct {
		name   string
		endErr error
		kind   string
	}{
		{"cursor-deadline", context.DeadlineExceeded, "deadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := newRecorder()
			const n = 1500 // more than one buffer, the last one part full
			testServer(t).streamNDJSON(rec, cols, &scriptedRows{rows: rows, n: n, endErr: tc.endErr}, false, 0)
			lines := rec.lines()
			if len(lines) != n+2 {
				t.Fatalf("%d records, want header + %d rows + 1 error", len(lines), n)
			}
			for i, l := range lines {
				var v map[string]json.RawMessage
				if err := json.Unmarshal([]byte(l), &v); err != nil {
					t.Fatalf("record %d is not well-formed JSON: %q", i, l)
				}
				_, isErr := v["error"]
				if isErr != (i == n+1) {
					t.Fatalf("record %d: %q; want the error record last and only there", i, l)
				}
			}
			if !strings.Contains(lines[n+1], `"kind":"`+tc.kind+`"`) {
				t.Errorf("error record %q, want kind %s", lines[n+1], tc.kind)
			}
		})
	}
}

// TestStreamMatchesOracleOnHostileIDs streams real answers over a graph
// whose element ids are the hostile strings — node, edge, group, path and
// NULL cells, several per row — and holds every row record to the old
// encoder's bytes.
func TestStreamMatchesOracleOnHostileIDs(t *testing.T) {
	b := gpml.NewBuilder()
	for i, id := range hostileStrings {
		b.Node(id, []string{"N"})
		if i > 0 {
			b.Edge("e:"+id, hostileStrings[i-1], id, []string{"E"})
		}
	}
	st := gpml.Snapshot(b.MustBuild())
	for _, query := range []string{
		`MATCH (x:N)`,
		`MATCH (x:N)-[e:E]->(y:N)`,
		`MATCH p = (x:N)-[e:E]->{1,2}(y:N)`,
		`MATCH (x:N) [-[e:E]->(y:N)]?`,
	} {
		q, err := gpml.Compile(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		cols := q.Columns()
		var want [][]byte
		if err := q.ForEach(context.Background(), st, func(row *gpml.Row) error {
			cells := make([]string, len(cols))
			for i, c := range cols {
				cells[i] = "NULL"
				if b, ok := row.Get(c); ok {
					cells[i] = b.String()
				}
			}
			want = append(want, oracleRow(t, cells))
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		rows, err := q.Stream(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		testServer(t).streamNDJSON(rec, cols, rows, false, 0)
		got := bytes.SplitAfter(bytes.Join(rec.writes, nil), []byte("\n"))
		if len(want) == 0 || len(got) != len(want)+3 { // header, trailer, empty tail
			t.Fatalf("%s: %d records for %d rows", query, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i+1], want[i]) {
				t.Errorf("%s row %d:\n got %s want %s", query, i, got[i+1], want[i])
			}
		}
	}
}
