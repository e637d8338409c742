package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/gql"
	"gpml/internal/graph"
	"gpml/internal/server"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Catalog == nil {
		catalog := gql.NewCatalog()
		if err := catalog.Register("fig1", gpml.Snapshot(gpml.Fig1())); err != nil {
			t.Fatal(err)
		}
		cfg.Catalog = catalog
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// ndjsonResult is a decoded /query stream.
type ndjsonResult struct {
	columns []string
	cached  bool
	rows    [][]string
	total   int
	trunc   bool
	errKind string
	errMsg  string
	diag    string
}

func postQuery(t *testing.T, url string, body map[string]any) (int, *ndjsonResult) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res := &ndjsonResult{}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error struct {
				Message, Kind, Diagnostic string
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with undecodable body: %v", resp.StatusCode, err)
		}
		res.errKind, res.errMsg, res.diag = e.Error.Kind, e.Error.Message, e.Error.Diagnostic
		return resp.StatusCode, res
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			var h struct {
				Columns []string `json:"columns"`
				Cached  bool     `json:"cached"`
			}
			if err := json.Unmarshal(line, &h); err != nil {
				t.Fatalf("header: %v in %s", err, line)
			}
			res.columns, res.cached = h.Columns, h.Cached
			first = false
			continue
		}
		var rec struct {
			Row   []string `json:"row"`
			Rows  *int     `json:"rows"`
			Trunc bool     `json:"truncated"`
			Error *struct {
				Message, Kind string
			} `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record: %v in %s", err, line)
		}
		switch {
		case rec.Error != nil:
			res.errKind, res.errMsg = rec.Error.Kind, rec.Error.Message
		case rec.Rows != nil:
			res.total, res.trunc = *rec.Rows, rec.Trunc
		default:
			res.rows = append(res.rows, rec.Row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, res
}

func TestServeQueryMatchesInProcessStream(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	query := `MATCH (x:Account)-[t:Transfer]->(y:Account)`
	status, res := postQuery(t, ts.URL, map[string]any{"query": query, "gql": true})
	if status != 200 {
		t.Fatalf("status %d: %s", status, res.errMsg)
	}
	if res.errKind != "" {
		t.Fatalf("stream error: %s %s", res.errKind, res.errMsg)
	}
	// In-process reference: same store type, same streaming order.
	q := gpml.MustCompile(query, gpml.GQLMode())
	rows, err := q.Stream(nil, gpml.Snapshot(gpml.Fig1()))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var want [][]string
	for rows.Next() {
		row := rows.Row()
		cells := make([]string, len(res.columns))
		for i, c := range res.columns {
			if b, ok := row.Get(c); ok {
				cells[i] = b.String()
			} else {
				cells[i] = "NULL"
			}
		}
		want = append(want, cells)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.rows) != len(want) || res.total != len(want) {
		t.Fatalf("HTTP returned %d rows (trailer %d), in-process %d", len(res.rows), res.total, len(want))
	}
	for i := range want {
		if strings.Join(res.rows[i], "|") != strings.Join(want[i], "|") {
			t.Fatalf("row %d diverges: HTTP %v, in-process %v", i, res.rows[i], want[i])
		}
	}
}

// Repeated parameterized sends of one statement must hit the plan cache:
// >90% hit ratio and cached:true from the second request on.
func TestPlanCacheHitRatio(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	query := `MATCH (x:Account WHERE x.isBlocked = $blocked)`
	variants := []string{
		query,
		"  MATCH (x:Account WHERE x.isBlocked = $blocked)",
		"match (x:Account where x.isBlocked = $blocked) // resend",
	}
	for i := 0; i < 60; i++ {
		blocked := "no"
		if i%3 == 0 {
			blocked = "yes"
		}
		status, res := postQuery(t, ts.URL, map[string]any{
			"query":  variants[i%len(variants)],
			"gql":    true,
			"params": map[string]any{"blocked": blocked},
		})
		if status != 200 || res.errKind != "" {
			t.Fatalf("request %d: status %d, err %s %s", i, status, res.errKind, res.errMsg)
		}
		if i > 0 && !res.cached {
			t.Errorf("request %d missed the cache despite tokenizing identically", i)
		}
	}
	st := srv.Cache().Stats()
	if ratio := st.HitRatio(); ratio <= 0.9 {
		t.Fatalf("hit ratio %.2f (hits %d, misses %d), want > 0.9", ratio, st.Hits, st.Misses)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (all variants share one key)", st.Misses)
	}
}

func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	// Parse error: 400, positioned, caret diagnostic pointing into the
	// submitted source.
	status, res := postQuery(t, ts.URL, map[string]any{"query": "MATCH (a)-[e->(b)"})
	if status != http.StatusBadRequest || res.errKind != "compile" {
		t.Fatalf("parse error: status %d kind %q", status, res.errKind)
	}
	if !strings.Contains(res.diag, "^") || !strings.Contains(res.diag, "MATCH (a)-[e->(b)") {
		t.Errorf("parse error diagnostic missing caret/source:\n%s", res.diag)
	}

	// Bind error: used placeholder without a value.
	status, res = postQuery(t, ts.URL, map[string]any{
		"query": `MATCH (x:Account WHERE x.isBlocked = $b)`,
	})
	if status != http.StatusBadRequest || res.errKind != "bind" {
		t.Fatalf("bind error: status %d kind %q (%s)", status, res.errKind, res.errMsg)
	}
	if !strings.Contains(res.errMsg, "$b") {
		t.Errorf("bind error message should name the parameter: %s", res.errMsg)
	}

	// Unknown graph: 404.
	status, res = postQuery(t, ts.URL, map[string]any{"query": "MATCH (x)", "graph": "nope"})
	if status != http.StatusNotFound || res.errKind != "not_found" {
		t.Fatalf("unknown graph: status %d kind %q", status, res.errKind)
	}

	// Unsupported param type: 400 before evaluation.
	status, res = postQuery(t, ts.URL, map[string]any{
		"query":  `MATCH (x:Account WHERE x.isBlocked = $b)`,
		"params": map[string]any{"b": []int{1, 2}},
	})
	if status != http.StatusBadRequest || res.errKind != "bad_request" {
		t.Fatalf("bad param type: status %d kind %q", status, res.errKind)
	}
}

func TestRowLimitTruncation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	status, res := postQuery(t, ts.URL, map[string]any{
		"query": `MATCH (x:Account)-[t:Transfer]->(y:Account)`,
		"gql":   true,
		"limit": 2,
	})
	if status != 200 || res.errKind != "" {
		t.Fatalf("status %d err %s", status, res.errKind)
	}
	if len(res.rows) != 2 || !res.trunc {
		t.Fatalf("rows %d truncated %v, want 2/true", len(res.rows), res.trunc)
	}
}

// A deadline expiring mid-stream surfaces as a terminal NDJSON error
// record with kind "deadline" — the stream already committed status 200.
func TestDeadlineMidStream(t *testing.T) {
	catalog := gql.NewCatalog()
	big := dataset.Random(dataset.RandomConfig{
		Accounts: 800, AvgDegree: 4, Cities: 8, Phones: 20,
		BlockedFraction: 0.1, Seed: 7, UndirectedPhones: true,
	})
	if err := catalog.Register("big", gpml.Snapshot(big)); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Catalog: catalog})
	status, res := postQuery(t, ts.URL, map[string]any{
		"query":      `MATCH TRAIL (x:Account)-[t:Transfer]->+(y:Account)`,
		"gql":        true,
		"timeout_ms": 50,
	})
	if status != 200 {
		t.Fatalf("status %d (deadline should fire mid-stream, after 200)", status)
	}
	if res.errKind != "deadline" {
		t.Fatalf("terminal record kind %q msg %q, want deadline", res.errKind, res.errMsg)
	}
}

// nodeOnlyServer serves a graph of n nodes and no edges, on which
// MATCH (a), (b) streams n*n rows without one edge expansion.
func nodeOnlyServer(t *testing.T, n int, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("n%d", i), []string{"Account"})
	}
	catalog := gql.NewCatalog()
	if err := catalog.Register("nodes", gpml.Snapshot(b.MustBuild())); err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = catalog
	return newTestServer(t, cfg)
}

// streamEndKind posts a query and reads its NDJSON stream without keeping
// the rows, calling afterFirstRow (if any) once the first row arrives. It
// returns the terminal record's error kind ("" for a trailer) and fails
// once maxRows rows have streamed, so a stream nothing cuts cannot hold
// the test for its whole answer.
func streamEndKind(t *testing.T, url string, body map[string]any, afterFirstRow func(), maxRows int) string {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := -1 // the header is not a row
	var last []byte
	for sc.Scan() {
		last = sc.Bytes()
		if rows++; rows == 1 && afterFirstRow != nil {
			afterFirstRow()
		}
		if rows > maxRows {
			t.Fatalf("still streaming after %d rows; the stream was not cut", maxRows)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Error *struct{ Kind string } `json:"error"`
	}
	if err := json.Unmarshal(last, &rec); err != nil {
		t.Fatalf("terminal record: %v in %s", err, last)
	}
	if rec.Error == nil {
		return ""
	}
	return rec.Error.Kind
}

// A node-only cross product expands no edge, so no engine polls its
// context: the pattern sources and join steps must, or a deadline would
// let its 10^8 rows stream on. The cut is a terminal "deadline" record.
func TestDeadlineCutsNodeOnlyStream(t *testing.T) {
	_, ts := nodeOnlyServer(t, 10000, server.Config{})
	kind := streamEndKind(t, ts.URL, map[string]any{
		"query":      `MATCH (a), (b)`,
		"gql":        true,
		"timeout_ms": 50,
	}, nil, 5_000_000)
	if kind != "deadline" {
		t.Fatalf("terminal record kind %q, want deadline", kind)
	}
}

// Abort cuts the same stream with a terminal "canceled" record, so a
// drain that gives up does not wait for a node-only answer to finish.
func TestAbortCutsNodeOnlyStream(t *testing.T) {
	srv, ts := nodeOnlyServer(t, 10000, server.Config{})
	kind := streamEndKind(t, ts.URL, map[string]any{
		"query": `MATCH (a), (b)`,
		"gql":   true,
	}, srv.Abort, 5_000_000)
	if kind != "canceled" {
		t.Fatalf("terminal record kind %q, want canceled", kind)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{})
	if _, res := postQuery(t, ts.URL, map[string]any{"query": "MATCH (x:Account)"}); res.errKind != "" {
		t.Fatalf("warmup query failed: %s", res.errMsg)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache    struct{ Hits, Misses uint64 }
		Queries  uint64
		Rows     uint64
		Graphs   []string
		Draining bool
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Queries != 1 || stats.Graphs[0] != "fig1" || stats.Draining {
		t.Fatalf("stats: %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d before drain", resp.StatusCode)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d while draining, want 503", resp.StatusCode)
	}
	if status, res := postQuery(t, ts.URL, map[string]any{"query": "MATCH (x)"}); status != http.StatusServiceUnavailable || res.errKind != "unavailable" {
		t.Fatalf("draining /query: status %d kind %q", status, res.errKind)
	}
}

// The serving smoke scenario: concurrent parameterized queries against a
// live overlay store while a writer publishes epochs. Run under -race in
// CI. Readers must never observe an error: each query pins one epoch,
// and compiled plans survive ordinary publishes — the invalidation hook
// is reserved for store-identity changes (recovery, store swap), so the
// writer does NOT call it here and the hit ratio stays high.
func TestConcurrentQueriesWithWriter(t *testing.T) {
	ov := gpml.NewOverlay(gpml.Fig1())
	catalog := gql.NewCatalog()
	if err := catalog.Register("live", ov); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, server.Config{Catalog: catalog, MaxConcurrent: 4})

	const readers, perReader, writes = 6, 25, 40
	var wg sync.WaitGroup
	errc := make(chan error, readers*perReader+writes)

	wg.Add(1)
	go func() { // background writer: grow the graph, publish epochs
		defer wg.Done()
		for i := 0; i < writes; i++ {
			id := fmt.Sprintf("w%d", i)
			b := ov.Begin().
				AddNode(gpml.NodeID(id), []string{"Account"}, map[string]gpml.Value{"isBlocked": gpml.Str("no")}).
				AddEdge(gpml.EdgeID("e"+id), gpml.NodeID(id), "a1", []string{"Transfer"}, map[string]gpml.Value{"amount": gpml.Int(int64(i))})
			if err := ov.Apply(b); err != nil {
				errc <- fmt.Errorf("apply %d: %w", i, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				blocked := "no"
				if (r+i)%2 == 0 {
					blocked = "yes"
				}
				status, res := postQuery(t, ts.URL, map[string]any{
					"query":  `MATCH (x:Account WHERE x.isBlocked = $blocked)-[t:Transfer]->(y:Account)`,
					"gql":    true,
					"params": map[string]any{"blocked": blocked},
				})
				if status != 200 {
					errc <- fmt.Errorf("reader %d req %d: status %d %s", r, i, status, res.errMsg)
					return
				}
				if res.errKind != "" {
					errc <- fmt.Errorf("reader %d req %d: stream error %s %s", r, i, res.errKind, res.errMsg)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := srv.Cache().Stats()
	if st.HitRatio() <= 0.9 {
		t.Errorf("hit ratio %.2f under concurrency, want > 0.9", st.HitRatio())
	}
}

// blockingStore gates full-scan enumeration behind a channel so tests
// can hold evaluation slots occupied deterministically. entered receives
// one token per scan that reached the gate.
type blockingStore struct {
	graph.Store
	entered chan struct{}
	release chan struct{}
}

func (b *blockingStore) Nodes(f func(*graph.Node) bool) {
	b.entered <- struct{}{}
	<-b.release
	b.Store.Nodes(f)
}

func (b *blockingStore) NodesWithLabel(label string, f func(*graph.Node) bool) {
	b.entered <- struct{}{}
	<-b.release
	b.Store.NodesWithLabel(label, f)
}

func getQueueDepth(t *testing.T, url string) int32 {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		QueueDepth int32 `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.QueueDepth
}

// With MaxConcurrent slots full and MaxQueueDepth waiters parked, the
// next arrival must fast-fail 503 with a Retry-After header instead of
// joining the queue; everything admitted still completes once unblocked.
func TestAdmissionQueueBound(t *testing.T) {
	bs := &blockingStore{
		Store:   gpml.Snapshot(gpml.Fig1()),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	catalog := gql.NewCatalog()
	if err := catalog.Register("slow", bs); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, server.Config{Catalog: catalog, MaxConcurrent: 2, MaxQueueDepth: 2})

	raw, err := json.Marshal(map[string]any{"query": "MATCH (x:Account)"})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, error) {
		return http.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	}
	statuses := make(chan int, 4)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := post()
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	for i := 0; i < 2; i++ { // both hold slots, blocked inside the scan
		<-bs.entered
	}
	for i := 0; i < 2; i++ { // two more park in the admission queue
		go func() {
			resp, err := post()
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for getQueueDepth(t, ts.URL) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached 2 (now %d)", getQueueDepth(t, ts.URL))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Fifth arrival: queue is at capacity, must bounce immediately.
	resp, err := post()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var e struct {
		Error struct{ Message, Kind string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e.Error.Kind != "unavailable" || !strings.Contains(e.Error.Message, "queue full") {
		t.Errorf("overflow error = %q %q", e.Error.Kind, e.Error.Message)
	}

	close(bs.release) // let the four admitted requests run to completion
	for i := 0; i < 4; i++ {
		if s := <-statuses; s != http.StatusOK {
			t.Errorf("admitted request finished with status %d", s)
		}
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Rejected   uint64 `json:"rejected"`
		QueueDepth int32  `json:"queue_depth"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Rejected != 1 || stats.QueueDepth != 0 {
		t.Errorf("stats after drain: rejected %d queue %d, want 1/0", stats.Rejected, stats.QueueDepth)
	}
	_ = srv
}

// A StartRecovering server answers 503 "recovering" on /query and
// /healthz until SetReady, then serves normally.
func TestRecoveringGate(t *testing.T) {
	srv, ts := newTestServer(t, server.Config{StartRecovering: true})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "recovering") {
		t.Fatalf("healthz while recovering: %d %q", resp.StatusCode, body)
	}
	status, res := postQuery(t, ts.URL, map[string]any{"query": "MATCH (x:Account)"})
	if status != http.StatusServiceUnavailable || res.errKind != "unavailable" || !strings.Contains(res.errMsg, "recovering") {
		t.Fatalf("query while recovering: %d %q %q", status, res.errKind, res.errMsg)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Recovering bool `json:"recovering"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !stats.Recovering {
		t.Error("stats.recovering = false while not ready")
	}

	srv.SetReady()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after SetReady: %d", resp.StatusCode)
	}
	if status, res := postQuery(t, ts.URL, map[string]any{"query": "MATCH (x:Account)"}); status != http.StatusOK || res.errKind != "" {
		t.Fatalf("query after SetReady: %d %s", status, res.errMsg)
	}
}

// Regression: plans cached against a crash-recovered store must carry the
// recovered (nonzero) epoch tag. If recovery restarted epochs at zero —
// or prepare tagged zero — InvalidateBelow would never retire them and a
// store swap could serve stale plans forever.
func TestPlanCacheEpochAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	ov, err := graph.OpenDurable(graph.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("a%d", i)
		b := ov.Begin().AddNode(gpml.NodeID(id), []string{"Account"}, map[string]gpml.Value{"isBlocked": gpml.Str("no")})
		if err := ov.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ov.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart: the recovered store resumes at the pre-crash epoch.
	ov2, err := graph.OpenDurable(graph.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ov2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer ov2.CloseDurable()
	epoch := graph.StoreEpoch(ov2)
	if epoch == 0 {
		t.Fatal("recovered store reports epoch 0")
	}

	catalog := gql.NewCatalog()
	if err := catalog.Register("live", ov2); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, server.Config{Catalog: catalog})
	q := map[string]any{"query": "MATCH (x:Account)"}
	if status, res := postQuery(t, ts.URL, q); status != http.StatusOK || res.errKind != "" {
		t.Fatalf("query against recovered store: %d %s", status, res.errMsg)
	}

	// The cached plan must be tagged with the recovered epoch: publish a
	// newer one and the invalidation hook must drop exactly that entry.
	b := ov2.Begin().AddNode("fresh", []string{"Account"}, nil)
	if err := ov2.Apply(b); err != nil {
		t.Fatal(err)
	}
	newEpoch := graph.StoreEpoch(ov2)
	if newEpoch <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, newEpoch)
	}
	if n := srv.OnEpochPublished(newEpoch); n != 1 {
		t.Fatalf("InvalidateBelow(%d) dropped %d entries, want 1 (plan should be tagged %d)", newEpoch, n, epoch)
	}
	if _, res := postQuery(t, ts.URL, q); res.cached {
		t.Error("query served from cache after invalidation, want recompile")
	}
	if _, res := postQuery(t, ts.URL, q); !res.cached {
		t.Error("re-sent query missed the cache, want hit on the re-tagged plan")
	}
}
