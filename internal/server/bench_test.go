package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/gql"
	"gpml/internal/normalize"
	"gpml/internal/qcache"
	"gpml/internal/server"
)

// benchServer boots an in-process HTTP server over the fig1 snapshot.
func benchServer(b *testing.B, cfg server.Config) *httptest.Server {
	b.Helper()
	if cfg.Catalog == nil {
		catalog := gql.NewCatalog()
		if err := catalog.Register("fig1", gpml.Snapshot(gpml.Fig1())); err != nil {
			b.Fatal(err)
		}
		cfg.Catalog = catalog
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts
}

// benchPost issues one /query request, drains the NDJSON stream, and
// returns the wall-clock time from send to the second stream line (the
// first row, or the trailer on empty results).
func benchPost(b *testing.B, url string, body map[string]any) time.Duration {
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		b.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := br.ReadBytes('\n'); err != nil {
			b.Fatalf("stream line %d: %v", i, err)
		}
	}
	firstRow := time.Since(start)
	if _, err := io.Copy(io.Discard, br); err != nil {
		b.Fatal(err)
	}
	return firstRow
}

// BenchmarkServerPreparedThroughput measures the serving fast path: the
// same parameterized query on every request, so after the first request
// each prepare is a plan-cache hit and only binding and evaluation run.
func BenchmarkServerPreparedThroughput(b *testing.B) {
	ts := benchServer(b, server.Config{})
	blocked := []string{"no", "yes"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, map[string]any{
			"query":  `MATCH (x:Account WHERE x.isBlocked = $b)`,
			"params": map[string]any{"b": blocked[i%2]},
		})
	}
}

// BenchmarkServerUnpreparedRecompile is the baseline the plan cache
// exists to beat: each request carries a distinct literal, so the
// normalized key never repeats and every prepare recompiles from text.
func BenchmarkServerUnpreparedRecompile(b *testing.B) {
	ts := benchServer(b, server.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL, map[string]any{
			"query": fmt.Sprintf(
				`MATCH (x:Account WHERE x.isBlocked = 'no' AND x.owner <> 'nobody%d')`, i),
		})
	}
}

// BenchmarkServerFirstRowLatency reports time-to-first-row over HTTP as
// a dedicated metric: header flush plus the first evaluated row, on the
// cache-hit path.
func BenchmarkServerFirstRowLatency(b *testing.B) {
	ts := benchServer(b, server.Config{})
	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += benchPost(b, ts.URL, map[string]any{
			"query":  `MATCH (x:Account WHERE x.isBlocked = $b)`,
			"params": map[string]any{"b": "no"},
		})
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "first-row-ns")
}

const cacheBenchQuery = `MATCH (x:Account WHERE x.isBlocked = $b AND x.owner = $o)`

// BenchmarkPlanCacheHit isolates the prepare step on a warm cache:
// normalize the text to its key and fetch the compiled plan.
func BenchmarkPlanCacheHit(b *testing.B) {
	cache := qcache.New(16)
	key, err := normalize.QueryKey(cacheBenchQuery)
	if err != nil {
		b.Fatal(err)
	}
	cache.Put(key, gpml.MustCompile(cacheBenchQuery))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := normalize.QueryKey(cacheBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := cache.Get(k); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkPlanCacheRecompile is the cold path the hit path is gated
// against: full lex, parse, normalize, and analyze on every prepare.
func BenchmarkPlanCacheRecompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gpml.Compile(cacheBenchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCacheHitAtLeastTwiceRecompile pins the serving-path speed bar:
// preparing through the plan cache must be at least 2x faster than
// recompiling the same text. Wall-clock assertions are too noisy for
// every `go test` run (laptops, -race, loaded runners), so the gate
// only arms when GPML_TIMING_GATES=1 — the CI server smoke job sets it.
func TestCacheHitAtLeastTwiceRecompile(t *testing.T) {
	if os.Getenv("GPML_TIMING_GATES") != "1" {
		t.Skip("set GPML_TIMING_GATES=1 to run wall-clock gates")
	}
	const iters = 2000
	cache := qcache.New(16)
	key, err := normalize.QueryKey(cacheBenchQuery)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, gpml.MustCompile(cacheBenchQuery))

	// Best-of-three per side to shed scheduler noise.
	measure := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 3; round++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	hit := measure(func() {
		k, err := normalize.QueryKey(cacheBenchQuery)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(k); !ok {
			t.Fatal("unexpected miss")
		}
	})
	recompile := measure(func() {
		if _, err := gpml.Compile(cacheBenchQuery); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cache hit %v, recompile %v (%.1fx)", hit, recompile, float64(recompile)/float64(hit))
	if recompile < 2*hit {
		t.Errorf("cache hit path is only %.2fx faster than recompile, want >= 2x (hit %v, recompile %v)",
			float64(recompile)/float64(hit), hit, recompile)
	}
}

// discardFlusher is a ResponseWriter that counts the records it is given
// and drops them: the handler timed with no transport under it.
type discardFlusher struct {
	header  http.Header
	records int
}

func (w *discardFlusher) Header() http.Header { return w.header }
func (w *discardFlusher) WriteHeader(int)     {}
func (w *discardFlusher) Flush()              {}
func (w *discardFlusher) Write(b []byte) (int, error) {
	w.records += bytes.Count(b, []byte{'\n'})
	return len(b), nil
}

// streamBenchShapes are the two single-pattern answers of ≥ 10k rows the
// row path is measured and pinned on: a flat chain (every cell an element
// id) and a quantified pattern (one group cell per row). maxAllocs is
// TestRowPathAllocs' ceiling per streamed row (measured 5.1 and 7.0;
// before the append encoder and one-allocation row assembly, 17.2 and
// 22.1): room for toolchain differences, not for one more allocation.
var streamBenchShapes = []struct {
	name, body string
	maxAllocs  float64
}{
	{"colikers", `{"query":"MATCH (a:Person WHERE a.country < $c)-[:likes]->(m:Post)<-[:likes]-(b:Person)","params":{"c":"country2"}}`, 6},
	{"hub", `{"query":"MATCH (a:Person WHERE a.firstName=$name)-[k:knows]-{1,2}(b:Person)","params":{"name":"p0"}}`, 8},
}

// snbHandler serves an SNB SF 0.1 snapshot in-process.
func snbHandler(tb testing.TB) http.Handler {
	tb.Helper()
	catalog := gql.NewCatalog()
	g := dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.1, Seed: 42})
	if err := catalog.Register("snb", gpml.Snapshot(g)); err != nil {
		tb.Fatal(err)
	}
	srv, err := server.New(server.Config{Catalog: catalog})
	if err != nil {
		tb.Fatal(err)
	}
	return srv.Handler()
}

// streamOnce runs one /query through the handler on a discarding writer
// and returns the number of row records streamed (header and trailer
// excluded).
func streamOnce(h http.Handler, body string) int {
	w := &discardFlusher{header: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return w.records - 2
}

// BenchmarkStreamNDJSON measures the result path alone — cursor pull, row
// assembly, NDJSON encoding, flush policy — with the /query handler called
// in-process on a discarding writer, per streamed row.
func BenchmarkStreamNDJSON(b *testing.B) {
	h := snbHandler(b)
	for _, shape := range streamBenchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rows := streamOnce(h, shape.body)
			if rows < 10_000 {
				b.Fatalf("answer has %d rows, want >= 10000", rows)
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := streamOnce(h, shape.body); got != rows {
					b.Fatalf("streamed %d rows, want %d", got, rows)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			total := float64(rows) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/row")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/total, "B/row")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/total, "allocs/row")
		})
	}
}

// TestRowPathAllocs pins what one streamed row of a single-pattern answer
// allocates, end to end through the handler.
func TestRowPathAllocs(t *testing.T) {
	h := snbHandler(t)
	for _, shape := range streamBenchShapes {
		rows := streamOnce(h, shape.body) // warms the plan cache
		if rows < 10_000 {
			t.Fatalf("%s: answer has %d rows, want >= 10000", shape.name, rows)
		}
		perRow := testing.AllocsPerRun(3, func() { streamOnce(h, shape.body) }) / float64(rows)
		t.Logf("%s: %.2f allocs/row over %d rows", shape.name, perRow, rows)
		if perRow > shape.maxAllocs {
			t.Errorf("%s: %.2f allocs per streamed row, want <= %v", shape.name, perRow, shape.maxAllocs)
		}
	}
}
