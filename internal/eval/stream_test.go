package eval

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// streamPattern drains the streaming single-pattern pipeline and restores
// the canonical order, i.e. exactly what MatchPattern returns.
func streamPattern(t *testing.T, s graph.Store, pp *plan.PathPlan, cfg Config) []*binding.Reduced {
	t.Helper()
	sols, err := matchPatternStream(context.Background(), graph.AsStepper(s), pp, cfg, new(binding.Arena))
	if err != nil {
		t.Fatalf("pattern stream: %v", err)
	}
	return sols
}

// TestStreamingPatternDifferential pits the pull-based pattern stream
// (per-seed dedup/selector, incremental emission) against the
// materializing pipeline over the whole match set (materializedMatch, on
// the engine engineFor picks) over the engine-differential query
// battery, on both backends: the §6 pipeline
// must be invisible to streaming. This is the streaming-on/off axis of
// the differential suites.
func TestStreamingPatternDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		dataset.Random(dataset.RandomConfig{Accounts: 14, AvgDegree: 2, Phones: 4, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true}),
		dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 3, Cities: 5, Phones: 8, BlockedFraction: 0.15, Seed: 7, UndirectedPhones: true}),
		dataset.Grid(5, 5),
		dataset.Cycle(9),
		dataset.LaunderingRings(3, 4, 2, 99),
	}
	queries := append([]string{
		// Selector-free patterns exercise the per-solution fast path.
		`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
		`MATCH TRAIL (x:Account)-[t:Transfer]->{1,3}(y:Account)`,
		`MATCH (x) [-[e:Transfer]->(m:Account)]{0,2} (y)`,
	}, diffQueries...)
	for gi, g := range graphs {
		snap := graph.Snapshot(g)
		for _, src := range queries {
			p := compile(t, src, plan.Options{})
			for si, s := range []graph.Store{g, snap} {
				engine, _ := engineFor(p.Paths[0])
				want := materializedMatch(t, s, p.Paths[0], Config{}, engine)
				got := streamPattern(t, s, p.Paths[0], Config{})
				if binding.FormatTable(got) != binding.FormatTable(want) {
					t.Errorf("graph %d store %d %s: streaming diverges\nstream:\n%s\nmaterialized:\n%s",
						gi, si, src, binding.FormatTable(got), binding.FormatTable(want))
				}
			}
		}
	}
}

// TestStreamLimitPrefix pins the LIMIT pushdown contract: Config.Limit k
// returns exactly min(k, total) rows, and the limited result is a subset
// of the full result with per-row content intact (both backends).
func TestStreamLimitPrefix(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 2, Cities: 4, Phones: 6, BlockedFraction: 0.2, Seed: 5, UndirectedPhones: true})
	snap := graph.Snapshot(g)
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City)`,
		`MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->+(b WHERE b.isBlocked='yes')`,
	}
	for _, src := range queries {
		p := compile(t, src, plan.Options{})
		for si, s := range []graph.Store{g, snap} {
			full, err := EvalPlan(s, p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			inFull := map[string]bool{}
			for _, line := range renderResult(full) {
				inFull[line] = true
			}
			for _, k := range []int{0, 1, 3, len(full.Rows), len(full.Rows) + 10} {
				lim, err := EvalPlan(s, p, Config{Limit: k})
				if err != nil {
					t.Fatal(err)
				}
				want := k
				if k == 0 || k > len(full.Rows) {
					want = len(full.Rows)
				}
				if len(lim.Rows) != want {
					t.Errorf("store %d %s limit %d: got %d rows, want %d", si, src, k, len(lim.Rows), want)
				}
				for _, line := range renderResult(lim) {
					if !inFull[line] {
						t.Errorf("store %d %s limit %d: row not in full result: %s", si, src, k, line)
					}
				}
			}
		}
	}
}

// TestStreamCursorEarlyClose exercises abandoning a cursor mid-stream:
// Close must return cleanly, whatever mix of patterns and selectors is in
// flight.
func TestStreamCursorEarlyClose(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 60, AvgDegree: 3, Cities: 6, Phones: 10, BlockedFraction: 0.2, Seed: 13, UndirectedPhones: true})
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City)`,
		`MATCH ALL SHORTEST p = (a:Account)-[:Transfer]->+(b:Account)`,
	}
	for _, src := range queries {
		p := compile(t, src, plan.Options{})
		for _, take := range []int{0, 1, 5} {
			cur, err := StreamPlan(context.Background(), g, p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < take; i++ {
				if _, err := cur.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("%s (take %d): Close: %v", src, take, err)
			}
		}
	}
}

// TestStreamContextCancelMidSearch verifies the engine-level cancellation
// hook: a context cancelled while a large search is in flight surfaces
// the context error promptly — well before the enumeration could finish.
func TestStreamContextCancelMidSearch(t *testing.T) {
	// A dense grid TRAIL enumeration runs effectively forever without
	// cancellation; the poll interval must cut it off in well under a
	// second.
	g := dataset.Grid(7, 7)
	p := compile(t, `MATCH TRAIL (x)-[e:Transfer]->+(y)`, plan.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := StreamPlan(ctx, g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		_, lastErr = cur.Next()
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", lastErr)
	}
	cur.Close()
}

// TestStreamContextCancelWithoutEdgeWork: streams that expand no edge (a
// node-only pattern, a cross product fanned out of a hash step's memo,
// one whose postfilter rejects every row) give the engines nothing to
// poll, so the pattern sources and join steps must poll the context
// themselves. A context cancelled before the first Next surfaces within
// a couple of poll intervals, not after the whole answer.
func TestStreamContextCancelWithoutEdgeWork(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 3000; i++ {
		b.Node(fmt.Sprintf("n%d", i), []string{"Account"}, "owner", "x")
	}
	g := b.MustBuild()
	for _, src := range []string{
		`MATCH (a)`,
		`MATCH (a), (b)`,
		`MATCH (a), (b) WHERE a.owner = 'nobody'`,
	} {
		p := compile(t, src, plan.Options{})
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := StreamPlan(ctx, g, p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		rows := 0
		for ; rows <= 2*cancelCheckInterval; rows++ {
			row, err := cur.Next()
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s: got %v, want context.Canceled", src, err)
				}
				break
			}
			if row == nil {
				t.Errorf("%s: stream ended cleanly after %d rows; want context.Canceled", src, rows)
				break
			}
		}
		if rows > 2*cancelCheckInterval {
			t.Errorf("%s: still streaming after %d rows of a cancelled context", src, rows)
		}
		cur.Close()
	}
}

// TestStreamStagesAnnotation pins the Explain surface: every pattern line
// reports its pipeline stages, selectors are the per-seed blocking stage,
// the sort is flagged blocking, and only a pattern that can produce
// duplicates has a dedup stage, which names why.
func TestStreamStagesAnnotation(t *testing.T) {
	p := compile(t, `MATCH ANY SHORTEST (a:Account)-[:Transfer]->+(b)`, plan.Options{})
	lines := Explain(p)
	if len(lines) != 1 {
		t.Fatalf("want one line, got %v", lines)
	}
	if want := "stages=enumerate→reduce→select ANY SHORTEST[blocking]→sort[blocking]"; !strings.Contains(lines[0], want) {
		t.Errorf("explain line missing %q: %s", want, lines[0])
	}
	union := Explain(compile(t, `MATCH ANY SHORTEST (a:Account) [-[:Transfer]->() | <-[:Transfer]-()]+ (b)`, plan.Options{}))
	if want := "stages=enumerate→reduce→dedup(set union)→select ANY SHORTEST[blocking]→sort[blocking]"; !strings.Contains(union[0], want) {
		t.Errorf("explain line missing %q: %s", want, union[0])
	}
	stages := p.Paths[0].Stages()
	blocking := 0
	for _, st := range stages {
		if st.Blocking {
			blocking++
		}
	}
	if blocking != 2 {
		t.Errorf("want 2 blocking stages (select, sort), got %d in %+v", blocking, stages)
	}
	// Selector-free patterns stream everything but the Eval-only sort.
	p2 := compile(t, `MATCH (a:Account)-[t:Transfer]->(b)`, plan.Options{})
	for _, st := range p2.Paths[0].Stages() {
		if st.Blocking && st.Name != "sort" {
			t.Errorf("selector-free pattern has unexpected blocking stage %+v", st)
		}
	}
}

// TestStreamErrorPropagation: a search-limit error inside an engine run
// must surface through Next, not vanish.
func TestStreamErrorPropagation(t *testing.T) {
	g := dataset.Grid(5, 5)
	p := compile(t, `MATCH TRAIL (x)-[e:Transfer]->+(y)`, plan.Options{})
	cur, err := StreamPlan(context.Background(), g, p, Config{Limits: Limits{MaxMatches: 50}})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		row, err := cur.Next()
		if err != nil {
			lastErr = err
			break
		}
		if row == nil {
			break
		}
	}
	cur.Close()
	var lim *LimitError
	if !errors.As(lastErr, &lim) {
		t.Fatalf("expected LimitError, got %v", lastErr)
	}
}

// TestStreamFirstRowBeforeFullEnumeration is the latency contract: on a
// workload whose full enumeration takes noticeable time, the first row
// must arrive in a small fraction of it.
func TestStreamFirstRowBeforeFullEnumeration(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 2500, AvgDegree: 4, Cities: 10, BlockedFraction: 0.1, Seed: 3})
	p := compile(t, `MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`, plan.Options{})

	t0 := time.Now()
	full, err := EvalPlan(g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fullD := time.Since(t0)

	t0 = time.Now()
	cur, err := StreamPlan(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	row, err := cur.Next()
	firstD := time.Since(t0)
	cur.Close()
	if err != nil || row == nil {
		t.Fatalf("first row: %v %v", row, err)
	}
	if len(full.Rows) < 10_000 {
		t.Skipf("workload too small to time (%d rows)", len(full.Rows))
	}
	// Generous bound: the point is asymptotic (per-row vs total), and CI
	// machines are noisy. Locally this is ~1000×.
	if firstD > fullD/5 {
		t.Errorf("first row took %v, full enumeration %v; streaming should be far faster", firstD, fullD)
	}
}
