package gpml_test

import (
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"gpml"
	"gpml/internal/dataset"
)

// Goroutine/leak hygiene for the streaming pipeline: early termination —
// LIMIT hit, context cancel, iterator abandoned via Rows.Close — must stop
// promptly and leak no goroutines. Run with -race (CI does).

// settleGoroutines polls until the goroutine count returns to the
// baseline (plus slack for runtime/test plumbing) or the deadline hits.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers; pipeline shutdown needs no GC, this only quiets the runtime's own goroutines
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d vs baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leakGraph is big enough that full enumeration of the two-hop pattern
// takes real work, so early termination is observable.
func leakGraph() *gpml.Graph {
	return dataset.Random(dataset.RandomConfig{
		Accounts: 1200, AvgDegree: 4, Cities: 10, Phones: 40,
		BlockedFraction: 0.1, Seed: 21, UndirectedPhones: true,
	})
}

const leakQuery = `MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`

func TestStreamCloseAbandonedNoLeak(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	baseline := runtime.NumGoroutine()
	rows, err := q.Stream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Pull a few rows, then abandon the iterator mid-stream.
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v, want prompt shutdown", d)
	}
	settleGoroutines(t, baseline)
}

func TestStreamLimitStopsPromptlyNoLeak(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	baseline := runtime.NumGoroutine()
	// Full enumeration yields hundreds of thousands of rows; LIMIT 5
	// must come back in a tiny fraction of that work.
	start := time.Now()
	res, err := q.Eval(g, gpml.WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("LIMIT 5 took %v", d)
	}
	settleGoroutines(t, baseline)
}

func TestStreamContextCancelNoLeak(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := q.Stream(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	// Iteration must end with the context's error, promptly.
	start := time.Now()
	for rows.Next() {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("cancellation not observed")
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Collect after a recorded iteration error must surface the error,
	// not a silently truncated Result.
	if _, cerr := rows.Collect(); !errors.Is(cerr, context.Canceled) {
		t.Fatalf("Collect after error: want context.Canceled, got %v", cerr)
	}
	rows.Close()
	settleGoroutines(t, baseline)
}

func TestStreamDeadlineAbortsEval(t *testing.T) {
	// An unbounded TRAIL over this grid has an astronomically large trail
	// set (12×12 keeps the search far beyond any test-speed budget even
	// without -race; 7×7 finishes in ~170ms and would beat the deadline);
	// the deadline must abort Eval itself (the collect-all wrapper) in
	// roughly the timeout, through the engines' cancellation polls.
	g := dataset.Grid(12, 12)
	q := gpml.MustCompile(`MATCH TRAIL p = (x)-[e:Transfer]->+(y)`)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	baseline := runtime.NumGoroutine()
	start := time.Now()
	_, err := q.Eval(g, gpml.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline abort took %v", d)
	}
	settleGoroutines(t, baseline)
}

func TestForEachStopNoLeak(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	baseline := runtime.NumGoroutine()
	seen := 0
	err := q.ForEach(context.Background(), g, func(*gpml.Row) error {
		seen++
		if seen == 7 {
			return gpml.Stop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("saw %d rows, want 7", seen)
	}
	settleGoroutines(t, baseline)
}

// TestStreamJoinChainCloseAbandonedNoLeak is the multi-pattern variant of
// the abandonment test: a three-hop statement split into three patterns
// on a CSR snapshot runs a scan plus two seeded bind-join steps;
// abandoning or cancelling the stream mid-chain must shut down promptly
// and leak nothing.
func TestStreamJoinChainCloseAbandonedNoLeak(t *testing.T) {
	snap := gpml.Snapshot(leakGraph())
	q := gpml.MustCompile(`MATCH (a)-[:Transfer]->(b), (b)-[:Transfer]->(c), (c)-[:Transfer]->(d)`)
	baseline := runtime.NumGoroutine()
	rows, err := q.Stream(context.Background(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, baseline)

	ctx, cancel := context.WithCancel(context.Background())
	rows, err = q.Stream(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	rows.Close()
	settleGoroutines(t, baseline)
}

// TestStreamCollectMatchesEval pins the public equivalence: Stream +
// Collect is byte-identical to Eval, across engines, selectors and joins.
func TestStreamCollectMatchesEval(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{Accounts: 40, AvgDegree: 2, Cities: 5, Phones: 8, BlockedFraction: 0.2, Seed: 9, UndirectedPhones: true})
	queries := []string{
		`MATCH (x:Account)-[t:Transfer]->(y:Account)`,
		`MATCH ALL SHORTEST p = (a:Account)-[:Transfer]->+(b WHERE b.isBlocked='yes')`,
		`MATCH (x:Account)-[t:Transfer]->(y:Account), (y)-[:isLocatedIn]->(c:City) WHERE x.isBlocked='no'`,
	}
	for _, src := range queries {
		q := gpml.MustCompile(src)
		want, err := q.Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := q.Stream(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if gpml.FormatResult(got) != gpml.FormatResult(want) {
			t.Errorf("%s: Stream+Collect diverges from Eval", src)
		}
	}
}

// Double-close from different goroutines: several Close calls race one
// another. None may panic, each must observe the completed teardown, and
// the pipeline must leak nothing.
func TestStreamDoubleCloseConcurrentNoLeak(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	baseline := runtime.NumGoroutine()
	rows, err := q.Stream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && rows.Next(); i++ {
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rows.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	// And once more sequentially: still idempotent after the race.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Errorf("Next returned true after Close")
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after clean Close: %v", err)
	}
	settleGoroutines(t, baseline)
}

// Close racing a Next that is blocked inside the pipeline: Close must
// unblock it (by cancelling the stream's derived context), the
// interrupted Next must report a clean end of stream — not the
// self-inflicted cancellation — and nothing may leak.
func TestStreamCloseDuringNextNoLeak(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		rows, err := q.Stream(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for rows.Next() { // racing Close lands at an arbitrary point in here
			}
		}()
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		<-drained
		if err := rows.Err(); err != nil {
			t.Errorf("Err after Close-during-Next: %v (want nil: cancellation was self-inflicted)", err)
		}
		settleGoroutines(t, baseline)
	}
}

// A caller-owned context cancellation must still surface as an error
// through Err — only Close-induced cancellation is swallowed.
func TestStreamCallerCancelStillReportsError(t *testing.T) {
	g := leakGraph()
	q := gpml.MustCompile(leakQuery)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := q.Stream(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("expected at least one row before cancel")
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

// TestStreamHeadTenTimesFasterThanFull gates what streaming buys: on a
// 2,000-account random graph's two-hop transfers (tens of thousands of
// rows), the first streamed row and a LIMIT 100 answer each arrive at
// least 10× sooner than the full materialization. Wall-clock, so it arms
// only under GPML_TIMING_GATES=1.
func TestStreamHeadTenTimesFasterThanFull(t *testing.T) {
	if os.Getenv("GPML_TIMING_GATES") != "1" {
		t.Skip("set GPML_TIMING_GATES=1 to run wall-clock gates")
	}
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 2000, AvgDegree: 4, Cities: 15, BlockedFraction: 0.1, Seed: 7,
	})
	q := gpml.MustCompile(`MATCH (x:Account)-[t:Transfer]->(y:Account)-[u:Transfer]->(z:Account)`)
	// bestOf keeps one GC pause from skewing a sub-millisecond sample.
	bestOf := func(f func()) time.Duration {
		best := time.Duration(-1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
		}
		return best
	}
	full := bestOf(func() {
		if _, err := q.Eval(g); err != nil {
			t.Fatal(err)
		}
	})
	first := bestOf(func() {
		rows, err := q.Stream(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatal("no rows")
		}
		rows.Close()
	})
	limit := bestOf(func() {
		if res, err := q.Eval(g, gpml.WithLimit(100)); err != nil || len(res.Rows) != 100 {
			t.Fatalf("LIMIT 100: %v", err)
		}
	})
	t.Logf("full %v, first row %v (%.0f×), LIMIT 100 %v (%.0f×)",
		full, first, float64(full)/float64(first), limit, float64(full)/float64(limit))
	if first*10 > full || limit*10 > full {
		t.Errorf("first row %v and LIMIT 100 %v must each be >= 10× faster than full %v", first, limit, full)
	}
}

// TestRowsRowCloneSurvivesNext: the row Rows.Row returns is borrowed
// until the next Next or Close. A Clone kept from each row still reads
// that row after the stream moved on and closed, and the kept rows are
// Eval's rows.
func TestRowsRowCloneSurvivesNext(t *testing.T) {
	q := gpml.MustCompile(`MATCH (x:Account)-[t:Transfer]->(y:Account), TRAIL (y)-[u:Transfer]->{1,2}(z:Account)`)
	g := gpml.Fig1()
	render := func(rows []*gpml.Row) []string {
		var out []string
		for _, row := range rows {
			line := ""
			for _, c := range q.Columns() {
				b, _ := row.Get(c)
				line += b.String() + "|"
			}
			out = append(out, line)
		}
		sort.Strings(out)
		return out
	}
	rows, err := q.Stream(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var atNext []string
	var kept []*gpml.Row
	for rows.Next() {
		atNext = append(atNext, render([]*gpml.Row{rows.Row()})...)
		kept = append(kept, rows.Row().Clone())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	res, err := q.Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	want := render(res.Rows)
	if len(want) < 10 {
		t.Fatalf("vacuous: %d rows", len(want))
	}
	sort.Strings(atNext)
	for name, got := range map[string][]string{"at Next": atNext, "kept clones": render(kept)} {
		if !slices.Equal(got, want) {
			t.Errorf("rows %s:\n%v\nwant Eval's:\n%v", name, got, want)
		}
	}
}
