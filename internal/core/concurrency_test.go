package core_test

import (
	"sync"
	"testing"

	"gpml/internal/core"
	"gpml/internal/dataset"
	"gpml/internal/eval"
)

// A compiled query is immutable and safe for concurrent evaluation (each
// Eval builds its own machine state). Run with -race.
func TestConcurrentEvaluation(t *testing.T) {
	g := dataset.Fig1()
	q, err := core.Compile(`
		MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*
		      (b WHERE b.owner='Aretha')`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	counts := make(chan int, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := eval.EvalPlan(g, q.Plan, eval.Config{})
				if err != nil {
					errs <- err
					return
				}
				counts <- len(res.Rows)
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	for n := range counts {
		if n != 3 {
			t.Fatalf("concurrent evaluation returned %d rows, want 3", n)
		}
	}
}

// Different graphs evaluated concurrently with the same query.
func TestConcurrentEvaluationAcrossGraphs(t *testing.T) {
	q, err := core.Compile(`MATCH (x:Account)`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g1 := dataset.Fig1()
	g2 := dataset.Chain(30)
	var wg sync.WaitGroup
	fail := make(chan string, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			res, err := eval.EvalPlan(g1, q.Plan, eval.Config{})
			if err != nil || len(res.Rows) != 6 {
				fail <- "fig1"
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			res, err := eval.EvalPlan(g2, q.Plan, eval.Config{})
			if err != nil || len(res.Rows) != 30 {
				fail <- "chain"
				return
			}
		}
	}()
	wg.Wait()
	close(fail)
	for f := range fail {
		t.Fatalf("concurrent evaluation on %s failed", f)
	}
}

// Nil-graph and accessor error paths.
func TestCoreAccessors(t *testing.T) {
	q, err := core.Compile(`MATCH p = (x:Account)`, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.EvalPlan(nil, q.Plan, eval.Config{}); err == nil {
		t.Errorf("nil graph must error")
	}
	cols := q.Columns()
	if len(cols) != 2 || cols[0] != "p" || cols[1] != "x" {
		t.Errorf("columns: %v", cols)
	}
	if q.Source == "" || q.Parsed == nil || q.Normalized == nil || q.Plan == nil {
		t.Errorf("query introspection fields missing")
	}
}
