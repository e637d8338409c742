package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gpml/internal/core"
	"gpml/internal/dataset"
	"gpml/internal/eval"
)

// queryGen builds random syntactically plausible GPML queries from a small
// grammar over the Fig 1 schema. Generated queries may be statically
// invalid (the planner must reject them cleanly) or valid (the engine must
// evaluate them without panicking and within limits).
type queryGen struct {
	rng *rand.Rand
	n   int // fresh variable counter
}

func (qg *queryGen) fresh(prefix string) string {
	qg.n++
	return fmt.Sprintf("%s%d", prefix, qg.n)
}

func (qg *queryGen) pick(opts ...string) string {
	return opts[qg.rng.Intn(len(opts))]
}

func (qg *queryGen) nodePattern() string {
	switch qg.rng.Intn(4) {
	case 0:
		return "()"
	case 1:
		return fmt.Sprintf("(%s)", qg.fresh("n"))
	case 2:
		return fmt.Sprintf("(%s:%s)", qg.fresh("n"), qg.pick("Account", "Phone", "City", "Country", "IP", "Account|IP", "!Phone"))
	default:
		v := qg.fresh("n")
		return fmt.Sprintf("(%s:Account WHERE %s.isBlocked='%s')", v, v, qg.pick("yes", "no"))
	}
}

func (qg *queryGen) edgePattern() string {
	arrow := qg.pick("-[%s]->", "<-[%s]-", "~[%s]~", "-[%s]-", "<~[%s]~", "~[%s]~>", "<-[%s]->")
	spec := ""
	switch qg.rng.Intn(3) {
	case 0:
		spec = qg.fresh("e")
	case 1:
		spec = qg.fresh("e") + ":" + qg.pick("Transfer", "isLocatedIn", "hasPhone", "signInWithIP")
	case 2:
		v := qg.fresh("e")
		spec = fmt.Sprintf("%s:Transfer WHERE %s.amount > %dM", v, v, 1+qg.rng.Intn(10))
	}
	return fmt.Sprintf(arrow, spec)
}

func (qg *queryGen) quantifier() string {
	switch qg.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("{%d,%d}", 1+qg.rng.Intn(2), 2+qg.rng.Intn(3))
	case 1:
		return "?"
	case 2:
		return "*"
	default:
		return "+"
	}
}

func (qg *queryGen) pathPattern(depth int) string {
	var b strings.Builder
	b.WriteString(qg.nodePattern())
	steps := 1 + qg.rng.Intn(3)
	for i := 0; i < steps; i++ {
		if depth < 2 && qg.rng.Intn(4) == 0 {
			b.WriteString(fmt.Sprintf("[%s%s%s]%s",
				qg.nodePattern(), qg.edgePattern(), qg.nodePattern(), qg.quantifier()))
		} else {
			b.WriteString(qg.edgePattern())
			if qg.rng.Intn(5) == 0 {
				b.WriteString(qg.quantifier())
			}
		}
		b.WriteString(qg.nodePattern())
	}
	prefix := ""
	switch qg.rng.Intn(5) {
	case 0:
		prefix = "TRAIL "
	case 1:
		prefix = "ACYCLIC "
	case 2:
		prefix = qg.pick("ANY SHORTEST ", "ALL SHORTEST ", "ANY ", "SHORTEST 2 ")
	}
	return prefix + b.String()
}

// TestRandomQueriesNeverPanic compiles and evaluates generated queries.
// Invalid queries must fail with an error, never a panic; valid queries
// must evaluate within limits or report a limit error.
func TestRandomQueriesNeverPanic(t *testing.T) {
	g := dataset.Fig1()
	compiled, evaluated := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		qg := &queryGen{rng: rand.New(rand.NewSource(seed))}
		src := "MATCH " + qg.pathPattern(0)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on seed %d query %q: %v", seed, src, r)
				}
			}()
			q, err := core.Compile(src, core.Options{})
			if err != nil {
				return // static rejection is fine
			}
			compiled++
			_, err = eval.EvalPlan(g, q.Plan, eval.Config{Limits: eval.Limits{
				MaxMatches: 50_000, MaxDepth: 64, MaxThreads: 200_000,
			}})
			if err != nil {
				if _, ok := err.(*eval.LimitError); !ok {
					t.Fatalf("seed %d query %q: unexpected error %v", seed, src, err)
				}
				return
			}
			evaluated++
		}()
	}
	if compiled < 50 || evaluated < 30 {
		t.Fatalf("generator too weak: %d compiled, %d evaluated", compiled, evaluated)
	}
	t.Logf("random queries: %d compiled, %d evaluated cleanly", compiled, evaluated)
}
