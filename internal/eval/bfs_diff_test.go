package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gpml/internal/binding"
	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
)

// bfsOracleQueries are the hand-written BFS-mode templates of the
// battery beyond diffQueries and endpointQueries: the §5 examples of
// internal/core/paper_section5_test.go, a prefilter over a group
// variable, and a union whose branches bind the same group variables in
// opposite orders — on a self-loop both branches reach one position with
// equal lists per variable, so only the binding order across variables
// keeps their states apart.
var bfsOracleQueries = []string{
	`MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`,
	`MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1`,
	`MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+(q:Account WHERE q.isBlocked='yes')-[e2:Transfer]->+(r:Account WHERE r.owner='Charles')`,
	`MATCH ALL SHORTEST p = (x WHERE x.owner='Scott')-[e1:Transfer]->+(q:Account)-[e2:Transfer]->+(r:Account WHERE r.owner='Charles') WHERE q.isBlocked='yes'`,
	`MATCH ALL SHORTEST (st WHERE st.owner='start')-[a]->(m)-[b]->(sh)-[c]->+(zz WHERE zz.owner='end')`,
	`MATCH ANY SHORTEST [(a)[()-[e:Transfer]->()]{1,2}(m) WHERE SUM(e.amount) > 3000000]-[f:Transfer]->*(z)`,
	`MATCH SHORTEST 2 GROUP [(a)[()-[e]->()]{1,2}(m) WHERE COUNT(e.*) > 1]-[f]->+(z)`,
	`MATCH ANY SHORTEST p = [(s)[(x)-[y]->() | ()-[y]->(x)]{1,2}(m) WHERE COUNT(x.*) + COUNT(y.*) >= 2]-[z]->*(t)`,
	`MATCH SHORTEST 2 p = [(s)[(x)-[y]->() | ()-[y]->(x)]{1,2}(m) WHERE COUNT(x.*) >= 1 AND COUNT(y.*) >= 1]-[z]->*(t)`,
	`MATCH ANY 2 (a) [-[e:Transfer]->() | <-[f:Transfer]-()]+ (b:Account)`,
	`MATCH ANY (a:Account)-[e:Transfer WHERE e.amount > 3M]->+(b WHERE b.isBlocked='yes')`,
	`MATCH SHORTEST 2 GROUP p = (a WHERE a.owner='owner0')-[e]-+(b)`,
	`MATCH ANY SHORTEST (a) [(y)]{0,2} -[e]->* (b)`,
}

// keyShapeGraph is TestBFSKeySeparatesEnvironments' graph: two branches
// bind m differently and merge before an unbounded tail.
func keyShapeGraph() *graph.Graph {
	return graph.NewBuilder().
		Node("s", nil, "owner", "start").
		Node("m1", nil).Node("m2", nil).
		Node("shared", nil).
		Node("z1", nil).Node("z2", nil).
		Node("z", nil, "owner", "end").
		Edge("e1", "s", "m1", nil).
		Edge("e2", "s", "m2", nil).
		Edge("f1", "m1", "shared", nil).
		Edge("f2", "m2", "shared", nil).
		Edge("g1", "shared", "z1", nil).
		Edge("g2", "z1", "z2", nil).
		Edge("g3", "z2", "z", nil).
		MustBuild()
}

// bfsRun is one engine's output for one pattern: per seed run, a text
// holding the running count of admitted states, the run's error and its
// rendered raw bindings in emission order; and the error that ended the
// runs.
type bfsRun struct {
	seeds []string
	err   error
}

// renderRaw renders a raw binding exactly: every entry with its iteration
// annotation, kind and index, the tags and the path.
func renderRaw(b *binding.PathBinding) string {
	var s strings.Builder
	for _, e := range b.Entries {
		fmt.Fprintf(&s, "%s[", e.Var)
		for i := 0; i < e.Iters.Len(); i++ {
			fmt.Fprintf(&s, "%d,", e.Iters.At(i))
		}
		fmt.Fprintf(&s, "]%d:%d ", e.Kind, e.Idx)
	}
	fmt.Fprintf(&s, "tags%v path%v%v %s", b.Tags, b.Path.Nodes, b.Path.Edges, b.PathVar)
	return s.String()
}

// runBFSEngines runs the oracle and the BFS engine seed by seed over one
// shared budget each, as production shares it across seeds.
func runBFSEngines(s graph.Store, pp *plan.PathPlan, cfg Config) (oracle, engine bfsRun) {
	st := graph.AsStepper(s)
	sel := pp.Pattern.Selector
	var out strings.Builder
	collect := func(b *binding.PathBinding) error {
		out.WriteString(renderRaw(b))
		out.WriteByte('\n')
		return nil
	}
	obud := newBudget(context.Background(), cfg.Limits.withDefaults())
	dbud := newBudget(context.Background(), cfg.Limits.withDefaults())
	m := newBFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, sel, dbud, collect)
	forEachNode(st, pp.SeedLabels, pp.HeadEq, cfg.Params, func(seed int) bool {
		if oracle.err == nil {
			out.Reset()
			oracle.err = runOracleBFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, sel, seed, obud, collect)
			oracle.seeds = append(oracle.seeds, fmt.Sprintf("seed %d admitted %d err %v\n%s", seed, obud.threads, oracle.err, out.String()))
		}
		if engine.err == nil {
			out.Reset()
			engine.err = m.runBFS(seed)
			engine.seeds = append(engine.seeds, fmt.Sprintf("seed %d admitted %d err %v\n%s", seed, dbud.threads, engine.err, out.String()))
		}
		return oracle.err == nil || engine.err == nil
	})
	return oracle, engine
}

// checkBFSOracle compares the two engines on one pattern and store. It
// reports how many raw bindings the oracle emitted and the error that
// ended its runs.
func checkBFSOracle(t *testing.T, label string, s graph.Store, pp *plan.PathPlan, cfg Config) (int, error) {
	t.Helper()
	oracle, engine := runBFSEngines(s, pp, cfg)
	if fmt.Sprint(oracle.err) != fmt.Sprint(engine.err) {
		t.Errorf("%s: errors differ: oracle %v, engine %v", label, oracle.err, engine.err)
	}
	if len(oracle.seeds) != len(engine.seeds) {
		t.Errorf("%s: oracle ran %d seeds, engine %d", label, len(oracle.seeds), len(engine.seeds))
		return 0, oracle.err
	}
	n := 0
	for i := range oracle.seeds {
		if oracle.seeds[i] != engine.seeds[i] {
			t.Errorf("%s: seed run %d differs\noracle:\n%s\nengine:\n%s", label, i, oracle.seeds[i], engine.seeds[i])
			return 0, oracle.err
		}
		n += strings.Count(oracle.seeds[i], "\n") - 1
	}
	return n, oracle.err
}

// bfsPlan compiles src and returns its path plans in BFS mode.
func bfsPlan(t *testing.T, src string) []*plan.PathPlan {
	t.Helper()
	var out []*plan.PathPlan
	for _, pp := range compile(t, src, plan.Options{}).Paths {
		if pp.Mode == plan.ModeBFS {
			out = append(out, pp)
		}
	}
	return out
}

// TestBFSMatchesOracle holds the BFS engine, the DFS machine run level
// by level, to the reference BFS interpreter: per seed, the same sequence
// of raw bindings (entries with iteration annotations, tags, path), the
// same number of admitted states, and the same limit error when the
// state, match or depth budget is hit. It runs every BFS-mode template of
// the engine batteries and the §5 examples on self-loops and multi-edges,
// Figure 1, a random graph and every reverseAxes store, plus generated
// patterns.
func TestBFSMatchesOracle(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"corner": cornerGraph(),
		"fig1":   dataset.Fig1(),
		"random": dataset.Random(dataset.RandomConfig{Accounts: 14, AvgDegree: 2, Phones: 4, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true}),
		"keys":   keyShapeGraph(),
	}
	var srcs []string
	for _, src := range append(append(append([]string(nil), diffQueries...), endpointQueries...), bfsOracleQueries...) {
		if len(bfsPlan(t, src)) > 0 {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) < len(bfsOracleQueries)+10 {
		t.Fatalf("only %d BFS-mode templates", len(srcs))
	}
	emitted, limited := 0, map[string]int{}
	for name, g := range graphs {
		// Every store axis on the structural graphs, the map store on the
		// others.
		axes := []storeAxis{{"map", g}}
		if name == "corner" || name == "fig1" {
			axes = reverseAxes(t, g)
		}
		for _, src := range srcs {
			for _, pp := range bfsPlan(t, src) {
				for _, ax := range axes {
					n, _ := checkBFSOracle(t, fmt.Sprintf("%s on %s/%s", src, name, ax.name), ax.s, pp, Config{})
					emitted += n
				}
				for _, lim := range []Limits{{MaxDepth: 3}, {MaxThreads: 7}, {MaxMatches: 5}} {
					_, err := checkBFSOracle(t, fmt.Sprintf("%s on %s %+v", src, name, lim), g, pp, Config{Limits: lim})
					var le *LimitError
					if errors.As(err, &le) {
						limited[le.What]++
					}
				}
			}
		}
	}
	if emitted == 0 || limited["search state"] == 0 || limited["match count"] == 0 {
		t.Fatalf("vacuous battery: %d bindings emitted, limit errors %v", emitted, limited)
	}

	// Generated patterns, filtered to BFS mode.
	generated := 0
	for seed := int64(0); generated < 200 && seed < 20000; seed++ {
		qg := &bfsQueryGen{rng: rand.New(rand.NewSource(seed))}
		src := "MATCH " + qg.pathPattern(0)
		p, err := compileErr(src)
		if err != nil || p.Paths[0].Mode != plan.ModeBFS {
			continue
		}
		generated++
		cfg := Config{Limits: Limits{MaxMatches: 20_000, MaxDepth: 12, MaxThreads: 20_000}}
		for _, name := range []string{"corner", "fig1"} {
			checkBFSOracle(t, fmt.Sprintf("generated %d %s on %s", seed, src, name), graphs[name], p.Paths[0], cfg)
		}
	}
	if generated < 200 {
		t.Fatalf("only %d generated BFS-mode patterns", generated)
	}
}

// compileErr compiles src, returning the first stage's error.
func compileErr(src string) (*plan.Plan, error) {
	stmt, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	norm, err := normalize.Normalize(stmt)
	if err != nil {
		return nil, err
	}
	return plan.Analyze(norm, plan.Options{})
}

// bfsQueryGen is the random pattern grammar of internal/core's queryGen
// over the Figure 1 schema; pathPattern puts every pattern under a
// selector. anonEdges also draws anonymous edge patterns.
type bfsQueryGen struct {
	rng       *rand.Rand
	n         int // fresh variable counter
	anonEdges bool
}

func (qg *bfsQueryGen) fresh(prefix string) string {
	qg.n++
	return fmt.Sprintf("%s%d", prefix, qg.n)
}

func (qg *bfsQueryGen) pick(opts ...string) string {
	return opts[qg.rng.Intn(len(opts))]
}

func (qg *bfsQueryGen) nodePattern() string {
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

func (qg *bfsQueryGen) edgePattern() string {
	arrow := qg.pick("-[%s]->", "<-[%s]-", "~[%s]~", "-[%s]-", "<~[%s]~", "~[%s]~>", "<-[%s]->")
	spec := ""
	kinds := 3
	if qg.anonEdges {
		kinds = 5
	}
	switch qg.rng.Intn(kinds) {
	case 0:
		spec = qg.fresh("e")
	case 1:
		spec = qg.fresh("e") + ":" + qg.pick("Transfer", "isLocatedIn", "hasPhone", "signInWithIP")
	case 2:
		v := qg.fresh("e")
		spec = fmt.Sprintf("%s:Transfer WHERE %s.amount > %dM", v, v, 1+qg.rng.Intn(10))
	case 3:
		spec = ":Transfer"
	}
	return fmt.Sprintf(arrow, spec)
}

func (qg *bfsQueryGen) quantifier() string {
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

// pathPattern draws a pattern under a selector.
func (qg *bfsQueryGen) pathPattern(depth int) string {
	body := qg.body(depth)
	return qg.pick("ANY SHORTEST ", "ALL SHORTEST ", "ANY ", "SHORTEST 2 ", "ANY 2 ", "SHORTEST 2 GROUP ") + body
}

// body draws a pattern without a selector or restrictor.
func (qg *bfsQueryGen) body(depth int) string {
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
	return b.String()
}
