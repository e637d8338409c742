package gpml_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/graph"
)

// conformanceQueries is the cross-backend battery: every query must return
// byte-identical formatted results on the map backend and the CSR
// snapshot. The set covers labeled and
// unlabeled seeds, the edge orientations over undirected multi-edges and
// self-loops, quantifiers with group aggregates, restrictors, selectors,
// unions, multi-pattern joins and postfilters.
var conformanceQueries = []string{
	`MATCH (x:Account WHERE x.isBlocked='yes')`,
	`MATCH (x)`,
	`MATCH (x:Loop)-[e]->(x)`,
	`MATCH (x)~[e]~(y)`,
	`MATCH (x)-[e]-(y)`,
	`MATCH (x:Account)-[e:Transfer]->(y:Account)`,
	`MATCH (a:Account)-[t:Transfer]->{1,3}(z:Account)`,
	`MATCH TRAIL (a:Account)-[t:Transfer]->+(z:Account WHERE z.isBlocked='yes')`,
	`MATCH ACYCLIC (a:Account)-[t:Transfer]->*(z)`,
	`MATCH ANY SHORTEST p = (a WHERE a.owner='owner0')-[:Transfer]->+(z:Account WHERE z.isBlocked='yes')`,
	`MATCH ALL SHORTEST p = (a:Account)-[:Transfer]->+(z WHERE z.isBlocked='yes')`,
	`MATCH ALL SHORTEST p = (a:Account)-[t:Transfer]->{1,4}(z:Account)`,
	`MATCH ANY SHORTEST p = (a WHERE a.owner='owner0')-[t]-{1,3}(z)`,
	`MATCH SHORTEST 2 p = (a WHERE a.owner='owner0')-[:Transfer]->+(z:Account)`,
	`MATCH (a:Account)-[:Transfer]->(m) [~[:hasPhone]~(p:Phone)]?`,
	`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)`,
	`MATCH (x:Account)-[t:Transfer]->(y), (y)-[u:Transfer]->(z) WHERE x.isBlocked='no'`,
	`MATCH (a:Account) [()-[t:Transfer]->()]{2,3} (c:Account) WHERE SUM(t.amount) > 4M`,
	`MATCH (x:Vip&Account)-[e]->(y)`,
	`MATCH (x:Phone|City)~[e]~(y)`,
	`MATCH (a:Account)-[e:Transfer]->(b) | (a:Account)~[e:hasPhone]~(b)`,
}

// conformanceGraph mixes the synthetic banking shape with the structural
// corner cases: undirected multi-edges, directed and undirected
// self-loops, multi-labels.
func conformanceGraph(t *testing.T) *gpml.Graph {
	t.Helper()
	b := gpml.NewBuilder()
	owners := []string{"owner0", "owner1", "owner2", "owner3", "owner4"}
	for i, o := range owners {
		blocked := "no"
		if i == 2 {
			blocked = "yes"
		}
		labels := []string{"Account"}
		if i == 0 {
			labels = []string{"Account", "Vip"}
		}
		b.Node(o[len(o)-6:]+"_n", nil) // unlabeled filler node
		b.Node("a"+string(rune('0'+i)), labels, "owner", o, "isBlocked", blocked)
	}
	b.Node("loop", []string{"Loop", "Account"}, "owner", "looper", "isBlocked", "no")
	b.Node("p0", []string{"Phone"}, "number", "000")
	b.Node("c0", []string{"City"}, "name", "Ankh-Morpork")
	amounts := []int64{2_000_000, 3_000_000, 8_000_000, 5_000_000, 9_000_000}
	for i, amt := range amounts {
		src := "a" + string(rune('0'+i))
		dst := "a" + string(rune('0'+(i+1)%5))
		b.Edge("t"+string(rune('0'+i)), src, dst, []string{"Transfer"}, "amount", amt)
	}
	b.Edge("t5", "a1", "a3", []string{"Transfer"}, "amount", int64(7_000_000))
	b.Edge("t6", "a1", "a3", []string{"Transfer"}, "amount", int64(1_000_000)) // directed multi-edge
	b.Edge("tl", "loop", "loop", []string{"Transfer"}, "amount", int64(4_000_000))
	b.UndirectedEdge("h0", "a0", "p0", []string{"hasPhone"})
	b.UndirectedEdge("h1", "a1", "p0", []string{"hasPhone"})
	b.UndirectedEdge("h2", "a1", "p0", []string{"hasPhone"}) // undirected multi-edge
	b.UndirectedEdge("hl", "p0", "p0", []string{"hasPhone"}) // undirected self-loop
	b.UndirectedEdge("n0", "a0", "c0", []string{"near"})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStoreQueryConformance runs the battery on both backends and
// demands byte-identical output. A
// 200-account random banking graph has too many trails for the whole
// battery, so it runs three shapes: a filtered hop, the same-phone join
// and a shortest path to a city.
func TestStoreQueryConformance(t *testing.T) {
	random := dataset.Random(dataset.RandomConfig{
		Accounts: 200, AvgDegree: 2, Cities: 12, Phones: 30,
		BlockedFraction: 0.1, Seed: 11, UndirectedPhones: true,
	})
	for _, c := range []struct {
		g       *gpml.Graph
		queries []string
	}{
		{conformanceGraph(t), conformanceQueries},
		{dataset.Fig1(), conformanceQueries},
		{random, []string{
			`MATCH (x:Account WHERE x.isBlocked='yes')-[t:Transfer]->(y:Account)`,
			`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)`,
			`MATCH ANY SHORTEST p = (a:Account WHERE a.owner='owner0')-[:Transfer]->+(z:City)`,
		}},
	} {
		g := c.g
		snap := gpml.Snapshot(g)
		for _, src := range c.queries {
			q, err := gpml.Compile(src)
			if err != nil {
				t.Fatalf("compile %s: %v", src, err)
			}
			ref, err := q.Eval(g)
			if err != nil {
				t.Fatalf("map eval %s: %v", src, err)
			}
			want := gpml.FormatResult(ref) + "|" + gpml.FormatBindings(ref)
			res, err := q.Eval(g, gpml.WithStore(snap))
			if err != nil {
				t.Fatalf("csr eval %s: %v", src, err)
			}
			if got := gpml.FormatResult(res) + "|" + gpml.FormatBindings(res); got != want {
				t.Errorf("csr diverges on %s:\n got  %q\n want %q", src, got, want)
			}
		}
	}
}

// TestConcurrentQueriesRace hammers one shared CSR snapshot and one set
// of compiled queries from many goroutines, each evaluating on its own;
// run with -race (the CI does). Two of the shapes keep per-evaluation
// state that must never reach the shared plan: the TRAIL pattern's tail
// rings and the triangle's pair-seeded join step, whose Explain lines
// prove they take those paths.
func TestConcurrentQueriesRace(t *testing.T) {
	g := dataset.Random(dataset.RandomConfig{
		Accounts: 120, AvgDegree: 2, Cities: 8, Phones: 16,
		BlockedFraction: 0.1, Seed: 5, UndirectedPhones: true,
	})
	snap := gpml.Snapshot(g)
	queries := []*gpml.Query{
		gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='yes')-[t:Transfer]->(y:Account)`),
		gpml.MustCompile(`MATCH ANY SHORTEST p = (a:Account WHERE a.owner='owner0')-[:Transfer]->+(z:Account WHERE z.isBlocked='yes')`),
		gpml.MustCompile(`MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)`),
		gpml.MustCompile(`MATCH TRAIL (x:Account)-[t:Transfer]->{1,3}(y:Account WHERE y.isBlocked='yes')`),
		gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='no')-[t1:Transfer]->(y:Account), (y)-[t2:Transfer]->(z:Account), (z)-[t3:Transfer]->(x)`),
	}
	for _, c := range []struct {
		q    *gpml.Query
		want string
	}{
		{queries[3], "tail-rings="},
		{queries[4], "target="},
	} {
		if lines := c.q.Explain(gpml.WithStore(snap)); !strings.Contains(strings.Join(lines, "\n"), c.want) {
			t.Fatalf("explain lacks %q:\n%s", c.want, strings.Join(lines, "\n"))
		}
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := q.Eval(nil, gpml.WithStore(snap))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("query %d has no rows; the race check would be vacuous", i)
		}
		want[i] = gpml.FormatResult(res)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					res, err := q.Eval(nil, gpml.WithStore(snap))
					if err != nil {
						t.Error(err)
						return
					}
					if gpml.FormatResult(res) != want[i] {
						t.Errorf("worker %d: result diverges on query %d", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWithStoreAPI covers the option plumbing: nil graph without a store
// errors; EvalStore and Match accept stores.
func TestWithStoreAPI(t *testing.T) {
	g := dataset.Fig1()
	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='yes')`)
	if _, err := q.Eval(nil); err == nil {
		t.Error("nil graph without WithStore must error")
	}
	snap := gpml.Snapshot(g)
	res, err := q.EvalStore(snap)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("EvalStore: %v rows=%d", err, len(res.Rows))
	}
	// Compile-time options persist into evaluation.
	q2, err := gpml.Compile(`MATCH (x:Account WHERE x.isBlocked='yes')`,
		gpml.WithStore(snap))
	if err != nil {
		t.Fatal(err)
	}
	res, err = q2.Eval(nil)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("compile-time store: %v rows=%d", err, len(res.Rows))
	}
	// A graph passed explicitly to Eval beats the compile-time store.
	empty := gpml.NewGraph()
	res, err = q2.Eval(empty)
	if err != nil || len(res.Rows) != 0 {
		t.Errorf("explicit graph must win over compile-time store: %v rows=%d", err, len(res.Rows))
	}
	// An eval-time WithStore beats the explicit graph.
	res, err = q2.Eval(empty, gpml.WithStore(snap))
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("eval-time store must win over the graph argument: %v rows=%d", err, len(res.Rows))
	}
}

// TestGraphBuilderContract: a *Graph answers queries from a memoized
// snapshot of itself, so every mutator — property updates included, the
// snapshot copies records — must drop it: the next Match sees the new
// state, and every pre-existing element keeps its dense index.
func TestGraphBuilderContract(t *testing.T) {
	g := conformanceGraph(t)
	queries := []*gpml.Query{
		gpml.MustCompile(`MATCH (x:Late)`),
		gpml.MustCompile(`MATCH (x:Late)-[t:Transfer]->(y)`),
		gpml.MustCompile(`MATCH (x:Late WHERE x.owner='z')`),
		gpml.MustCompile(`MATCH ()-[t:Transfer WHERE t.amount=42]->()`),
	}
	// memo is the memoized snapshot the graph answers queries from.
	memo := func() *graph.CSR { return graph.AsStepper(g).(*graph.CSR) }
	nodeIdx := map[gpml.NodeID]graph.ElemIdx{}
	edgeIdx := map[gpml.EdgeID]graph.ElemIdx{}
	for _, id := range g.NodeIDs() {
		nodeIdx[id], _ = memo().InternNode(id)
	}
	for _, id := range g.EdgeIDs() {
		edgeIdx[id], _ = memo().InternEdge(id)
	}
	check := func(step string, want [4]int) {
		t.Helper()
		for i, q := range queries {
			res, err := q.Eval(g)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if len(res.Rows) != want[i] {
				t.Errorf("%s: query %d returned %d rows, want %d", step, i, len(res.Rows), want[i])
			}
		}
		for id, want := range nodeIdx {
			if got, ok := memo().InternNode(id); !ok || got != want {
				t.Errorf("%s: node %s moved from index %d to %d", step, id, want, got)
			}
		}
		for id, want := range edgeIdx {
			if got, ok := memo().InternEdge(id); !ok || got != want {
				t.Errorf("%s: edge %s moved from index %d to %d", step, id, want, got)
			}
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check("start", [4]int{0, 0, 0, 0}) // also builds the memo each mutation must drop
	must(g.AddNode("late", []string{"Late"}, nil))
	check("AddNode", [4]int{1, 0, 0, 0})
	must(g.AddEdge("tlate", "late", "a0", []string{"Transfer"}, nil))
	check("AddEdge", [4]int{1, 1, 0, 0})
	must(g.SetNodeProp("late", "owner", gpml.Str("z")))
	check("SetNodeProp", [4]int{1, 1, 1, 0})
	must(g.SetEdgeProp("tlate", "amount", gpml.Int(42)))
	check("SetEdgeProp", [4]int{1, 1, 1, 1})
}

// snapshotCounter is a third-party Store over Figure 1 that counts full
// node scans: graph.Snapshot reads Nodes exactly once, so the count is the
// number of snapshots evaluation built.
type snapshotCounter struct {
	gpml.Store
	scans atomic.Int64
}

func (c *snapshotCounter) Nodes(f func(*gpml.Node) bool) {
	c.scans.Add(1)
	c.Store.Nodes(f)
}

// TestOneSnapshotPerQuery: a query pins and indexes a third-party store
// once, however many pattern sources, join steps and postfilter variables
// it has, through Eval and through Stream alike.
func TestOneSnapshotPerQuery(t *testing.T) {
	for _, src := range []string{
		`MATCH (a:Account)-[e:Transfer]->(b:Account)`,
		`MATCH (a:Account)-[e:Transfer]->(b:Account) WHERE a.owner = 'Scott'`,
		`MATCH (a:Account)-[e:Transfer]->(b:Account), (b)-[f:Transfer]->(c:Account) WHERE a.owner <> c.owner`,
	} {
		q := gpml.MustCompile(src)
		s := &snapshotCounter{Store: gpml.Fig1()}
		res, err := q.EvalStore(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", src)
		}
		if n := s.scans.Swap(0); n != 1 {
			t.Errorf("EvalStore %s: %d snapshots, want 1", src, n)
		}
		rows, err := q.Stream(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		streamed := 0
		for rows.Next() {
			streamed++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if streamed != len(res.Rows) {
			t.Errorf("Stream %s: %d rows, Eval %d", src, streamed, len(res.Rows))
		}
		if n := s.scans.Load(); n != 1 {
			t.Errorf("Stream %s: %d snapshots, want 1", src, n)
		}
	}
}
