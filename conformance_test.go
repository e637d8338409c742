package gpml_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gpml"
	"gpml/internal/dataset"
	"gpml/internal/eval"
	"gpml/internal/graph"
	"gpml/internal/pgq"
	"gpml/internal/wal"
)

// Golden-file conformance corpus: testdata/conformance/*.txt transcribes
// the paper's worked examples (§2 figures, §4 patterns, §5 restrictors
// and selectors, §6.5 multi-pattern joins). Each case is evaluated
// through BOTH host-language frontends — a GQL session (binding-table
// output) and, when the case declares a COLUMNS clause, the SQL/PGQ
// GRAPH_TABLE operator — against every store backend, sequentially and
// with a worker pool, and every combination must reproduce the checked-in
// golden output byte for byte.
//
// Regenerate the goldens after an intentional output change with:
//
//	go test -run TestConformanceCorpus -update .
//
// Case file format (testdata/conformance/NAME.txt):
//
//	# free-form comment lines
//	graph: fig1                       # fig1 | cycle8 | grid4 | random1
//	columns: x.owner AS owner, ...    # optional: enables the PGQ check
//	query:
//	MATCH ...                         # possibly multiple lines
//	-- result --
//	<golden gpml.FormatResult output>
//	-- table --                       # present iff columns was given
//	<golden PGQ table rendering>

var updateGolden = flag.Bool("update", false, "regenerate golden conformance outputs")

// conformanceCase is one parsed corpus file.
type conformanceCase struct {
	path    string
	header  []string // comment + directive lines, verbatim (for -update)
	graph   string
	columns string
	query   string
	result  string
	table   string
}

// conformanceGraphs registers the graphs corpus cases may run on. Each
// call builds a fresh graph, so cases cannot leak state into each other.
var conformanceGraphs = map[string]func() *gpml.Graph{
	"fig1":   gpml.Fig1,
	"cycle8": func() *gpml.Graph { return dataset.Cycle(8) },
	"grid4":  func() *gpml.Graph { return dataset.Grid(4, 4) },
	"random1": func() *gpml.Graph {
		return dataset.Random(dataset.RandomConfig{Accounts: 30, AvgDegree: 2, Cities: 4, Phones: 6, BlockedFraction: 0.2, Seed: 1, UndirectedPhones: true})
	},
	// cyclic holds the cyclic join shapes, one edge label per corpus case.
	"cyclic": dataset.CyclicJoins,
}

func parseConformanceCase(t *testing.T, path string) *conformanceCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := &conformanceCase{path: path, graph: "fig1"}
	lines := strings.Split(string(raw), "\n")
	i := 0
	for ; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "query:":
			c.header = append(c.header, line)
			i++
			goto queryBody
		case strings.HasPrefix(trimmed, "graph:"):
			c.graph = strings.TrimSpace(strings.TrimPrefix(trimmed, "graph:"))
		case strings.HasPrefix(trimmed, "columns:"):
			c.columns = strings.TrimSpace(strings.TrimPrefix(trimmed, "columns:"))
		case strings.HasPrefix(trimmed, "#") || trimmed == "":
			// comment / blank
		default:
			t.Fatalf("%s: unknown directive %q", path, line)
		}
		c.header = append(c.header, line)
	}
	t.Fatalf("%s: missing query: section", path)
queryBody:
	var query []string
	for ; i < len(lines) && strings.TrimSpace(lines[i]) != "-- result --"; i++ {
		query = append(query, lines[i])
	}
	c.query = strings.TrimSpace(strings.Join(query, "\n"))
	if c.query == "" {
		t.Fatalf("%s: empty query", path)
	}
	if i == len(lines) {
		if !*updateGolden {
			t.Fatalf("%s: missing '-- result --' golden section (run with -update to create it)", path)
		}
		return c
	}
	i++ // skip the separator
	var result []string
	for ; i < len(lines) && strings.TrimSpace(lines[i]) != "-- table --"; i++ {
		result = append(result, lines[i])
	}
	c.result = strings.Join(result, "\n")
	if i < len(lines) {
		// A table section follows: the result lines lost their final
		// newline to the separator.
		if c.result != "" {
			c.result += "\n"
		}
		i++
		c.table = strings.Join(lines[i:], "\n")
	}
	return c
}

// writeGolden rewrites the case file with regenerated golden sections.
func (c *conformanceCase) writeGolden(t *testing.T) {
	t.Helper()
	var b strings.Builder
	for _, line := range c.header {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString(c.query)
	b.WriteString("\n-- result --\n")
	b.WriteString(c.result)
	if c.columns != "" {
		b.WriteString("-- table --\n")
		b.WriteString(c.table)
	}
	if err := os.WriteFile(c.path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// overlayEquivalent rebuilds g as an Overlay whose final state is
// element-for-element and order-for-order identical to g: a CSR base
// holding a prefix of the nodes (and the longest edge prefix confined to
// them), with the remainder applied as a delta batch. A second batch adds
// and deletes a scratch subgraph and applies a no-op relabel, so the
// served epoch carries tombstones and an override record on top of live
// delta — the state compaction has to fold correctly. Conformance goldens
// must come out byte-identical on it.
func overlayEquivalent(t *testing.T, g *gpml.Graph) *gpml.Overlay {
	t.Helper()
	nodeIDs, edgeIDs := g.NodeIDs(), g.EdgeIDs()
	nPrefix := len(nodeIDs) * 2 / 3
	prefix := make(map[gpml.NodeID]bool, nPrefix)
	base := gpml.NewGraph()
	for _, id := range nodeIDs[:nPrefix] {
		n := g.Node(id)
		if err := base.AddNode(id, n.Labels, n.Props); err != nil {
			t.Fatal(err)
		}
		prefix[id] = true
	}
	addEdge := func(add func(gpml.EdgeID, gpml.NodeID, gpml.NodeID, []string, map[string]gpml.Value) error, id gpml.EdgeID) {
		e := g.Edge(id)
		if err := add(id, e.Source, e.Target, e.Labels, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	ePrefix := 0
	for _, id := range edgeIDs {
		e := g.Edge(id)
		if !prefix[e.Source] || !prefix[e.Target] {
			break // the rest become delta edges, in order
		}
		if e.Direction == graph.Undirected {
			addEdge(base.AddUndirectedEdge, id)
		} else {
			addEdge(base.AddEdge, id)
		}
		ePrefix++
	}
	ov := gpml.NewOverlay(base)
	b := ov.Begin()
	for _, id := range nodeIDs[nPrefix:] {
		n := g.Node(id)
		b.AddNode(id, n.Labels, n.Props)
	}
	for _, id := range edgeIDs[ePrefix:] {
		e := g.Edge(id)
		if e.Direction == graph.Undirected {
			b.AddUndirectedEdge(id, e.Source, e.Target, e.Labels, e.Props)
		} else {
			b.AddEdge(id, e.Source, e.Target, e.Labels, e.Props)
		}
	}
	if err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	// Scratch churn: tombstoned delta elements (the deleted scratch node
	// detaches its edge into the live graph) plus an identity relabel
	// override on a base node. Net state change: none.
	anchor := nodeIDs[0]
	if err := ov.Apply(ov.Begin().
		AddNode("__scratch", []string{"Scratch"}, nil).
		AddEdge("__scratch_e", "__scratch", anchor, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ov.Apply(ov.Begin().
		DeleteNode("__scratch").
		SetNodeLabels(anchor, g.Node(anchor).Labels)); err != nil {
		t.Fatal(err)
	}
	return ov
}

// recoveredEquivalent rebuilds g as a crash-recovered durable overlay:
// the same prefix/delta/churn batch sequence as overlayEquivalent applied
// through the WAL, a checkpoint cut mid-sequence so recovery exercises
// checkpoint-load plus suffix replay, and a crash fault injected into a
// final garbage batch so the torn tail has to be repaired on reopen. The
// recovered store must reproduce every golden byte-identically.
func recoveredEquivalent(t *testing.T, g *gpml.Graph) *gpml.Overlay {
	t.Helper()
	dir := t.TempDir()
	ov, err := graph.OpenDurable(graph.DurableOptions{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Recover(); err != nil {
		t.Fatal(err)
	}
	nodeIDs, edgeIDs := g.NodeIDs(), g.EdgeIDs()
	nPrefix := len(nodeIDs) * 2 / 3
	b := ov.Begin()
	for _, id := range nodeIDs[:nPrefix] {
		n := g.Node(id)
		b.AddNode(id, n.Labels, n.Props)
	}
	if err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	// Checkpoint here: recovery must stitch this durable base together
	// with the replayed batches below.
	if err := ov.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b = ov.Begin()
	for _, id := range nodeIDs[nPrefix:] {
		n := g.Node(id)
		b.AddNode(id, n.Labels, n.Props)
	}
	for _, id := range edgeIDs {
		e := g.Edge(id)
		if e.Direction == graph.Undirected {
			b.AddUndirectedEdge(id, e.Source, e.Target, e.Labels, e.Props)
		} else {
			b.AddEdge(id, e.Source, e.Target, e.Labels, e.Props)
		}
	}
	if err := ov.Apply(b); err != nil {
		t.Fatal(err)
	}
	anchor := nodeIDs[0]
	if err := ov.Apply(ov.Begin().
		AddNode("__scratch", []string{"Scratch"}, nil).
		AddEdge("__scratch_e", "__scratch", anchor, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ov.Apply(ov.Begin().
		DeleteNode("__scratch").
		SetNodeLabels(anchor, g.Node(anchor).Labels)); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: the writer dies partway through a garbage batch,
	// which therefore must not survive recovery.
	if err := ov.ArmWALFailpoint(wal.Failpoint{
		Kind:   wal.FaultKill,
		Offset: ov.DurabilityStats().WAL.Bytes + 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := ov.Apply(ov.Begin().AddNode("__lost", []string{"Lost"}, nil)); err == nil {
		t.Fatal("apply across an armed kill failpoint succeeded")
	}

	rec, err := graph.OpenDurable(graph.DurableOptions{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WALTruncated {
		t.Fatal("recovery repaired no torn tail despite the injected crash")
	}
	if rec.PinEpoch().Node("__lost") != nil {
		t.Fatal("torn batch survived recovery")
	}
	t.Cleanup(func() { rec.CloseDurable() })
	return rec
}

// storeOnly hides a store's Stepper (and epoch) methods behind the bare
// Store interface, the shape of a backend written outside this module.
type storeOnly struct{ gpml.Store }

// gqlResult evaluates the case through the GQL frontend (catalog +
// session) on the given store.
func gqlResult(t *testing.T, c *conformanceCase, s gpml.Store) string {
	t.Helper()
	catalog := gpml.NewCatalog()
	if err := catalog.Register("G", s); err != nil {
		t.Fatal(err)
	}
	session := gpml.NewSession(catalog)
	if err := session.Use("G"); err != nil {
		t.Fatal(err)
	}
	res, err := session.Match(c.query)
	if err != nil {
		t.Fatalf("%s: GQL frontend: %v", c.path, err)
	}
	return gpml.FormatResult(res)
}

// pgqResult evaluates the case through the SQL/PGQ GRAPH_TABLE frontend
// on the given store. Rows arrive in match order, which the conformance
// battery already pins down via the binding-table golden.
func pgqResult(t *testing.T, c *conformanceCase, s gpml.Store) string {
	t.Helper()
	cols, err := gpml.ParseColumns(c.columns)
	if err != nil {
		t.Fatalf("%s: columns: %v", c.path, err)
	}
	tbl, err := pgq.GraphTable(s, c.query, cols, eval.Config{})
	if err != nil {
		t.Fatalf("%s: PGQ frontend: %v", c.path, err)
	}
	return tbl.String()
}

// streamResult evaluates the case through the pull-based streaming
// pipeline (Query.Stream + Rows.Collect, which restores Eval's canonical
// order), so every golden also verifies the streaming executor. It
// additionally checks that ForEach delivers exactly the same number of
// rows the collected result holds.
func streamResult(t *testing.T, c *conformanceCase, s gpml.Store) string {
	t.Helper()
	q, err := gpml.Compile(c.query, gpml.GQLMode())
	if err != nil {
		t.Fatalf("%s: compile: %v", c.path, err)
	}
	rows, err := q.Stream(context.Background(), s)
	if err != nil {
		t.Fatalf("%s: Stream: %v", c.path, err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatalf("%s: Collect: %v", c.path, err)
	}
	seen := 0
	if err := q.ForEach(context.Background(), s, func(*gpml.Row) error {
		seen++
		return nil
	}); err != nil {
		t.Fatalf("%s: ForEach: %v", c.path, err)
	}
	if seen != len(res.Rows) {
		t.Errorf("%s: ForEach delivered %d rows, Collect %d", c.path, seen, len(res.Rows))
	}
	return gpml.FormatResult(res)
}

func TestConformanceCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "conformance", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no conformance cases found under testdata/conformance")
	}
	sort.Strings(files)
	for _, path := range files {
		c := parseConformanceCase(t, path)
		t.Run(strings.TrimSuffix(filepath.Base(path), ".txt"), func(t *testing.T) {
			build, ok := conformanceGraphs[c.graph]
			if !ok {
				t.Fatalf("%s: unknown graph %q", path, c.graph)
			}
			g := build()
			// The overlay axis: base-only (pure CSR behind the epoch
			// machinery), base+delta (live delta with tombstones and an
			// override), and post-compaction (delta folded into a fresh
			// base with dead holes). Each must reproduce the goldens
			// byte-identically.
			ovDelta := overlayEquivalent(t, g)
			ovCompacted := overlayEquivalent(t, g)
			ovCompacted.Compact()
			stores := []struct {
				name string
				s    gpml.Store
			}{
				{"map", g},
				{"csr", gpml.Snapshot(g)},
				{"overlay-base", gpml.NewOverlay(g)},
				{"overlay-delta", ovDelta},
				{"overlay-compacted", ovCompacted},
				// The durability axis: checkpoint + WAL replay + torn-tail
				// repair after an injected crash, serving the same state.
				{"recovered", recoveredEquivalent(t, g)},
				// A third-party backend: only the Store methods show, so
				// each query runs on one snapshot of it.
				{"foreign", storeOnly{gpml.Snapshot(g)}},
			}
			if *updateGolden {
				c.result = gqlResult(t, c, g)
				if c.columns != "" {
					c.table = pgqResult(t, c, g)
				}
				c.writeGolden(t)
			}
			for _, st := range stores {
				if got := gqlResult(t, c, st.s); got != c.result {
					t.Errorf("%s: GQL/%s diverges from golden:\ngot:\n%s\nwant:\n%s",
						path, st.name, got, c.result)
				}
				if got := streamResult(t, c, st.s); got != c.result {
					t.Errorf("%s: Stream/%s diverges from golden:\ngot:\n%s\nwant:\n%s",
						path, st.name, got, c.result)
				}
				if c.columns != "" {
					if got := pgqResult(t, c, st.s); got != c.table {
						t.Errorf("%s: PGQ/%s diverges from golden:\ngot:\n%s\nwant:\n%s",
							path, st.name, got, c.table)
					}
				}
			}
		})
	}
}

// TestConformanceCorpusCoversJoins pins the corpus shape: the §6.5
// multi-pattern join cases must be present, so the bind-join planner is
// always exercised by the golden battery.
func TestConformanceCorpusCoversJoins(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "conformance", "*.txt"))
	joins := 0
	for _, path := range files {
		c := parseConformanceCase(t, path)
		q, err := gpml.Compile(c.query, gpml.GQLMode())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(q.Explain()) > 2 { // multi-pattern: per-pattern lines + join steps
			joins++
		}
	}
	if joins < 3 {
		t.Fatalf("corpus has %d multi-pattern join cases, want >= 3", joins)
	}
}
