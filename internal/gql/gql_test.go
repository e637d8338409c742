package gql

import (
	"strings"
	"testing"

	"gpml/internal/dataset"
	"gpml/internal/graph"
	"gpml/internal/pgq"
	"gpml/internal/value"
)

func session(t *testing.T) *Session {
	t.Helper()
	cat := NewCatalog()
	if err := cat.Register("bank", dataset.Fig1()); err != nil {
		t.Fatal(err)
	}
	s := NewSession(cat)
	if err := s.Use("bank"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	g := dataset.Fig1()
	if err := cat.Register("bank", g); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("bank", g); err == nil {
		t.Errorf("duplicate registration must fail")
	}
	if _, err := cat.Graph("none"); err == nil {
		t.Errorf("unknown graph must fail")
	}
	if names := cat.Names(); len(names) != 1 || names[0] != "bank" {
		t.Errorf("names: %v", names)
	}
	s := NewSession(cat)
	if _, err := s.CurrentGraph(); err == nil {
		t.Errorf("no current graph before Use")
	}
	if err := s.Use("none"); err == nil {
		t.Errorf("Use of unknown graph must fail")
	}
}

func TestSessionMatch(t *testing.T) {
	s := session(t)
	res, err := s.Match(`MATCH (x:Account WHERE x.isBlocked='yes')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	x, _ := res.Rows[0].Get("x")
	if x.Node != "a4" {
		t.Errorf("blocked account: %v", x.Node)
	}
}

// GQL mode allows element equality (§4.7).
func TestSessionElementEquality(t *testing.T) {
	s := session(t)
	res, err := s.Match(`
		MATCH (a)-[:Transfer]->(b)-[:Transfer]->(c)-[:Transfer]->(d)
		WHERE a = d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("transfer triangles via =: got %d rows, want 3", len(res.Rows))
	}
}

// §6.6: the graph-shaped output is the subgraph induced by the matches,
// annotated with the matched variables.
func TestMatchGraph(t *testing.T) {
	s := session(t)
	view, err := s.MatchGraph(`
		MATCH (x:Account WHERE x.owner='Jay')-[e:Transfer]->(y:Account)`)
	if err != nil {
		t.Fatal(err)
	}
	g := view.Graph
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("view: %s", g.Stats())
	}
	if g.Node("a4") == nil || g.Node("a6") == nil || g.Edge("t4") == nil {
		t.Errorf("view must contain a4, a6 and t4")
	}
	if got := strings.Join(view.Annotations["a4"], ","); got != "x" {
		t.Errorf("a4 annotation: %q", got)
	}
	if got := strings.Join(view.Annotations["t4"], ","); got != "e" {
		t.Errorf("t4 annotation: %q", got)
	}
	// Properties survive the projection.
	if v := g.Node("a4").Prop("owner"); v.Display() != "Jay" {
		t.Errorf("projected property: %v", v)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("view must be a valid graph: %v", err)
	}
}

// A variable bound to multiple elements across matches annotates each.
func TestMatchGraphMultiAnnotations(t *testing.T) {
	s := session(t)
	view, err := s.MatchGraph(`MATCH (x:Account)-[e:Transfer]->(y:Account WHERE y.owner='Charles')`)
	if err != nil {
		t.Fatal(err)
	}
	// Transfers into a5: t6 (from a6) and t7 (from a3).
	if view.Graph.NumEdges() != 2 {
		t.Fatalf("view edges: %d", view.Graph.NumEdges())
	}
	if got := strings.Join(view.Annotations["a5"], ","); got != "y" {
		t.Errorf("a5 annotation: %q", got)
	}
	// a3 is an x in one match; x annotates it.
	if got := strings.Join(view.Annotations["a3"], ","); got != "x" {
		t.Errorf("a3 annotation: %q", got)
	}
}

// The undirected edges keep their direction kind in views.
func TestMatchGraphUndirected(t *testing.T) {
	s := session(t)
	view, err := s.MatchGraph(`MATCH (p:Phone WHERE p.number='111')~[h:hasPhone]~(a:Account)`)
	if err != nil {
		t.Fatal(err)
	}
	if view.Graph.NumEdges() != 2 {
		t.Fatalf("p1 connects two accounts: %s", view.Graph.Stats())
	}
	view.Graph.Edges(func(e *graph.Edge) bool {
		if e.Direction != graph.Undirected {
			t.Errorf("edge %s lost undirectedness", e.ID)
		}
		return true
	})
}

func TestMatchGraphPathQuery(t *testing.T) {
	s := session(t)
	view, err := s.MatchGraph(`
		MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')`)
	if err != nil {
		t.Fatal(err)
	}
	// The three trails cover accounts a6,a3,a2,a5,a1 and edges
	// t5,t2,t6,t8,t1,t7.
	if view.Graph.NumNodes() != 5 || view.Graph.NumEdges() != 6 {
		t.Errorf("trail union subgraph: %s", view.Graph.Stats())
	}
}

func TestSessionCompileError(t *testing.T) {
	s := session(t)
	if _, err := s.Match(`MATCH (a)-[e]->*(b)`); err == nil {
		t.Errorf("termination rule applies in sessions too")
	}
	if _, err := s.MatchGraph(`not a query`); err == nil {
		t.Errorf("parse errors propagate")
	}
}

// MatchTable mirrors GRAPH_TABLE on the GQL side (§6.6: initial GQL
// outputs align with SQL/PGQ).
func TestMatchTable(t *testing.T) {
	s := session(t)
	cols, err := pgq.ParseColumns("x.owner AS who, COUNT(e) AS hops")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.MatchTable(`
		MATCH ANY SHORTEST (x:Account WHERE x.owner='Dave')-[e:Transfer]->+
		      (y:Account WHERE y.owner='Jay')`, cols)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 {
		t.Fatalf("rows: %d", tbl.NumRows())
	}
	who, _ := tbl.Get(0, "who")
	hops, _ := tbl.Get(0, "hops")
	if who.Display() != "Dave" || hops.Display() != "3" {
		t.Errorf("row: %v %v", who, hops)
	}
	// GQL-only expressions work through MatchTable (element equality).
	_, err = s.MatchTable(`MATCH (a)-[:Transfer]->(b) WHERE a = b`, cols[:1])
	if err == nil {
		t.Errorf("projection must reject columns over undeclared vars")
	}
}

// Session limits propagate to evaluation.
func TestSessionLimits(t *testing.T) {
	s := session(t)
	s.Config.Limits.MaxMatches = 2
	_, err := s.Match(`MATCH TRAIL p = (a)-[e:Transfer]->*(b)`)
	if err == nil {
		t.Errorf("session limits must apply")
	}
}

// skewSource is a live overlay whose first PinEpoch hands out the current
// epoch and then applies a batch, so every later read of the live store
// sees a newer epoch than the one the query pinned.
type skewSource struct {
	*graph.Overlay
	pinned bool
	batch  func(*graph.Batch) *graph.Batch
}

func (s *skewSource) PinEpoch() graph.Store {
	snap := s.Overlay.PinEpoch()
	if !s.pinned {
		s.pinned = true
		if err := s.Apply(s.batch(s.Begin())); err != nil {
			panic(err)
		}
	}
	return snap
}

// TestSessionProjectsThePinnedEpoch: MatchTable and MatchGraph project
// their rows from the epoch the MATCH ran on. A write landing right after
// the pin rewrites the matched node's owner and deletes the matched edge;
// COLUMNS must still show the value the WHERE saw, and the graph view must
// still hold the edge.
func TestSessionProjectsThePinnedEpoch(t *testing.T) {
	const match = `MATCH (x:Account WHERE x.owner='Scott')-[t:Transfer]->(y:Account)`
	session := func(t *testing.T) *Session {
		t.Helper()
		cat := NewCatalog()
		src := &skewSource{
			Overlay: graph.NewOverlay(graph.Snapshot(dataset.Fig1())),
			batch: func(b *graph.Batch) *graph.Batch {
				return b.SetNodeProp("a1", "owner", value.Str("Changed")).DeleteEdge("t1")
			},
		}
		if err := cat.Register("live", src); err != nil {
			t.Fatal(err)
		}
		s := NewSession(cat)
		if err := s.Use("live"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("table", func(t *testing.T) {
		cols, err := pgq.ParseColumns(`x.owner AS owner, t.amount AS amount`)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := session(t).MatchTable(match, cols)
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != 1 {
			t.Fatalf("%d rows, want 1:\n%s", tab.NumRows(), tab)
		}
		if owner, _ := tab.Get(0, "owner"); !value.Identical(owner, value.Str("Scott")) {
			t.Errorf("owner = %v, want the matched epoch's Scott", owner)
		}
	})
	t.Run("graph", func(t *testing.T) {
		view, err := session(t).MatchGraph(match)
		if err != nil {
			t.Fatal(err)
		}
		if view.Graph.Edge("t1") == nil {
			t.Errorf("graph view lost the matched edge t1")
		}
		if n := view.Graph.Node("a1"); n == nil || !value.Identical(n.Prop("owner"), value.Str("Scott")) {
			t.Errorf("graph view node a1 = %v, want owner Scott", n)
		}
	})
}
