// Package gql implements the GQL host-language substrate of Figure 9: a
// catalog of named property graphs, sessions that run GPML matches against
// a current graph, binding-table outputs, and — the GQL-specific output
// form §6.6 describes — graph views: each match defines a subgraph of the
// input graph given by its bound nodes and edges, annotated with the
// variables assigned to them.
package gql

import (
	"fmt"
	"sort"

	"gpml/internal/binding"
	"gpml/internal/core"
	"gpml/internal/eval"
	"gpml/internal/graph"
	"gpml/internal/pgq"
)

// Catalog is a named collection of property graphs.
type Catalog struct {
	graphs map[string]graph.Store
	order  []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{graphs: map[string]graph.Store{}}
}

// Register adds a graph store under a name. Any backend works: the
// mutable map graph, a CSR snapshot, or a custom Store implementation.
func (c *Catalog) Register(name string, g graph.Store) error {
	if _, ok := c.graphs[name]; ok {
		return fmt.Errorf("gql: graph %q already registered", name)
	}
	c.graphs[name] = g
	c.order = append(c.order, name)
	return nil
}

// Graph resolves a name.
func (c *Catalog) Graph(name string) (graph.Store, error) {
	g, ok := c.graphs[name]
	if !ok {
		return nil, fmt.Errorf("gql: no graph named %q in catalog", name)
	}
	return g, nil
}

// Names lists registered graphs in registration order.
func (c *Catalog) Names() []string { return append([]string(nil), c.order...) }

// Session runs GQL statements against a catalog with a current graph.
type Session struct {
	catalog *Catalog
	current string
	// Config serves every statement; eval.StreamPlan refuses a statement
	// whose parameters Config.Params does not match exactly (missing or
	// unused), so a session binds parameters for one statement at a time.
	Config eval.Config
}

// NewSession opens a session on a catalog.
func NewSession(c *Catalog) *Session { return &Session{catalog: c} }

// Use selects the current graph.
func (s *Session) Use(name string) error {
	if _, err := s.catalog.Graph(name); err != nil {
		return err
	}
	s.current = name
	return nil
}

// CurrentGraph returns the session's current graph.
func (s *Session) CurrentGraph() (graph.Store, error) {
	if s.current == "" {
		return nil, fmt.Errorf("gql: no current graph; call Use first")
	}
	return s.catalog.Graph(s.current)
}

// Match compiles and evaluates a GPML statement in GQL mode (element
// equality permitted, §4.7) against the current graph, returning the
// binding table.
func (s *Session) Match(src string) (*eval.Result, error) {
	g, err := s.CurrentGraph()
	if err != nil {
		return nil, err
	}
	return s.matchOn(g, src)
}

// matchOn compiles the statement in GQL mode and evaluates it against g.
func (s *Session) matchOn(g graph.Store, src string) (*eval.Result, error) {
	q, err := core.Compile(src, core.Options{GQL: true})
	if err != nil {
		return nil, err
	}
	return eval.EvalPlan(g, q.Plan, s.Config)
}

// MatchTable evaluates the statement and projects each match to a table
// row, mirroring the SQL/PGQ GRAPH_TABLE output on the GQL side ("in the
// initial release of the GQL standard, outputs will be in line with those
// of SQL/PGQ", §6.6). Columns use the COLUMNS-clause syntax of pgq.
func (s *Session) MatchTable(src string, columns []pgq.Column) (*pgq.Table, error) {
	g, err := s.CurrentGraph()
	if err != nil {
		return nil, err
	}
	q, err := core.Compile(src, core.Options{GQL: true})
	if err != nil {
		return nil, err
	}
	return pgq.GraphTableQuery(g, q, columns, s.Config)
}

// GraphView is the graph-shaped output of §6.6: the subgraph induced by
// the matched bindings, with the variables annotating each element.
type GraphView struct {
	Graph *graph.Graph
	// Annotations maps element ids to the sorted set of non-anonymous
	// variables bound to them in at least one match.
	Annotations map[string][]string
}

// MatchGraph evaluates the statement and assembles the union subgraph of
// all matches. The current graph is pinned once, so the subgraph is
// projected from the epoch the statement matched.
func (s *Session) MatchGraph(src string) (*GraphView, error) {
	g, err := s.CurrentGraph()
	if err != nil {
		return nil, err
	}
	g = graph.Pin(g)
	res, err := s.matchOn(g, src)
	if err != nil {
		return nil, err
	}
	return BuildGraphView(g, res)
}

// BuildGraphView projects a result set to the induced annotated subgraph.
func BuildGraphView(g graph.Store, res *eval.Result) (*GraphView, error) {
	ann := map[string]map[string]struct{}{}
	nodes := map[graph.NodeID]struct{}{}
	edges := map[graph.EdgeID]struct{}{}
	note := func(id, v string) {
		set, ok := ann[id]
		if !ok {
			set = map[string]struct{}{}
			ann[id] = set
		}
		if v != "□" && v != "−" {
			set[v] = struct{}{}
		}
	}
	for _, row := range res.Rows {
		for _, rb := range row.Bindings {
			for i, col := range rb.Cols {
				id := rb.ColID(i)
				if col.Kind == binding.NodeElem {
					nodes[graph.NodeID(id)] = struct{}{}
				} else {
					edges[graph.EdgeID(id)] = struct{}{}
				}
				note(id, col.Var)
			}
		}
	}
	// Edges require their endpoints even when the endpoint node was not
	// itself bound (it always is under normalization, but be safe).
	for id := range edges {
		e := g.Edge(id)
		if e == nil {
			return nil, fmt.Errorf("gql: result references unknown edge %q", id)
		}
		nodes[e.Source] = struct{}{}
		nodes[e.Target] = struct{}{}
	}
	out := graph.New()
	// Deterministic assembly in the base graph's insertion order.
	g.Nodes(func(n *graph.Node) bool {
		if _, ok := nodes[n.ID]; ok {
			if err := out.AddNode(n.ID, n.Labels, n.Props); err != nil {
				panic(err) // fresh graph; unreachable
			}
		}
		return true
	})
	var addErr error
	g.Edges(func(e *graph.Edge) bool {
		if _, ok := edges[e.ID]; !ok {
			return true
		}
		var err error
		if e.Direction == graph.Directed {
			err = out.AddEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		} else {
			err = out.AddUndirectedEdge(e.ID, e.Source, e.Target, e.Labels, e.Props)
		}
		if err != nil {
			addErr = err
			return false
		}
		return true
	})
	if addErr != nil {
		return nil, addErr
	}
	view := &GraphView{Graph: out, Annotations: map[string][]string{}}
	for id, set := range ann {
		if len(set) == 0 {
			continue
		}
		vars := make([]string, 0, len(set))
		for v := range set {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		view.Annotations[id] = vars
	}
	return view, nil
}
