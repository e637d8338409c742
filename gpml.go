// Package gpml is a from-scratch Go implementation of GPML, the graph
// pattern matching language shared by the ISO GQL and SQL/PGQ standards,
// as described in "Graph Pattern Matching in GQL and SQL/PGQ" (Deutsch et
// al., SIGMOD 2022).
//
// The package exposes:
//
//   - the property graph data model (Definition 2.1): mixed multigraphs
//     with labels and properties — Graph, Node, Edge, Path, Builder;
//   - compiled GPML queries: Compile / MustCompile and Query.Eval,
//     covering node/edge/path patterns, the seven edge orientations,
//     quantifiers and group variables, path pattern union and multiset
//     alternation, conditional variables, graphical predicates,
//     restrictors (TRAIL/ACYCLIC/SIMPLE) and selectors (ANY/ALL SHORTEST,
//     ANY k, SHORTEST k [GROUP]);
//   - both host-language substrates: SQL/PGQ graph views over tables with
//     GRAPH_TABLE projection (package pgq via the PGQ helpers here) and
//     GQL catalogs/sessions with graph outputs (the GQL helpers);
//   - the paper's Figure 1 graph and synthetic workload generators.
//
// Quickstart:
//
//	g := gpml.Fig1()
//	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked='no')`)
//	res, err := q.Eval(g)
//	if err != nil { ... }
//	for _, row := range res.Rows {
//	    x, _ := row.Get("x")
//	    fmt.Println(x)
//	}
package gpml

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"gpml/internal/binding"
	"gpml/internal/core"
	"gpml/internal/dataset"
	"gpml/internal/eval"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Re-exported data model types. These are aliases, so values flow freely
// between the public API and the internal packages.
type (
	// Graph is a property graph (Definition 2.1), the mutable map-backed
	// Store implementation.
	Graph = graph.Graph
	// Store is the abstract graph backend the evaluator runs against:
	// nine methods (lookup by id, counts, iteration, label scans and
	// statistics), no dense indices and no interner. *Graph, *CSR and
	// *Overlay implement it; a custom backend plugs in via WithStore or
	// EvalStore and is snapshotted once per query.
	Store = graph.Store
	// CSR is an immutable compressed-sparse-row snapshot of a Graph with a
	// label → nodes inverted index and precomputed cardinality statistics.
	CSR = graph.CSR
	// Overlay is the epoch-snapshot delta store: an immutable CSR base plus
	// an in-memory delta, serving readers lock-free epoch snapshots while
	// writers batch mutations and a background compactor folds the delta
	// into a fresh base. See NewOverlay.
	Overlay = graph.Overlay
	// Batch stages mutations for one atomic Overlay.Apply.
	Batch = graph.Batch
	// OverlaySnap is one immutable epoch of an Overlay; it is a full Store,
	// so queries pin and evaluate against it like a CSR.
	OverlaySnap = graph.OverlaySnap
	// OverlayOption configures NewOverlay.
	OverlayOption = graph.OverlayOption
	// StoreStats summarizes a store's per-label cardinalities.
	StoreStats = graph.StoreStats
	// Node is a graph node with labels and properties.
	Node = graph.Node
	// Edge is a directed or undirected graph edge.
	Edge = graph.Edge
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// EdgeID identifies an edge.
	EdgeID = graph.EdgeID
	// Path is an alternating node/edge sequence (a walk).
	Path = graph.Path
	// Builder assembles graphs fluently.
	Builder = graph.Builder
	// Value is a property value (string, int, float, bool or NULL).
	Value = value.Value
	// Result is a set of joined match rows.
	Result = eval.Result
	// Row is one match of the whole graph pattern. A streamed row
	// (Rows.Row, a ForEach callback's argument) is borrowed until the
	// next Next or Close; Row.Clone returns a copy to keep. A Result's
	// rows are the caller's.
	Row = eval.Row
	// Bound is the value of one variable in a row.
	Bound = eval.Bound
	// Reduced is a reduced path binding (the §6 output object).
	Reduced = binding.Reduced
	// Limits bound the match search.
	Limits = eval.Limits
	// LimitError is the error evaluation returns when a search budget in
	// Limits is exhausted (match count, search state, or path depth).
	LimitError = eval.LimitError
	// BindError is the positioned error reported when a query's $name
	// placeholders and the WithParams bindings disagree: a placeholder
	// without a value, a supplied name the query never uses, or an unbound
	// placeholder reached at evaluation time.
	BindError = plan.BindError
)

// Binding kinds of result variables.
const (
	BoundNull  = eval.BoundNull
	BoundNode  = eval.BoundNode
	BoundEdge  = eval.BoundEdge
	BoundGroup = eval.BoundGroup
	BoundPath  = eval.BoundPath
)

// NewGraph returns an empty property graph.
func NewGraph() *Graph { return graph.New() }

// Snapshot builds an immutable CSR snapshot of a graph: int-indexed
// adjacency, a label-indexed seed path for MATCH, and precomputed label
// statistics. Snapshots are safe for any number of concurrent readers;
// take a fresh one after mutating the source graph. (Queries on a *Graph
// itself run on such a snapshot, memoized until the next mutation.)
func Snapshot(g *Graph) *CSR { return graph.Snapshot(g) }

// NewBuilder returns a fluent graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// NewOverlay layers a mutable epoch-snapshot delta store over a CSR
// snapshot of g (which may be nil for an initially empty store). The
// overlay serves live mutation under read traffic: queries evaluate
// against lock-free epoch-pinned snapshots (a running query never
// observes a mix of epochs), writers stage batches via Begin and publish
// them atomically via Apply, and a background compactor merges the delta
// into a fresh CSR base once it outgrows the compaction threshold while
// readers keep draining whatever epoch they pinned.
//
//	ov := gpml.NewOverlay(g)
//	b := ov.Begin().
//	    AddNode("a9", []string{"Account"}, nil).
//	    AddEdge("t9", "a9", "a1", []string{"Transfer"}, nil)
//	if err := ov.Apply(b); err != nil { ... }
//	res, err := q.EvalStore(ov) // pins the then-current epoch
//
// Element indices are stable across epochs and compactions, so compiled
// queries, interned bindings, and all engine fast paths run unchanged on
// every epoch.
func NewOverlay(g *Graph, opts ...OverlayOption) *Overlay {
	if g == nil {
		g = graph.New()
	}
	return graph.NewOverlay(graph.Snapshot(g), opts...)
}

// NewOverlayFromCSR layers the overlay over an existing CSR snapshot
// without rebuilding it.
func NewOverlayFromCSR(base *CSR, opts ...OverlayOption) *Overlay {
	return graph.NewOverlay(base, opts...)
}

// WithCompactThreshold sets the delta size (new elements + tombstones +
// overrides) at which Apply triggers background compaction; n <= 0
// disables automatic compaction (Overlay.Compact still works).
func WithCompactThreshold(n int) OverlayOption { return graph.WithCompactThreshold(n) }

// Fig1 builds the paper's Figure 1 banking graph.
func Fig1() *Graph { return dataset.Fig1() }

// Str, Int, Float, Bool and Null construct property values.
func Str(s string) Value { return value.Str(s) }

// Int constructs an integer property value.
func Int(i int64) Value { return value.Int(i) }

// Float constructs a float property value.
func Float(f float64) Value { return value.Float(f) }

// Bool constructs a boolean property value.
func Bool(b bool) Value { return value.Bool(b) }

// Null is the NULL property value.
var Null = value.Null

// Query is a compiled GPML statement, reusable across graphs and safe for
// concurrent evaluation.
type Query struct {
	q       *core.Query
	lims    Limits
	edgeIso bool
	store   Store
	limit   int
	ctx     context.Context
	params  map[string]Value
}

// Option configures compilation or evaluation.
type Option func(*options)

type options struct {
	gql     bool
	lims    Limits
	edgeIso bool
	store   Store
	limit   int
	ctx     context.Context
	params  map[string]Value
}

func (o options) config() eval.Config {
	return eval.Config{
		Limits:         o.lims,
		EdgeIsomorphic: o.edgeIso,
		Limit:          o.limit,
		Params:         eval.Params(o.params),
	}
}

// GQLMode enables GQL host semantics: element references may be compared
// with = and <> (§4.7). The default is the portable core (SQL/PGQ rules).
func GQLMode() Option { return func(o *options) { o.gql = true } }

// WithLimits overrides the default search limits.
func WithLimits(l Limits) Option { return func(o *options) { o.lims = l } }

// EdgeIsomorphic enables the edge-isomorphic match mode of the paper's
// §7.1 language opportunities: all edges matched across the whole graph
// pattern must be pairwise distinct.
func EdgeIsomorphic() Option { return func(o *options) { o.edgeIso = true } }

// WithStore evaluates against the given store instead of the *Graph
// argument of Eval/Match (which may then be nil). Pair it with Snapshot to
// run queries on the CSR backend:
//
//	snap := gpml.Snapshot(g)
//	res, err := q.Eval(nil, gpml.WithStore(snap))
//
// Passed at Compile time it only provides a default target: a non-nil
// graph handed to Eval still wins, so compiled queries stay reusable
// across graphs.
func WithStore(s Store) Option { return func(o *options) { o.store = s } }

// WithContext attaches a context to evaluation: cancellation or an
// expired deadline aborts the in-flight search promptly (the engines
// poll every few thousand edge expansions) and Eval/Stream/ForEach
// return the context's error. A context passed directly to Stream or
// ForEach wins over this option.
func WithContext(ctx context.Context) Option { return func(o *options) { o.ctx = ctx } }

// WithLimit caps the number of output rows at n (0 = unlimited). In the
// streaming pipeline this is a LIMIT pushdown at seed granularity: once n
// rows have been produced no further seed is searched, so a selective
// limit over a match space spread over many seeds pays for the seeds it
// reaches, not the total enumeration; a seed, once started, is searched
// to the end. The rows kept are the first n in streaming order; Eval
// presents them canonically ordered.
func WithLimit(n int) Option { return func(o *options) { o.limit = n } }

// WithParams binds values to the statement's $name placeholders for one
// evaluation. A compiled query with parameters is a prepared statement:
// the plan (and its memoized pattern automaton) is built once and reused
// across any number of argument sets, with binding resolved at execution
// time. Every placeholder must be bound and every supplied name must be
// used; violations surface as a positioned bind error before any
// evaluation work starts. Passed at Compile time the bindings become the
// query's defaults, overridable per evaluation.
//
//	q := gpml.MustCompile(`MATCH (x:Account WHERE x.isBlocked = $blocked)`)
//	res, err := q.Eval(g, gpml.WithParams(map[string]gpml.Value{
//	    "blocked": gpml.Str("yes"),
//	}))
func WithParams(args map[string]Value) Option {
	return func(o *options) { o.params = args }
}

// Params returns the names of the query's $name placeholders in first
// occurrence order (empty for a parameter-free statement).
func (q *Query) Params() []string {
	uses := q.q.Plan.Params
	if len(uses) == 0 {
		return nil
	}
	names := make([]string, len(uses))
	for i := range uses {
		names[i] = uses[i].Name
	}
	return names
}

// Compile parses, normalizes, analyzes and plans a GPML MATCH statement.
func Compile(src string, opts ...Option) (*Query, error) {
	var o options
	for _, f := range opts {
		f(&o)
	}
	q, err := core.Compile(src, core.Options{GQL: o.gql})
	if err != nil {
		return nil, err
	}
	return &Query{q: q, lims: o.lims, edgeIso: o.edgeIso, store: o.store, limit: o.limit, ctx: o.ctx, params: o.params}, nil
}

// MustCompile is Compile that panics on error; for fixtures and examples.
func MustCompile(src string, opts ...Option) *Query {
	q, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// Eval evaluates the query against a graph. The evaluation target is
// resolved in precedence order: a WithStore option passed to Eval wins,
// then a non-nil graph argument, then a store fixed at Compile time — so
// an explicitly passed graph is never silently shadowed by a store the
// query was compiled with.
func (q *Query) Eval(g *Graph, opts ...Option) (*Result, error) {
	rows, err := q.open(q.options(opts), g)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// options seeds an option set from the query's compile-time defaults.
func (q *Query) options(opts []Option) options {
	o := options{lims: q.lims, edgeIso: q.edgeIso, limit: q.limit, ctx: q.ctx, params: q.params}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Stop, returned from a ForEach callback, ends iteration early without
// error — the streaming pipeline shuts down having computed only the
// rows delivered so far.
var Stop = errors.New("gpml: stop iteration")

// Rows is a streaming result iterator (database/sql style): rows arrive
// as the engines produce them, in deterministic pipeline order —
// seed-major, shortest-exits-first per engine — rather than Eval's
// canonical sorted order, which is the one blocking stage streaming
// skips. The pipeline runs on the goroutine that calls Next, so an
// abandoned iterator does no further work; Close must still be called
// when done (whether or not the stream was drained). Row consumption is
// single-threaded (one goroutine drives Next/Row/Collect), but Close is
// safe from any goroutine at any time — including concurrently with a
// blocked Next and from several goroutines at once — and a Next
// interrupted by Close ends the stream cleanly instead of reporting the
// self-inflicted cancellation.
//
//	rows, err := q.Stream(ctx, store)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row()) // borrowed until the next Next; keep rows.Row().Clone()
//	}
//	if err := rows.Err(); err != nil { ... }
type Rows struct {
	q      *Query
	cancel context.CancelFunc
	// closed is set by Close before it cancels the pipeline's context and
	// waits for mu, so a Next it cuts off can tell the cancellation was
	// self-inflicted.
	closed atomic.Bool

	// mu serializes the single-threaded cursor: Next, Collect and Close
	// hold it across their cursor calls. cur is nil once torn down.
	mu  sync.Mutex
	cur eval.Cursor
	err error
	row *Row // the consumer's alone: Next sets it, Row reads it
}

// Next advances to the next row, reporting whether one is available. It
// returns false at exhaustion, on error (see Err), and after Close.
func (r *Rows) Next() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.row = nil
	if r.closed.Load() || r.err != nil {
		return false
	}
	row, err := r.cur.Next()
	if r.closed.Load() {
		// Close cancelled the pipeline under this Next; the cancellation
		// (and any error it surfaced) is self-inflicted, so a closed
		// iterator ends cleanly rather than failing.
		return false
	}
	if err != nil {
		r.err = err
		return false
	}
	r.row = row
	return row != nil
}

// Row returns the current row, valid after a true Next and until the next
// call to Next or Close, like bufio.Scanner.Bytes: the pipeline writes
// the next row into the same storage. A caller that keeps a row past
// that keeps row.Clone(). Only the consuming goroutine reads or writes
// it (Close leaves it alone), so it takes no lock.
func (r *Rows) Row() *Row { return r.row }

// Err returns the error that ended iteration, if any. A cancelled
// context surfaces here as the context's error. Err shares the lock Next
// and Collect hold across their cursor calls, so a call from another
// goroutine waits for an in-flight Next or Collect to return.
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Columns returns the output column order.
func (r *Rows) Columns() []string { return r.q.Columns() }

// Close stops the streaming pipeline, waiting for an in-flight Next to
// return. It is idempotent and safe to call concurrently with Next and
// with other Close calls: the pipeline's context is cancelled first
// (which unblocks an in-flight Next), the cursor teardown runs exactly
// once, and every caller returns after it has completed. The first
// teardown returns the cursor's Close error; later calls return nil.
func (r *Rows) Close() error {
	r.closed.Store(true)
	r.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.teardown()
}

// teardown closes the cursor once; r.mu must be held.
func (r *Rows) teardown() error {
	cur := r.cur
	if cur == nil {
		return nil
	}
	r.cur = nil
	return cur.Close()
}

// Collect drains the remaining rows, closes the iterator, and returns
// them as a Result in Eval's canonical order. When no rows have been
// consumed yet, Stream + Collect is byte-identical to Eval; rows already
// delivered through Next are not re-collected.
func (r *Rows) Collect() (*Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, fmt.Errorf("gpml: Collect on closed Rows")
	}
	r.closed.Store(true)
	defer r.cancel()
	if r.err != nil {
		// Iteration already failed; a partial collection would silently
		// mask the evaluation error.
		r.teardown()
		return nil, r.err
	}
	cur := r.cur
	r.cur = nil
	res, err := eval.Collect(cur, r.q.q.Plan) // closes cur
	if err != nil {
		r.err = err
		return nil, err
	}
	return res, nil
}

// Stream starts the pull-based streaming pipeline for the query and
// returns a row iterator. The first row is available as soon as the
// engines produce it — long before full enumeration would finish — and
// abandoning the iterator (Close, or a LIMIT via WithLimit) stops all
// upstream work. A nil ctx falls back to WithContext, then Background.
// The store resolves like Eval: WithStore wins, then the s argument,
// then a store fixed at Compile time. A map-backed *Graph must not be
// mutated while the stream is open (evaluation spans the whole
// iteration, not just the Stream call); CSR snapshots are immutable and
// always safe, and an Overlay is pinned to its current epoch when the
// stream starts, so concurrent Apply and compaction never disturb an
// open stream.
func (q *Query) Stream(ctx context.Context, s Store, opts ...Option) (*Rows, error) {
	o := q.options(opts)
	if ctx != nil {
		o.ctx = ctx
	}
	var g *Graph
	if mg, ok := s.(*Graph); ok {
		g = mg
	} else if s != nil && o.store == nil {
		o.store = s
	}
	return q.open(o, g)
}

// open starts the pipeline on the evaluation store: a WithStore option
// wins, then a non-nil graph argument, then a store fixed at Compile time.
func (q *Query) open(o options, g *Graph) (*Rows, error) {
	st := o.store
	if st == nil && g != nil {
		st = g
	}
	if st == nil {
		st = q.store
	}
	if st == nil {
		return nil, fmt.Errorf("gpml: nil graph (pass a graph or WithStore)")
	}
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The Rows owns a derived cancel so Close can abort a Next blocked in
	// the pipeline from another goroutine.
	ctx, cancel := context.WithCancel(ctx)
	cur, err := eval.StreamPlan(ctx, st, q.q.Plan, o.config())
	if err != nil {
		cancel()
		return nil, err
	}
	return &Rows{q: q, cur: cur, cancel: cancel}, nil
}

// ForEach streams the query's rows through fn, stopping at the first
// error; returning Stop ends iteration early with a nil error. The row fn
// receives is valid only until fn returns: fn keeps row.Clone(), not the
// row. The pipeline is always closed before ForEach returns.
func (q *Query) ForEach(ctx context.Context, s Store, fn func(*Row) error, opts ...Option) error {
	rows, err := q.Stream(ctx, s, opts...)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		if err := fn(rows.Row()); err != nil {
			if errors.Is(err, Stop) {
				return nil
			}
			return err
		}
	}
	return rows.Err()
}

// Explain reports, one line per path pattern, which engine evaluates the
// query (dfs, bfs, or automaton — a function of the plan alone), the selector
// and proven seed labels, the reason the automaton engine is unavailable
// when it is not used, and the pattern's streaming pipeline stages
// annotated blocking/streamable. For multi-pattern statements it appends
// the cost-ordered join plan, one "join step" line per pattern: the
// chosen order, whether each step is a seeded bind join (and through
// which variable) or a scan/hash-join fallback, and its cost estimate.
// Cardinality statistics come from a store passed via WithStore (or fixed
// at Compile time); without one the join ranking is structure-only.
func (q *Query) Explain(opts ...Option) []string {
	o := q.options(opts)
	s := o.store
	if s == nil {
		s = q.store
	}
	return eval.ExplainStore(s, q.q.Plan)
}

// EvalStore evaluates the query against any Store implementation.
func (q *Query) EvalStore(s Store, opts ...Option) (*Result, error) {
	return q.Eval(nil, append([]Option{WithStore(s)}, opts...)...)
}

// Columns returns the output column order (named variables by first
// appearance, including path variables).
func (q *Query) Columns() []string { return q.q.Columns() }

// Source returns the original query text.
func (q *Query) Source() string { return q.q.Source }

// Normalized returns the §6.2 normalized form of the pattern, rendered
// back to GPML syntax (anonymous variables hidden).
func (q *Query) Normalized() string { return q.q.Normalized.String() }

// positioned is implemented by compile- and bind-time errors that carry
// a 1-based source position: lexer and parser errors, and parameter bind
// errors.
type positioned interface{ Pos() (line, col int) }

// ErrorPosition reports the 1-based source position a compile- or
// bind-time error points at; ok is false for errors without one.
func ErrorPosition(err error) (line, col int, ok bool) {
	var p positioned
	if !errors.As(err, &p) {
		return 0, 0, false
	}
	line, col = p.Pos()
	return line, col, line > 0 && col > 0
}

// Diagnostic renders a caret-style source excerpt for an error produced
// by Compile, CheckBind, or evaluation against src: the offending source
// line followed by a "^" marker under the error's column. It returns ""
// when the error carries no source position or the position falls
// outside src, so callers can unconditionally append the result to an
// error report.
//
//	gpml: parse error at 1:11: expected pattern element
//	  MATCH (a)-[e->(b)
//	            ^
func Diagnostic(src string, err error) string {
	var p positioned
	if !errors.As(err, &p) {
		return ""
	}
	line, col := p.Pos()
	if line <= 0 || col <= 0 {
		return ""
	}
	lines := strings.Split(src, "\n")
	if line > len(lines) {
		return ""
	}
	text := strings.TrimRight(lines[line-1], "\r")
	if col > len(text)+1 {
		return ""
	}
	// Columns count bytes; mirror tabs so the caret lines up under any
	// tab width.
	var b strings.Builder
	b.WriteString("  ")
	b.WriteString(text)
	b.WriteString("\n  ")
	for i := 0; i < col-1 && i < len(text); i++ {
		if text[i] == '\t' {
			b.WriteByte('\t')
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('^')
	return b.String()
}

// Match is a convenience wrapper: compile and evaluate in one step.
func Match(g *Graph, src string, opts ...Option) (*Result, error) {
	q, err := Compile(src, opts...)
	if err != nil {
		return nil, err
	}
	return q.Eval(g, opts...)
}
