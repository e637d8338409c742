package eval

import (
	"context"
	"sort"
	"strings"
	"sync/atomic"

	"gpml/internal/binding"
	"gpml/internal/chunk"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Config tunes evaluation.
type Config struct {
	Limits Limits
	// EdgeIsomorphic enables the edge-isomorphic match mode sketched as a
	// language opportunity in §7.1: "all edges matched across all
	// constituent path patterns in the graph pattern [must] differ from
	// each other". Applied after the join and before the postfilter.
	EdgeIsomorphic bool
	// Limit, when positive, ends the stream after that many output rows.
	// In the pull pipeline this is a pushdown at seed granularity: no
	// pattern source starts a seed the kept rows do not reach, but each
	// seed it starts runs to completion before its first solution is
	// handed out, so a one-seed pattern pays for its whole answer (the
	// ROADMAP item "stream inside a seed" lifts this). The rows kept are
	// the first n in streaming (pipeline) order; Eval then presents them
	// in canonical order.
	Limit int
	// Params binds the statement's $name placeholders for this execution.
	// Binding happens here — not in the plan — so one compiled plan (with
	// its memoized automaton) serves any number of argument sets
	// concurrently. StreamPlan (and EvalPlan through it) validates the set
	// against the plan (plan.CheckBind) before it builds the pipeline;
	// Enumerate and MatchPattern do not, and an unbound placeholder they
	// reach is a *plan.BindError.
	Params Params
}

// BoundKind discriminates what a result variable is bound to.
type BoundKind uint8

// Binding kinds in result rows.
const (
	BoundNull BoundKind = iota
	BoundNode
	BoundEdge
	BoundGroup
	BoundPath
)

// Bound is the value of one variable in a result row. Node/Edge ids,
// the Group list and the Path are materialized by each Get; Idx keeps the
// element's dense index (relative to the query's pinned view) so
// downstream expression evaluation and joins stay integer-dense. Group
// entries stay interned.
type Bound struct {
	Kind  BoundKind
	Idx   graph.ElemIdx
	Node  graph.NodeID
	Edge  graph.EdgeID
	Group []binding.Ref
	Path  graph.Path

	// src is the query's pinned view; it resolves interned Group refs for
	// display.
	src graph.Stepper
}

// GroupIDs materializes the element ids of a group binding in sequence
// order (empty for non-group bindings). Group entries are stored interned;
// this is the supported way to read their ids from a result row.
func (b Bound) GroupIDs() []string {
	if b.Kind != BoundGroup {
		return nil
	}
	out := make([]string, len(b.Group))
	for i, r := range b.Group {
		out[i] = binding.ElemID(b.src, r.Kind, r.Idx)
	}
	return out
}

// String renders the binding for display.
func (b Bound) String() string {
	switch b.Kind {
	case BoundNode:
		return string(b.Node)
	case BoundEdge:
		return string(b.Edge)
	case BoundGroup:
		return "[" + strings.Join(b.GroupIDs(), ",") + "]"
	case BoundPath:
		return b.Path.String()
	}
	return "NULL"
}

// Row is one joined match of the whole graph pattern: one reduced binding
// per path pattern (§6.5), read through the plan's variable table. A
// variable's value is its binding in the first joined pattern that
// declares it; a shared variable reads the same element from each, since
// the join key encodes it by kind and index. A row a cursor hands out is
// borrowed (see Cursor): keep its Clone.
type Row struct {
	// Bindings holds one reduced binding per path pattern, indexed by
	// pattern (textual) order. During a join, patterns not yet joined are
	// nil; every completed row has all entries set.
	Bindings []*binding.Reduced
	table    map[string]*plan.VarInfo // the plan's Vars
}

// newRow returns a row of the plan with no pattern joined yet.
func newRow(p *plan.Plan) Row {
	return Row{Bindings: make([]*binding.Reduced, len(p.Paths)), table: p.Vars}
}

// Clone returns a deep copy of the row, its bindings included, that stays
// valid after the cursor that produced the row moves on or closes.
func (r *Row) Clone() *Row {
	return r.copyTo(new(Row), make([]*binding.Reduced, len(r.Bindings)), (*binding.Reduced).Clone)
}

// copyTo copies r into out, its bindings into storage sized for them,
// each by clone.
func (r *Row) copyTo(out *Row, binds []*binding.Reduced, clone func(*binding.Reduced) *binding.Reduced) *Row {
	*out = Row{Bindings: binds, table: r.table}
	for i, b := range r.Bindings {
		if b != nil {
			binds[i] = clone(b)
		}
	}
	return out
}

// rowArena is chunked storage for the rows Collect keeps.
type rowArena struct {
	rows  chunk.Buf[Row]
	binds chunk.Buf[*binding.Reduced]
	sols  binding.Arena
}

// clone copies r and its bindings into the arena.
func (a *rowArena) clone(r *Row) *Row {
	return r.copyTo(a.rows.New(), a.binds.Take(len(r.Bindings)), a.sols.Clone)
}

// lookup returns a variable's plan entry and the binding that holds it;
// ok is false when the row binds no such variable (unknown, anonymous,
// or declared only by patterns not joined yet).
func (r *Row) lookup(name string) (info *plan.VarInfo, sol *binding.Reduced, ok bool) {
	if info = r.table[name]; info == nil || info.Anon {
		return nil, nil, false
	}
	for _, i := range info.Patterns {
		if sol = r.Bindings[i]; sol != nil {
			return info, sol, true
		}
	}
	return nil, nil, false
}

// singleton returns the element a singleton variable is bound to; ok is
// false for an unbound, group or path variable.
func (r *Row) singleton(name string) (binding.Ref, bool) {
	info, sol, ok := r.lookup(name)
	if !ok || info.Group || info.Kind == plan.VarPath {
		return binding.Ref{}, false
	}
	return sol.Singleton(name)
}

// Get returns the binding of a variable in this row, its ids
// materialized. A declared singleton that did not bind is BoundNull.
func (r *Row) Get(name string) (b Bound, ok bool) {
	info, sol, ok := r.lookup(name)
	if !ok {
		return b, false
	}
	switch {
	case info.Kind == plan.VarPath:
		b.Kind, b.Path = BoundPath, sol.Path.Materialize(sol.Src)
	case info.Group:
		b.Kind, b.Group = BoundGroup, sol.Group(name)
	default:
		ref, bound := sol.Singleton(name)
		if !bound {
			return b, true // conditional singleton, unbound
		}
		b.Idx = ref.Idx
		if ref.Kind == binding.EdgeElem {
			b.Kind, b.Edge = BoundEdge, graph.EdgeID(sol.RefID(ref))
		} else {
			b.Kind, b.Node = BoundNode, graph.NodeID(sol.RefID(ref))
		}
	}
	b.src = sol.Src
	return b, true
}

// AppendCell appends what Get followed by String renders for a variable
// (NULL when unbound), straight from the binding: element ids from their
// interned strings, a group from the binding's columns and a path from
// its index path, so a cell allocates nothing.
func (r *Row) AppendCell(dst []byte, name string) []byte {
	info, sol, ok := r.lookup(name)
	switch {
	case !ok:
	case info.Kind == plan.VarPath:
		return sol.Path.AppendText(dst, sol.Src)
	case info.Group:
		dst = append(dst, '[')
		sep := ""
		for _, c := range sol.Cols {
			if c.Var == name {
				dst = append(dst, sep...)
				dst = append(dst, binding.ElemID(sol.Src, c.Kind, c.Idx)...)
				sep = ","
			}
		}
		return append(dst, ']')
	default:
		if ref, bound := sol.Singleton(name); bound {
			return append(dst, sol.RefID(ref)...)
		}
	}
	return append(dst, "NULL"...)
}

// Vars lists the bound variables of the row (sorted).
func (r *Row) Vars() []string {
	var out []string
	for name := range r.table {
		if _, _, ok := r.lookup(name); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Result is the output of evaluating a MATCH statement.
type Result struct {
	Columns []string
	Rows    []*Row
}

// EvalPlan evaluates a compiled plan against a store: each path pattern is
// solved separately (§6.5 "Multiple patterns"), results are joined on
// shared singleton variables, and the final WHERE postfilter is applied.
func EvalPlan(s graph.Store, p *plan.Plan, cfg Config) (*Result, error) {
	cur, err := StreamPlan(context.Background(), s, p, cfg)
	if err != nil {
		return nil, err
	}
	return Collect(cur, p)
}

// MatchPattern runs the full single-pattern pipeline — enumerate,
// reduce, deduplicate, select, in the §6 stage order per seed — and
// returns the solutions canonically sorted, in storage the caller owns.
func MatchPattern(s graph.Store, pp *plan.PathPlan, cfg Config) ([]*binding.Reduced, error) {
	return matchPatternStream(context.Background(), graph.AsStepper(s), pp, cfg, new(binding.Arena))
}

// Enumerate produces the raw (annotated) path bindings of one pattern. It
// seeds one engine run per candidate start node — from the store's
// equality index or label index when the plan proved a seed label (see
// forEachNode), a full scan otherwise. Search limits are shared across all
// seed runs. It keeps every binding the engines emit, so it keeps a Clone
// of each.
func Enumerate(s graph.Store, pp *plan.PathPlan, cfg Config) ([]*binding.PathBinding, error) {
	st := graph.AsStepper(s)
	bud := newBudget(context.Background(), cfg.Limits.withDefaults())
	var out []*binding.PathBinding
	engine, _ := engineFor(pp)
	run := seedRunner(st, pp, engine, cfg, bud, func(b *binding.PathBinding) error {
		out = append(out, b.Clone())
		return nil
	})
	var err error
	forEachNode(st, pp.SeedLabels, pp.HeadEq, cfg.Params, func(i int) bool {
		err = run(i)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachNode streams the candidate node indices of one end position:
// the first node (SeedLabels, HeadEq) or the last (TailLabels, TailEq), in
// label-scan order. endAccess picks the label and equality filters; with
// no proven label every live node is a candidate. The engines re-check the
// full node pattern, so the candidates only need to be a superset.
func forEachNode(st graph.Stepper, labels []string, eqs []plan.EqConjunct, params Params, f func(i int) bool) {
	if label, filters, ok := endAccess(st, labels, eqs, params); ok {
		st.NodesWithLabelIdx(label, f, filters...)
		return
	}
	// Scan the full index span and skip dead holes: on overlay epochs and
	// compacted bases, NumNodes counts live nodes but indices run sparse
	// in [0, span).
	for i, n := 0, st.NodeIndexSpan(); i < n; i++ {
		if st.NodeByIndex(i) == nil {
			continue
		}
		if !f(i) {
			return
		}
	}
}

// indexReads counts the end scans served from an equality index, for
// tests.
var indexReads atomic.Uint64

// endAccess picks how an end position's candidates are read: the label
// whose nodes are scanned (ok is false when none is proven) and, when the
// end has equality conjuncts, their resolved operands as index filters.
// The label is the cheapest by count, or, with filters on several labels,
// the one with the smallest candidate set. An operand that fails to
// resolve (an unbound parameter) drops the filters, so the engine reports
// the error on the first candidate exactly as the label scan would.
func endAccess(st graph.Stepper, labels []string, eqs []plan.EqConjunct, params Params) (string, []graph.PropEq, bool) {
	label, ok := graph.CheapestNodeLabel(st, labels)
	if !ok || len(eqs) == 0 {
		return label, nil, ok
	}
	filters := make([]graph.PropEq, len(eqs))
	for i, eq := range eqs {
		v, err := EvalValue(eq.Operand, elemResolver{params: params})
		if err != nil {
			return label, nil, true
		}
		filters[i] = graph.PropEq{Prop: eq.Prop, Val: v}
	}
	if len(labels) > 1 {
		// Count each label's candidates, stopping at the best so far.
		best := -1
		for _, l := range labels {
			n := 0
			st.NodesWithLabelIdx(l, func(int) bool { n++; return best < 0 || n < best }, filters...)
			if best < 0 || n < best {
				label, best = l, n
			}
		}
	}
	indexReads.Add(1)
	return label, filters, true
}

// seedRunner returns a function running one pass of the given engine per
// seed node index. Production callers pass engineFor's choice: the
// automaton engine when the plan proved the pattern eligible (product
// search plus replay, reused across seeds), the DFS machine run level by
// level by the BFS engine for the remaining selector-bounded patterns,
// and the backtracking DFS machine otherwise. The engine is an argument
// so the in-package differential tests can run the enumerating engine on
// a pattern the automaton would take. All engines run on the query's
// pinned Stepper view.
func seedRunner(st graph.Stepper, pp *plan.PathPlan, engine string, cfg Config, bud *budget, emit func(*binding.PathBinding) error) func(int) error {
	switch engine {
	case EngineAutomaton:
		return newAutoEngine(st, pp, cfg, bud, emit).run
	case EngineBFS:
		return newBFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, pp.Pattern.Selector, bud, emit).runBFS
	default:
		m := newDFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, bud, emit)
		m.maxEdges = pp.MaxEdges
		m.rings, _ = bud.rings.load(func() (*rings, error) { return tailRings(st, pp, cfg.Params), nil })
		return m.run
	}
}

// sharedVars lists the pattern's variables usable as equi-join keys with
// the already-joined prefix: singleton, non-path, and already bound
// (statically guaranteed to be unconditional singletons, §4.6).
func sharedVars(p *plan.Plan, pp *plan.PathPlan, bound map[string]bool) []string {
	var shared []string
	for _, v := range pp.Vars {
		if p.JoinableVar(v) && bound[v] {
			shared = append(shared, v)
		}
	}
	return shared
}

// markBound records the variables a joined pattern binds (pp.Vars lists
// its path variable too).
func markBound(bound map[string]bool, pp *plan.PathPlan) {
	for _, v := range pp.Vars {
		bound[v] = true
	}
}

// Join keys pack one fixed-width component per shared variable — a kind
// byte (0 node, 1 edge) followed by the 4-byte big-endian dense index —
// with a single 0xFF byte marking an unbound conditional singleton.
// Parsing is determined left to right (a component's first byte is 0, 1
// or 0xFF and fixes its width), so the encoding is prefix-free and two
// distinct binding tuples can never concatenate to the same key. Probe and
// build side index against the query's one pinned view.

const unboundKeyByte = 0xFF

// appendIdxComponent appends one bound component.
func appendIdxComponent(b []byte, kind binding.ElemKind, idx graph.ElemIdx) []byte {
	return append(b, byte(kind), byte(idx>>24), byte(idx>>16), byte(idx>>8), byte(idx))
}

// appendJoinKeyOfSolution appends a pattern solution's hash key over the
// shared join variables to buf.
func appendJoinKeyOfSolution(buf []byte, sol *binding.Reduced, shared []string) []byte {
	for _, v := range shared {
		if ref, ok := sol.Singleton(v); ok {
			buf = appendIdxComponent(buf, ref.Kind, ref.Idx)
		} else {
			buf = append(buf, unboundKeyByte)
		}
	}
	return buf
}

// appendJoinKeyOfRow appends the matching probe key of an accumulated row
// to buf.
func appendJoinKeyOfRow(buf []byte, row *Row, shared []string) []byte {
	for _, v := range shared {
		if ref, ok := row.singleton(v); ok {
			buf = appendIdxComponent(buf, ref.Kind, ref.Idx)
		} else {
			buf = append(buf, unboundKeyByte)
		}
	}
	return buf
}

// joinRow writes into dst, a row of the same plan, the row prefix
// extended with a solution of pattern at, and returns dst. It checks
// nothing: the probe key already made sol agree with prefix on every
// shared variable by (kind, index), and the plan joins patterns only on
// unconditional singletons (§4.6). dst is the calling cursor's one row,
// reused from row to row; prefix is another cursor's.
func joinRow(dst, prefix *Row, at int, sol *binding.Reduced) *Row {
	copy(dst.Bindings, prefix.Bindings)
	dst.Bindings[at] = sol
	return dst
}

// rowEdgeIsomorphic reports whether every edge occurrence across the row's
// path bindings is distinct (§7.1's edge-isomorphic match mode).
func rowEdgeIsomorphic(row *Row) bool {
	seen := map[graph.ElemIdx]struct{}{}
	for _, rb := range row.Bindings {
		for _, col := range rb.Cols {
			if col.Kind != binding.EdgeElem {
				continue
			}
			if _, dup := seen[col.Idx]; dup {
				return false
			}
			seen[col.Idx] = struct{}{}
		}
	}
	return true
}

// rowResolver evaluates expressions over a joined row against the view
// its bindings were matched on.
type rowResolver struct {
	g      graph.Stepper
	row    *Row
	params Params
}

// ParamValue resolves a $name placeholder from the execution's bound set.
func (r rowResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := r.params[name]
	return v, ok
}

func (r rowResolver) Graph() graph.Stepper { return r.g }

func (r rowResolver) Elem(name string) (binding.Ref, bool) { return r.row.singleton(name) }

func (r rowResolver) Group(name string) ([]binding.Ref, bool) {
	b, ok := r.row.Get(name)
	if !ok || b.Kind != BoundGroup {
		return nil, false
	}
	return b.Group, true
}

// RowResolver exposes a row as an expression resolver for host-language
// projections (SQL/PGQ COLUMNS, GQL RETURN) over a completed result row. It
// reads the pinned view the row was matched on, so a projection sees the
// epoch the MATCH saw.
func RowResolver(row *Row) Resolver { return rowResolver{g: row.Bindings[0].Src, row: row} }
