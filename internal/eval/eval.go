package eval

import (
	"context"
	"sort"
	"sync/atomic"

	"gpml/internal/binding"
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
	// In the pull pipeline this is a genuine pushdown: upstream stages
	// never compute work the cut-off rows would have demanded. The rows
	// kept are the first n in streaming (pipeline) order; Eval then
	// presents them in canonical order.
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

// Bound is the value of one variable in a result row. Node/Edge ids are
// materialized once, when the row is assembled, the Group list and the
// Path by each Get; Idx keeps the element's dense index (relative to the
// query's pinned view) so downstream expression evaluation and joins stay
// integer-dense. Group entries stay interned.
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
	case BoundGroup, BoundPath:
		return string(b.AppendText(nil))
	}
	return "NULL"
}

// AppendText appends the String rendering to dst.
func (b Bound) AppendText(dst []byte) []byte {
	switch b.Kind {
	case BoundGroup:
		dst = append(dst, '[')
		for i, r := range b.Group {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, binding.ElemID(b.src, r.Kind, r.Idx)...)
		}
		return append(dst, ']')
	case BoundPath:
		return b.Path.AppendText(dst)
	}
	return append(dst, b.String()...)
}

// rowVar is one bound variable of a row, in compact form: node and edge
// bindings hold their materialized id, group and path bindings only the
// solution Get expands them from. Rows bind a handful of variables, so an
// association list beats a map: linear scans that stay in cache.
type rowVar struct {
	name string
	kind BoundKind
	idx  graph.ElemIdx
	id   string           // node or edge id
	sol  *binding.Reduced // the pattern solution that bound the variable
}

// Row is one joined match of the whole graph pattern.
type Row struct {
	vars []rowVar
	// Bindings holds one reduced binding per path pattern, indexed by
	// pattern (textual) order. During a join, patterns not yet joined are
	// nil; every completed row has all entries set.
	Bindings []*binding.Reduced

	// Inline backing of vars and Bindings: the row of a single-pattern
	// statement binding up to four variables is one allocation.
	inlVars [4]rowVar
	inlBind [1]*binding.Reduced
}

// Get returns the binding of a variable in this row (a linear scan).
func (r *Row) Get(name string) (b Bound, ok bool) {
	for i := range r.vars {
		v := &r.vars[i]
		if v.name != name {
			continue
		}
		b.Kind, b.Idx = v.kind, v.idx
		switch v.kind {
		case BoundNull:
			return b, true
		case BoundNode:
			b.Node = graph.NodeID(v.id)
		case BoundEdge:
			b.Edge = graph.EdgeID(v.id)
		case BoundGroup:
			b.Group = v.sol.Group(name)
		case BoundPath:
			b.Path = v.sol.Path.Materialize(v.sol.Src)
		}
		b.src = v.sol.Src
		return b, true
	}
	return b, false
}

// AppendCell appends what Get followed by String renders for a variable
// (NULL when unbound), element ids straight from their interned strings.
func (r *Row) AppendCell(dst []byte, name string) []byte {
	for i := range r.vars {
		if v := &r.vars[i]; v.name == name && (v.kind == BoundNode || v.kind == BoundEdge) {
			return append(dst, v.id...)
		}
	}
	b, _ := r.Get(name)
	return b.AppendText(dst)
}

// Vars lists the bound variables of the row (sorted).
func (r *Row) Vars() []string {
	out := make([]string, 0, len(r.vars))
	for i := range r.vars {
		out = append(out, r.vars[i].name)
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
// returns the solutions canonically sorted.
func MatchPattern(s graph.Store, pp *plan.PathPlan, cfg Config) ([]*binding.Reduced, error) {
	return matchPatternStream(context.Background(), graph.AsStepper(s), pp, cfg)
}

// Enumerate produces the raw (annotated) path bindings of one pattern. It
// seeds one engine run per candidate start node — from the store's
// equality index or label index when the plan proved a seed label (see
// forEachNode), a full scan otherwise. Search limits are shared across all
// seed runs.
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

// markBound records the variables a joined pattern binds.
func markBound(bound map[string]bool, pp *plan.PathPlan) {
	for _, v := range pp.Vars {
		bound[v] = true
	}
	if pv := pp.Pattern.PathVar; pv != "" {
		bound[pv] = true
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
		b, _ := row.Get(v)
		switch b.Kind {
		case BoundNode:
			buf = appendIdxComponent(buf, binding.NodeElem, b.Idx)
		case BoundEdge:
			buf = appendIdxComponent(buf, binding.EdgeElem, b.Idx)
		default:
			buf = append(buf, unboundKeyByte)
		}
	}
	return buf
}

// mergeRow extends a partial row with one pattern solution, checking the
// implicit equi-joins on shared unconditional singletons by (kind, index).
// This is where a match's element id strings are materialized — once per
// assembled row, never during search.
func mergeRow(p *plan.Plan, pp *plan.PathPlan, row *Row, sol *binding.Reduced) (*Row, bool) {
	out := &Row{}
	vars := append(out.inlVars[:0], row.vars...)
	for _, name := range pp.Vars {
		info := p.Var(name)
		if info == nil {
			continue
		}
		v := rowVar{name: name, sol: sol}
		switch {
		case info.Kind == plan.VarPath:
			continue // handled below via PathVar
		case info.Group:
			v.kind = BoundGroup
		default:
			ref, ok := sol.Singleton(name)
			if !ok {
				v.kind = BoundNull // conditional singleton, unbound
			} else {
				v.kind, v.idx, v.id = BoundNode, ref.Idx, sol.RefID(ref)
				if ref.Kind == binding.EdgeElem {
					v.kind = BoundEdge
				}
			}
		}
		prevAt := -1
		for i := range vars {
			if vars[i].name == name {
				prevAt = i
				break
			}
		}
		if prevAt >= 0 {
			// Implicit equi-join across path patterns (static analysis
			// guarantees these are unconditional singletons).
			if vars[prevAt].kind != v.kind || vars[prevAt].idx != v.idx {
				return nil, false
			}
			continue
		}
		vars = append(vars, v)
	}
	if pv := pp.Pattern.PathVar; pv != "" {
		vars = append(vars, rowVar{name: pv, kind: BoundPath, sol: sol})
	}
	out.vars, out.Bindings = vars, out.inlBind[:]
	if len(p.Paths) > 1 {
		out.Bindings = make([]*binding.Reduced, len(p.Paths))
		copy(out.Bindings, row.Bindings)
	}
	out.Bindings[pp.Index] = sol
	return out, true
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

func (r rowResolver) Elem(name string) (binding.Ref, bool) {
	b, ok := r.row.Get(name)
	if !ok {
		return binding.Ref{}, false
	}
	switch b.Kind {
	case BoundNode:
		return binding.Ref{Kind: binding.NodeElem, Idx: b.Idx}, true
	case BoundEdge:
		return binding.Ref{Kind: binding.EdgeElem, Idx: b.Idx}, true
	default:
		return binding.Ref{}, false
	}
}

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
