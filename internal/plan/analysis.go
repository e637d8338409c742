package plan

import (
	"fmt"
	"slices"
	"sync"

	"gpml/internal/ast"
	"gpml/internal/value"
)

// VarKind classifies variables.
type VarKind uint8

// Variable kinds.
const (
	VarNode VarKind = iota
	VarEdge
	VarPath
)

// String names the kind.
func (k VarKind) String() string {
	switch k {
	case VarNode:
		return "node"
	case VarEdge:
		return "edge"
	default:
		return "path"
	}
}

// VarInfo is the static description of a variable (§4.4, §4.6): whether it
// is a group variable (declared under a quantifier), a conditional
// singleton (declared under ? or in only some union branches), and where it
// is declared.
type VarInfo struct {
	Name        string
	Kind        VarKind
	Anon        bool
	Group       bool  // declared under at least one quantifier
	Conditional bool  // singleton that may remain unbound
	QuantChain  []int // ids of enclosing quantifiers at the declaration
	Patterns    []int // the patterns that declare it, ascending
	DeclOrder   int
}

// Mode selects the evaluation strategy for a path pattern.
type Mode uint8

// Evaluation modes.
const (
	// ModeDFS enumerates matches by depth-first search with restrictor
	// pruning; used whenever every unbounded quantifier is bounded by a
	// restrictor (or no unbounded quantifier exists).
	ModeDFS Mode = iota
	// ModeBFS runs the level-synchronous product search used when
	// finiteness of the output is guaranteed only by a selector.
	ModeBFS
)

// Options configures host-language differences.
type Options struct {
	// AllowElementEquality permits p = q on element references (GQL).
	// SQL/PGQ must use SAME/ALL_DIFFERENT instead (§4.7).
	AllowElementEquality bool
}

// PathPlan is the compiled form of one top-level path pattern.
type PathPlan struct {
	Index        int
	Pattern      *ast.PathPattern
	Prog         *Prog
	Mode         Mode
	HasUnbounded bool
	// Vars declared by this pattern (non-anonymous), in declaration order.
	Vars []string
	// SeedLabels are labels every match's first node provably carries
	// (sorted; empty when none could be proven). The evaluator seeds from
	// the store's cheapest label index instead of a full node scan.
	SeedLabels []string
	// HeadVars are the named singleton node variables provably bound to
	// the first path node of every match (sorted). When one of them is
	// already bound by earlier join steps, the bind-join evaluator seeds
	// this pattern's engine runs from the bound values instead of
	// enumerating the pattern in full.
	HeadVars []string
	// TailVars mirror HeadVars for the last path node. They are empty
	// unless the pattern mirrors exactly (see mirrorable); then a join
	// step may seed the pattern from a bound tail variable by running
	// Mirrored.
	TailVars []string
	// TailLabels are labels every match's last node provably carries
	// (sorted) — the endpoint-selectivity input of the join cost model.
	TailLabels []string
	// HeadEq and TailEq are the equality conjuncts every match's first
	// (last) node provably satisfies (sorted). With the labels proven
	// there, the evaluator reads that end's candidates from the store's
	// (label, property) equality index, and the cost model prices each at
	// 1/NDV(label, property).
	HeadEq, TailEq []EqConjunct
	// DupReason says why two distinct raw matches of the pattern may reduce
	// to the same binding, so that its solutions must be collected into a
	// set (§6.5): "set union", "multiset union", "several quantifiers" or
	// "edgeless quantifier body". It is empty when the pattern is
	// duplicate-free (see noteDup), and the evaluator then skips the
	// per-seed seen-set.
	DupReason string
	// MaxEdges is the most edges any match can have, or -1 when an
	// unbounded quantifier leaves the length open (see maxEdges). The DFS
	// engine prunes a step that leaves too few edges to reach an
	// admissible last node.
	MaxEdges int
	// minSteps is the pattern's cheapest edge-step expansion, for fanout
	// estimation (see EstimateCost).
	minSteps []edgeStep
	// Automaton reports that the pattern is memoryless and its selector
	// admits product-graph evaluation (see automatonEligibility); the
	// evaluator may then run it as a BFS over (node × automaton state).
	Automaton bool
	// AutomatonReason explains why the automaton engine is unavailable;
	// empty when Automaton is true. Surfaced by -explain.
	AutomatonReason string

	autoOnce sync.Once
	auto     any
	revOnce  sync.Once
	rev      any
	opts     Options
	mirOnce  sync.Once
	mirror   *PathPlan
}

// CompiledAutomaton memoizes the pattern's compiled automaton across
// evaluations (plans are shared by concurrent Evals, so the memo is
// guarded). The value is opaque to this package; the eval layer supplies
// the builder and interprets the result.
func (pp *PathPlan) CompiledAutomaton(build func() any) any {
	pp.autoOnce.Do(func() { pp.auto = build() })
	return pp.auto
}

// ReversedAutomaton memoizes the reversed automaton the evaluator searches
// backward from a pattern's endpoints with, exactly like CompiledAutomaton.
func (pp *PathPlan) ReversedAutomaton(build func() any) any {
	pp.revOnce.Do(func() { pp.rev = build() })
	return pp.rev
}

// Mirrored returns the plan of the pattern walked from its last node to
// its first (ast.Reverse), which a tail-seeded join step runs: its seeds
// are this pattern's tail nodes, and its solutions are this pattern's
// solutions reversed. It is compiled on first use and memoized, like
// CompiledAutomaton; only patterns with TailVars are ever mirrored.
func (pp *PathPlan) Mirrored() *PathPlan {
	pp.mirOnce.Do(func() {
		rev := *pp.Pattern
		rev.Expr = ast.Reverse(pp.Pattern.Expr)
		a := &analyzer{opts: pp.opts, vars: map[string]*VarInfo{}}
		m, err := a.pathPlan(pp.Index, &rev)
		if err != nil {
			// Reversal keeps every fact the analysis checks.
			panic(fmt.Sprintf("plan: mirror of %s: %v", pp.Pattern, err))
		}
		pp.mirror = m
	})
	return pp.mirror
}

// mirrorable reports whether the pattern's solutions are exactly the
// reversals of its mirror's, so a join step may run it from its last node.
// The selector, if any, is ALL SHORTEST: its endpoint partitions and
// minimal lengths do not depend on the walk direction, while the ANY
// family's tie-break does. There is no multiset alternation, whose branch
// tags would need renumbering. And every WHERE sees the same bindings in
// both directions: an element's WHERE reads only that element, a
// parenthesized WHERE only variables declared inside its parentheses, and
// neither aggregates, since a group list's order flips.
func mirrorable(pp *ast.PathPattern) bool {
	if k := pp.Selector.Kind; k != ast.NoSelector && k != ast.AllShortest {
		return false
	}
	ok := true
	ast.WalkPath(pp.Expr, func(pe ast.PathExpr) bool {
		switch x := pe.(type) {
		case *ast.Union:
			ok = ok && !slices.Contains(x.Ops, ast.Multiset)
		case *ast.NodePattern:
			ok = ok && localWhereReason(x.Var, x.Where) == ""
		case *ast.EdgePattern:
			ok = ok && localWhereReason(x.Var, x.Where) == ""
		case *ast.Paren:
			if x.Where == nil {
				break
			}
			inside := map[string]struct{}{}
			collectDecls(x.Expr, inside)
			for name, inAgg := range ast.ExprVars(x.Where) {
				if _, declared := inside[name]; inAgg || !declared {
					ok = false
				}
			}
		}
		return ok
	})
	return ok
}

// ParamUse records one $name placeholder: its name and the source position
// of its first occurrence, so bind-time errors can point into the query.
type ParamUse struct {
	Name string
	Line int
	Col  int
}

// Plan is the compiled form of a MATCH statement.
type Plan struct {
	Stmt    *ast.MatchStmt // normalized
	Paths   []*PathPlan
	Post    ast.Expr
	Vars    map[string]*VarInfo
	Columns []string // output column order: first-appearance of named vars
	// Params lists the statement's $name placeholders in first-occurrence
	// order. Execution must supply a value for each (CheckBind).
	Params []ParamUse
}

// ParamAt returns the declaration record of a parameter, or nil when the
// statement has no placeholder of that name.
func (p *Plan) ParamAt(name string) *ParamUse {
	for i := range p.Params {
		if p.Params[i].Name == name {
			return &p.Params[i]
		}
	}
	return nil
}

// BindError reports a parameter-binding failure. Line/Col locate the
// placeholder in the query source when the parameter is declared there
// (zero otherwise, e.g. a superfluous argument).
type BindError struct {
	Name string
	Msg  string
	Line int
	Col  int
}

// Error implements the error interface.
func (e *BindError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("bind error at %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return "bind error: " + e.Msg
}

// Pos returns the placeholder's source position (0,0 when unknown).
func (e *BindError) Pos() (line, col int) { return e.Line, e.Col }

// CheckBind validates an argument set against the plan's placeholders:
// every declared parameter must be supplied and no unknown names may be
// passed. Values are already typed (value.Value), so arity and name
// agreement are the whole static contract; value-level type mismatches
// surface through the usual three-valued comparison semantics at runtime.
func (p *Plan) CheckBind(args map[string]value.Value) error {
	for i := range p.Params {
		u := &p.Params[i]
		if _, ok := args[u.Name]; !ok {
			return &BindError{
				Name: u.Name,
				Msg:  fmt.Sprintf("missing value for parameter $%s", u.Name),
				Line: u.Line,
				Col:  u.Col,
			}
		}
	}
	if len(args) > len(p.Params) {
		for name := range args {
			if p.ParamAt(name) == nil {
				return &BindError{Name: name, Msg: fmt.Sprintf("unknown parameter $%s: not used by the query", name)}
			}
		}
	}
	return nil
}

// Var returns the info for a variable, or nil.
func (p *Plan) Var(name string) *VarInfo { return p.Vars[name] }

// JoinableVar reports whether the variable can carry an implicit
// equi-join between path patterns: a singleton element variable (group
// and path variables have no single join value). The join planner and
// the evaluator's hash-key construction must agree on this predicate, so
// it lives here and both consume it.
func (p *Plan) JoinableVar(name string) bool {
	info := p.Vars[name]
	return info != nil && !info.Group && info.Kind != VarPath
}

// exprSite is a WHERE clause together with its static context.
type exprSite struct {
	expr       ast.Expr
	chain      []int // enclosing quantifier ids
	post       bool  // true for the final WHERE (postfilter)
	patternIdx int
}

// analyzer walks one normalized statement.
type analyzer struct {
	opts  Options
	vars  map[string]*VarInfo
	order int

	// per-pattern state
	patIdx     int
	quants     map[*ast.Quantified]int
	unions     map[*ast.Union]int
	quantByID  map[int]*ast.Quantified
	underRestr map[int]bool // quantifier id -> inside a restrictor scope
	sites      []exprSite
	patVars    []string
	// nquants counts quantifiers, ? included, and nedges edge patterns, as
	// walk meets them; dup is the first duplicate reason found (noteDup).
	nquants, nedges int
	dup             string

	// statement-wide parameter uses, first occurrence per name
	params    []ParamUse
	paramSeen map[string]bool
}

// recordParam notes a $name placeholder encountered during expression
// checking (first occurrence wins; checks run in source order).
func (a *analyzer) recordParam(p *ast.Param) {
	if a.paramSeen[p.Name] {
		return
	}
	if a.paramSeen == nil {
		a.paramSeen = map[string]bool{}
	}
	a.paramSeen[p.Name] = true
	a.params = append(a.params, ParamUse{Name: p.Name, Line: p.Line, Col: p.Col})
}

// Analyze validates the normalized statement and compiles each path
// pattern. The statement must already be normalized.
func Analyze(stmt *ast.MatchStmt, opts Options) (*Plan, error) {
	a := &analyzer{opts: opts, vars: map[string]*VarInfo{}}
	plan := &Plan{Stmt: stmt, Post: stmt.Where, Vars: a.vars}

	for i, pp := range stmt.Patterns {
		path, err := a.pathPlan(i, pp)
		if err != nil {
			return nil, err
		}
		plan.Paths = append(plan.Paths, path)
	}

	// Postfilter checks (may reference variables of any pattern).
	if stmt.Where != nil {
		site := exprSite{expr: stmt.Where, post: true, patternIdx: -1}
		if err := a.checkExpr(stmt.Where, site, true); err != nil {
			return nil, err
		}
	}

	if err := a.checkJoins(stmt); err != nil {
		return nil, err
	}

	plan.Columns = a.columns()
	plan.Params = a.params
	return plan, nil
}

// pathPlan analyzes and compiles the i-th top-level path pattern.
func (a *analyzer) pathPlan(i int, pp *ast.PathPattern) (*PathPlan, error) {
	a.patIdx = i
	a.quants = map[*ast.Quantified]int{}
	a.unions = map[*ast.Union]int{}
	a.quantByID = map[int]*ast.Quantified{}
	a.underRestr = map[int]bool{}
	a.sites = a.sites[:0]
	a.patVars = nil
	a.nquants, a.nedges, a.dup = 0, 0, ""

	if pp.PathVar != "" {
		if err := a.declare(pp.PathVar, VarPath, nil, false); err != nil {
			return nil, err
		}
	}
	if err := a.walk(pp.Expr, nil, pp.Restrictor != ast.NoRestrictor, false); err != nil {
		return nil, err
	}
	a.markConditionals(pp.Expr)

	// Reference checks for every prefilter site in this pattern.
	for _, site := range a.sites {
		if err := a.checkExpr(site.expr, site, true); err != nil {
			return nil, err
		}
	}

	prog := compileProg(pp, a.quants, a.unions)
	prog.PrefilterGroups, prog.GroupScopes = a.prefilterGroups()

	mode, hasUnbounded, err := a.decideMode(pp)
	if err != nil {
		return nil, err
	}
	auto, autoReason := automatonEligibility(pp, mode)
	seed, tail := seedLabels(pp.Expr), tailLabels(pp.Expr)
	path := &PathPlan{
		Index:           i,
		Pattern:         pp,
		Prog:            prog,
		Mode:            mode,
		HasUnbounded:    hasUnbounded,
		DupReason:       a.dup,
		Vars:            a.patVars,
		SeedLabels:      seed,
		HeadVars:        a.singletonEndVars(pp.Expr, false),
		TailLabels:      tail,
		HeadEq:          endEq(pp.Expr, false),
		TailEq:          endEq(pp.Expr, true),
		MaxEdges:        maxEdges(pp.Expr),
		minSteps:        minEdgeSteps(pp.Expr),
		Automaton:       auto,
		AutomatonReason: autoReason,
		opts:            a.opts,
	}
	if mirrorable(pp) {
		path.TailVars = a.singletonEndVars(pp.Expr, true)
	}
	return path, nil
}

// declare records a variable declaration site.
func (a *analyzer) declare(name string, kind VarKind, chain []int, anon bool) error {
	info, ok := a.vars[name]
	if !ok {
		info = &VarInfo{
			Name:       name,
			Kind:       kind,
			Anon:       anon,
			Group:      len(chain) > 0,
			QuantChain: append([]int(nil), chain...),
			Patterns:   []int{a.patIdx},
			DeclOrder:  a.order,
		}
		a.order++
		a.vars[name] = info
		if !anon {
			a.patVars = append(a.patVars, name)
		}
		return nil
	}
	if info.Kind != kind {
		return fmt.Errorf("plan: variable %q is used as both a %s variable and a %s variable", name, info.Kind, kind)
	}
	if kind == VarPath {
		return fmt.Errorf("plan: path variable %q declared more than once", name)
	}
	if !slices.Contains(info.Patterns, a.patIdx) {
		// Declared in another top-level pattern: an implicit equi-join.
		// Patterns are analysed in textual order, so the list stays
		// ascending.
		info.Patterns = append(info.Patterns, a.patIdx)
		if len(chain) > 0 || info.Group {
			return fmt.Errorf("plan: group variable %q cannot be shared between path patterns", name)
		}
		if !anon {
			a.patVars = append(a.patVars, name)
		}
		return nil
	}
	if !equalChain(info.QuantChain, chain) {
		return fmt.Errorf("plan: variable %q is declared at different quantifier scopes; a variable cannot be both a group variable and a singleton", name)
	}
	return nil
}

func equalChain(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walk records declarations, quantifier/union ids and WHERE sites.
// chain is the enclosing quantifier ids; restr reports whether a restrictor
// scope (paren or path-level) encloses the position.
func (a *analyzer) walk(e ast.PathExpr, chain []int, restr bool, underQuestion bool) error {
	switch x := e.(type) {
	case *ast.Concat:
		for _, el := range x.Elems {
			if err := a.walk(el, chain, restr, underQuestion); err != nil {
				return err
			}
		}
		return nil
	case *ast.NodePattern:
		if err := a.declare(x.Var, VarNode, chain, ast.IsAnonVar(x.Var)); err != nil {
			return err
		}
		if x.Where != nil {
			a.sites = append(a.sites, exprSite{expr: x.Where, chain: append([]int(nil), chain...), patternIdx: a.patIdx})
		}
		return nil
	case *ast.EdgePattern:
		a.nedges++
		if err := a.declare(x.Var, VarEdge, chain, ast.IsAnonVar(x.Var)); err != nil {
			return err
		}
		if x.Where != nil {
			a.sites = append(a.sites, exprSite{expr: x.Where, chain: append([]int(nil), chain...), patternIdx: a.patIdx})
		}
		return nil
	case *ast.Paren:
		r := restr || x.Restrictor != ast.NoRestrictor
		if err := a.walk(x.Expr, chain, r, underQuestion); err != nil {
			return err
		}
		if x.Where != nil {
			a.sites = append(a.sites, exprSite{expr: x.Where, chain: append([]int(nil), chain...), patternIdx: a.patIdx})
		}
		return nil
	case *ast.Quantified:
		if a.nquants++; a.nquants > 1 {
			a.noteDup(dupQuantifiers)
		}
		edges := a.nedges
		var err error
		if x.Question {
			// ? introduces no group scope (§4.6).
			err = a.walk(x.Inner, chain, restr, true)
		} else {
			id := len(a.quants)
			a.quants[x] = id
			a.quantByID[id] = x
			a.underRestr[id] = restr
			err = a.walk(x.Inner, append(chain, id), restr, underQuestion)
		}
		if a.nedges == edges {
			a.noteDup(dupEdgelessBody)
		}
		return err
	case *ast.Union:
		if slices.Contains(x.Ops, ast.Multiset) {
			a.noteDup(dupMultisetUnion)
		} else {
			a.noteDup(dupSetUnion)
		}
		a.unions[x] = len(a.unions)
		for _, br := range x.Branches {
			if err := a.walk(br, chain, restr, underQuestion); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("plan: unknown path expression %T", e)
	}
}

// Why a pattern may produce duplicates (PathPlan.DupReason).
const (
	dupSetUnion      = "set union"
	dupMultisetUnion = "multiset union"
	dupQuantifiers   = "several quantifiers"
	dupEdgelessBody  = "edgeless quantifier body"
)

// noteDup records the first reason walk finds for which two distinct raw
// matches of the pattern may reduce to the same binding. A pattern is
// duplicate-free when it has no union of either kind and at most one
// quantifier (? counts), whose body consumes at least one edge: then a
// match's path fixes the whole run. Without a union or a second
// quantifier the pattern is a fixed prefix, the quantified body repeated,
// and a fixed suffix; each part consumes a fixed number of edges, the
// body at least one, so the path's length fixes the iteration count, and
// with it which pattern element matched each path position. The engines
// take every step at most once (a self-loop included), so one path is one
// run, and distinct runs have distinct paths, which every binding key
// holds. The rule is conservative: two quantifiers split one path in
// several ways, and those runs reduce alike whenever the split elements
// are anonymous (both (x)-[:T]->{1,2}()-[:T]->{1,2}(y) and
// (x)-[:T]->?()-[:T]->?(y) duplicate on Figure 1), so it is kept until
// an argument that separates such splits comes with a test.
func (a *analyzer) noteDup(reason string) {
	if a.dup == "" {
		a.dup = reason
	}
}

// markConditionals computes which singleton variables are conditional:
// those not guaranteed to bind in every match of the pattern (§4.6).
func (a *analyzer) markConditionals(e ast.PathExpr) {
	definite := definiteVars(e)
	all := map[string]struct{}{}
	collectDecls(e, all)
	for name := range all {
		info := a.vars[name]
		if info == nil || info.Group || info.Anon {
			continue
		}
		if _, ok := definite[name]; !ok {
			info.Conditional = true
		}
	}
}

// definiteVars returns the variables guaranteed to be bound by every match
// of e.
func definiteVars(e ast.PathExpr) map[string]struct{} {
	out := map[string]struct{}{}
	switch x := e.(type) {
	case *ast.Concat:
		for _, el := range x.Elems {
			for v := range definiteVars(el) {
				out[v] = struct{}{}
			}
		}
	case *ast.NodePattern:
		out[x.Var] = struct{}{}
	case *ast.EdgePattern:
		out[x.Var] = struct{}{}
	case *ast.Paren:
		return definiteVars(x.Expr)
	case *ast.Quantified:
		if x.Min >= 1 && !x.Question {
			return definiteVars(x.Inner)
		}
		if x.Question || x.Min == 0 {
			return out // nothing guaranteed
		}
	case *ast.Union:
		if len(x.Branches) == 0 {
			return out
		}
		out = definiteVars(x.Branches[0])
		for _, br := range x.Branches[1:] {
			next := definiteVars(br)
			for v := range out {
				if _, ok := next[v]; !ok {
					delete(out, v)
				}
			}
		}
	}
	return out
}

func collectDecls(e ast.PathExpr, out map[string]struct{}) {
	ast.WalkPath(e, func(pe ast.PathExpr) bool {
		switch x := pe.(type) {
		case *ast.NodePattern:
			out[x.Var] = struct{}{}
		case *ast.EdgePattern:
			out[x.Var] = struct{}{}
		}
		return true
	})
}

// prefilterGroups collects the group variables prefilters reference
// across their quantifiers, each with its declaration's quantifier chain,
// and marks the quantifiers whose iteration scopes such a reference: the
// innermost quantifier enclosing both the reference and the declaration.
// Both are nil when no prefilter reads a group.
func (a *analyzer) prefilterGroups() (map[string][]int, []bool) {
	var groups map[string][]int
	var scopes []bool
	for _, site := range a.sites {
		for name := range ast.ExprVars(site.expr) {
			info := a.vars[name]
			if info == nil || !info.Group || isPrefix(info.QuantChain, site.chain) {
				continue
			}
			if groups == nil {
				groups = map[string][]int{}
			}
			groups[name] = info.QuantChain
			if n := commonPrefixLen(info.QuantChain, site.chain); n > 0 {
				if scopes == nil {
					scopes = make([]bool, len(a.quants))
				}
				scopes[site.chain[n-1]] = true
			}
		}
	}
	return groups, scopes
}

// isPrefix reports whether decl is a prefix of ref: the declaration's
// quantifier chain encloses the reference, i.e. no quantifier separates
// reference from declaration (the "crossing" criterion of §4.4).
func isPrefix(decl, ref []int) bool {
	if len(decl) > len(ref) {
		return false
	}
	for i := range decl {
		if decl[i] != ref[i] {
			return false
		}
	}
	return true
}

// decideMode enforces the §5 termination rule and picks the engine mode.
func (a *analyzer) decideMode(pp *ast.PathPattern) (Mode, bool, error) {
	hasUnbounded := false
	needBFS := false
	for id, q := range a.quantByID {
		if !q.Unbounded() {
			continue
		}
		hasUnbounded = true
		if a.underRestr[id] {
			continue // bounded by a restrictor: DFS handles it
		}
		if pp.Selector.Kind == ast.NoSelector {
			return 0, false, fmt.Errorf(
				"plan: the unbounded quantifier %s is not in the scope of a restrictor or selector; the query may not terminate (paper §5). Add TRAIL/ACYCLIC/SIMPLE or a selector such as ANY SHORTEST",
				q)
		}
		needBFS = true
	}
	if !needBFS {
		return ModeDFS, hasUnbounded, nil
	}
	// BFS mode cannot track restrictor scopes soundly; the combination of a
	// selector-bounded unbounded quantifier with a restrictor elsewhere in
	// the same pattern is rejected (documented deviation, DESIGN.md §6).
	hasRestrictor := pp.Restrictor != ast.NoRestrictor
	ast.WalkPath(pp.Expr, func(pe ast.PathExpr) bool {
		if p, ok := pe.(*ast.Paren); ok && p.Restrictor != ast.NoRestrictor {
			hasRestrictor = true
		}
		return true
	})
	if hasRestrictor {
		return 0, false, fmt.Errorf("plan: unsupported combination: a selector-bounded unbounded quantifier together with a restrictor in the same path pattern; bound the quantifier with the restrictor or remove it")
	}
	return ModeBFS, hasUnbounded, nil
}

// columns determines the output column order (named variables by first
// appearance).
func (a *analyzer) columns() []string {
	type nv struct {
		name  string
		order int
	}
	var named []nv
	for name, info := range a.vars {
		if info.Anon {
			continue
		}
		named = append(named, nv{name, info.DeclOrder})
	}
	for i := 1; i < len(named); i++ {
		for j := i; j > 0 && named[j].order < named[j-1].order; j-- {
			named[j], named[j-1] = named[j-1], named[j]
		}
	}
	out := make([]string, len(named))
	for i, n := range named {
		out[i] = n.name
	}
	return out
}

// checkJoins applies the cross-pattern rules: implicit equi-joins across
// path patterns must be on unconditional singletons (§4.6).
func (a *analyzer) checkJoins(stmt *ast.MatchStmt) error {
	for name, info := range a.vars {
		if len(info.Patterns) < 2 {
			continue
		}
		if info.Conditional {
			return fmt.Errorf("plan: implicit equi-join on conditional singleton %q is not allowed (paper §4.6)", name)
		}
		if info.Group {
			return fmt.Errorf("plan: group variable %q cannot join path patterns", name)
		}
	}
	return nil
}
