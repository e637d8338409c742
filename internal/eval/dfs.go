package eval

import (
	"fmt"
	"slices"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// Limits bound the search to keep pathological queries from running away.
type Limits struct {
	// MaxMatches caps the number of raw matches enumerated per path
	// pattern before reduction.
	MaxMatches int
	// MaxDepth caps the number of edges in a matched path.
	MaxDepth int
	// MaxThreads caps the number of admitted search states: the parks
	// the BFS engine keeps for resumption, and the product states the
	// automaton engine admits on either side of its search.
	MaxThreads int
}

// DefaultLimits are generous defaults suitable for the paper's workloads.
var DefaultLimits = Limits{
	MaxMatches: 1_000_000,
	MaxDepth:   4096,
	MaxThreads: 4_000_000,
}

func (l Limits) withDefaults() Limits {
	if l.MaxMatches <= 0 {
		l.MaxMatches = DefaultLimits.MaxMatches
	}
	if l.MaxDepth <= 0 {
		l.MaxDepth = DefaultLimits.MaxDepth
	}
	if l.MaxThreads <= 0 {
		l.MaxThreads = DefaultLimits.MaxThreads
	}
	return l
}

// LimitError reports an exceeded search limit.
type LimitError struct {
	What  string
	Limit int
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("eval: %s limit (%d) exceeded; raise eval.Limits or restrict the pattern", e.What, e.Limit)
}

// iterFrame is the local scope of one quantifier iteration. Locals are an
// association list: iteration scopes hold a handful of variables, where a
// linear scan beats a map and the backing array recycles through the
// machine's frame pool.
type iterFrame struct {
	qid        int
	counterIdx int
	startEdges int
	// groupStart is the length of the machine's group list when the
	// iteration began: a prefilter scoped by this iteration reads the
	// group bindings from there on.
	groupStart int
	locals     []localBind
}

// localBind is one variable binding: an iteration local, or one element
// of a group variable's list.
type localBind struct {
	name string
	ref  binding.Ref
}

// lookup finds a local binding by name.
func (f *iterFrame) lookup(name string) (binding.Ref, bool) {
	for i := range f.locals {
		if f.locals[i].name == name {
			return f.locals[i].ref, true
		}
	}
	return binding.Ref{}, false
}

// scopeState tracks one active restrictor scope (TRAIL/ACYCLIC/SIMPLE).
// Used-element sets are keyed by dense index.
type scopeState struct {
	restrictor ast.Restrictor
	inited     bool
	firstNode  int
	closed     bool // SIMPLE: the scope returned to its first node
	usedEdges  map[int]struct{}
	usedNodes  map[int]struct{}
}

// dfs is the backtracking matcher, and the one interpreter of plan.Prog:
// the BFS engine (bfs.go) and the automaton engine's path replay run it
// too. Every case of step restores all state it mutated before returning.
// One machine explores every match anchored at a single seed node;
// Enumerate runs one machine per seed. The machine is integer-dense:
// positions, path elements and bindings are dense indices against the
// stepper's arena — no id strings are built during search.
type dfs struct {
	st     graph.Stepper
	prog   *plan.Prog
	limits Limits
	params Params
	bud    *budget
	seed   int

	pos     int
	started bool

	entries []binding.Entry
	// posArena[posStart:] is the node-entry window pending for the current
	// position. Windows are stack-disciplined (pushed entries are copied
	// out at flush/accept and truncated on backtrack), so one growing
	// arena serves the whole search with no per-step slice allocations.
	posArena  []binding.Entry
	posStart  int
	tags      []binding.Tag
	pathNodes []graph.ElemIdx
	pathEdges []graph.ElemIdx

	counters  []int
	frames    []*iterFrame
	framePool []*iterFrame
	scopes    []*scopeState

	env map[string]binding.Ref
	// groups holds every group-variable binding in binding order across
	// variables (the BFS admission key needs that order); groupBuf backs
	// the list dfsResolver.Group returns.
	groups   []localBind
	groupBuf []binding.Ref

	// out is the emitted binding and pathBuf backs its Path, both reused
	// across matches (binding.PathBinding's contract).
	out     binding.PathBinding
	pathBuf []graph.ElemIdx
	emit    func(*binding.PathBinding) error

	// Path constraint for automaton replay: when pathSteps is non-nil,
	// every OpEdge consumes the next step of the reconstructed path
	// instead of scanning incident edges, and accept requires the whole
	// path to be consumed.
	pathSteps []replayStep

	// rings, when non-nil, prunes steps that cannot reach an admissible
	// last node within maxEdges (see rings.go); pruned counts them for
	// ringPrunes.
	rings    *rings
	maxEdges int
	pruned   int64

	// ticks counts edge expansions; every cancelCheckInterval the machine
	// polls the budget's cancellation hook so streaming consumers can
	// abort a long-running search mid-seed.
	ticks int

	// bfs, when non-nil, runs the machine breadth first (see bfs.go): an
	// OpEdge parks the state with the queue instead of stepping. base is
	// the path of the park being resumed; entries, tags and the path
	// elements on the machine then hold only what followed it.
	bfs  *bfsQueue
	base *pathLink
}

// newDFS builds a reusable matcher. Every run restores all machine state
// by backtracking, so one machine serves any number of sequential seed
// runs; limits accounting is shared across runs through the budget.
func newDFS(st graph.Stepper, prog *plan.Prog, pathVar string, limits Limits, params Params, bud *budget, emit func(*binding.PathBinding) error) *dfs {
	return &dfs{
		st:     st,
		prog:   prog,
		limits: limits.withDefaults(),
		params: params,
		bud:    bud,
		env:    map[string]binding.Ref{},
		out:    binding.PathBinding{PathVar: pathVar, Src: st},
		emit:   emit,
	}
}

// run enumerates every match of the program anchored at the seed node
// index, invoking emit for each.
func (m *dfs) run(seed int) error {
	m.seed = seed
	err := m.step(m.prog.Start)
	if m.pruned > 0 {
		ringPrunes.Add(m.pruned)
		m.pruned = 0
	}
	return err
}

// Resolver interface over the live machine state (used by prefilters).

type dfsResolver struct{ m *dfs }

func (r dfsResolver) Graph() graph.Stepper { return r.m.st }

func (r dfsResolver) Elem(name string) (binding.Ref, bool) {
	for i := len(r.m.frames) - 1; i >= 0; i-- {
		if ref, ok := r.m.frames[i].lookup(name); ok {
			return ref, true
		}
	}
	ref, ok := r.m.env[name]
	return ref, ok
}

// Group returns the variable's list, valid until the next Group call: the
// bindings it made in the current iteration of the innermost active
// quantifier enclosing its declaration, or all of them when none is
// active. The active frames are the quantifiers enclosing the reading
// prefilter, so that quantifier is the innermost one enclosing both.
func (r dfsResolver) Group(name string) ([]binding.Ref, bool) {
	m := r.m
	decl, from := m.prog.PrefilterGroups[name], 0
	for i := len(m.frames) - 1; i >= 0; i-- {
		if slices.Contains(decl, m.frames[i].qid) {
			from = m.frames[i].groupStart
			break
		}
	}
	refs := m.groupBuf[:0]
	for _, g := range m.groups[from:] {
		if g.name == name {
			refs = append(refs, g.ref)
		}
	}
	m.groupBuf = refs
	return refs, len(refs) > 0
}

func (r dfsResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := r.m.params[name]
	return v, ok
}

// step executes the instruction at pc, exploring all continuations.
func (m *dfs) step(pc int) error {
	in := &m.prog.Instrs[pc]
	switch in.Op {
	case plan.OpNode:
		return m.stepNode(in)
	case plan.OpEdge:
		if m.bfs != nil {
			return m.bfs.park(m, pc)
		}
		return m.stepEdge(in)
	case plan.OpSplit:
		if err := m.step(in.Next); err != nil {
			return err
		}
		return m.step(in.Alt)
	case plan.OpLoopStart:
		m.counters = append(m.counters, 0)
		err := m.step(in.Next)
		m.counters = m.counters[:len(m.counters)-1]
		return err
	case plan.OpLoopCheck:
		c := m.counters[len(m.counters)-1]
		if c < in.Min {
			return m.step(in.Next) // must iterate
		}
		// Exit first (shorter matches first), then iterate further.
		if err := m.step(in.Alt); err != nil {
			return err
		}
		if in.Max < 0 || c < in.Max {
			return m.step(in.Next)
		}
		return nil
	case plan.OpIterStart:
		f := m.newFrame()
		f.qid = in.QID
		f.counterIdx = len(m.counters) - 1
		f.startEdges = len(m.pathEdges)
		f.groupStart = len(m.groups)
		m.frames = append(m.frames, f)
		err := m.step(in.Next)
		m.frames = m.frames[:len(m.frames)-1]
		m.framePool = append(m.framePool, f)
		return err
	case plan.OpIterEnd:
		f := m.frames[len(m.frames)-1]
		m.frames = m.frames[:len(m.frames)-1]
		ci := f.counterIdx
		m.counters[ci]++
		var err error
		if len(m.pathEdges) == f.startEdges && m.counters[ci] >= in.Min {
			// A zero-width iteration cannot make progress: once the minimum
			// is met it exits the loop (prevents infinite unrolling); below
			// it, it repeats in place until the minimum is reached, so a
			// {n,m} match is also an {n,m'} match (GPC's π^{n..m} is the
			// union of the π^i).
			err = m.step(in.Alt) // jump to loop end
		} else {
			err = m.step(in.Next) // back to the check
		}
		m.counters[ci]--
		m.frames = append(m.frames, f)
		return err
	case plan.OpLoopEnd:
		c := m.counters[len(m.counters)-1]
		m.counters = m.counters[:len(m.counters)-1]
		err := m.step(in.Next)
		m.counters = append(m.counters, c)
		return err
	case plan.OpScopeStart:
		s := &scopeState{
			restrictor: in.Restrictor,
			usedEdges:  map[int]struct{}{},
			usedNodes:  map[int]struct{}{},
		}
		if m.started {
			s.init(m.pos)
		}
		m.scopes = append(m.scopes, s)
		err := m.step(in.Next)
		m.scopes = m.scopes[:len(m.scopes)-1]
		return err
	case plan.OpScopeEnd:
		s := m.scopes[len(m.scopes)-1]
		m.scopes = m.scopes[:len(m.scopes)-1]
		err := m.step(in.Next)
		m.scopes = append(m.scopes, s)
		return err
	case plan.OpWhere:
		t, err := EvalPred(in.Where, dfsResolver{m})
		if err != nil {
			return err
		}
		if !t.IsTrue() {
			return nil
		}
		return m.step(in.Next)
	case plan.OpTag:
		m.tags = append(m.tags, binding.Tag{Union: in.Union, Branch: in.Branch})
		err := m.step(in.Next)
		m.tags = m.tags[:len(m.tags)-1]
		return err
	case plan.OpAccept:
		return m.accept()
	default:
		return fmt.Errorf("eval: unknown opcode %v", in.Op)
	}
}

// newFrame takes a frame with no locals from the pool.
func (m *dfs) newFrame() *iterFrame {
	n := len(m.framePool)
	if n == 0 {
		return &iterFrame{}
	}
	f := m.framePool[n-1]
	m.framePool = m.framePool[:n-1]
	f.locals = f.locals[:0]
	return f
}

func (s *scopeState) init(first int) {
	s.inited = true
	s.firstNode = first
	s.usedNodes[first] = struct{}{}
}

// stepNode matches a node pattern at the current position (or, when the
// search has not started, at the machine's seed node — Enumerate runs one
// machine per candidate start node).
func (m *dfs) stepNode(in *plan.Instr) error {
	if !m.started {
		n := m.st.NodeByIndex(m.seed)
		m.started = true
		m.pos = m.seed
		m.pathNodes = append(m.pathNodes, graph.ElemIdx(m.seed))
		err := m.matchNodeHere(in, n)
		m.pathNodes = m.pathNodes[:len(m.pathNodes)-1]
		m.started = false
		return err
	}
	return m.matchNodeHere(in, m.st.NodeByIndex(m.pos))
}

// matchNodeHere checks labels, binds the variable (implicit equi-join),
// applies the pending-entry suppression rule for anonymous node patterns at
// an already-bound position (§6.3 clean-up), evaluates the inline WHERE and
// continues.
func (m *dfs) matchNodeHere(in *plan.Instr, n *graph.Node) error {
	np := in.Node
	if np.Label != nil && !np.Label.Matches(n.Labels) {
		return nil
	}
	undo, ok := m.bindElem(np.Var, binding.NodeElem, m.pos)
	if !ok {
		return nil
	}
	savedArena := len(m.posArena) // by length: the arena keeps what it grew
	replaced, prevEntry := m.pushPosEntry(np.Var, binding.NodeElem, m.pos)
	var err error
	matched := true
	if np.Where != nil {
		var t value.Tri
		t, err = EvalPred(np.Where, dfsResolver{m})
		matched = err == nil && t.IsTrue()
	}
	if err == nil && matched {
		err = m.step(in.Next)
	}
	m.posArena = m.posArena[:savedArena]
	if replaced {
		m.posArena[m.posStart] = prevEntry
	}
	m.undoBind(undo, np.Var)
	return err
}

// pushPosEntry implements the §6.3 clean-up operationally: at one path
// position, named node patterns each contribute an entry; anonymous node
// patterns contribute a single entry only when no other pattern binds the
// position. Entries go to the arena window of the current position; the
// caller restores the arena length on backtrack and, when a named pattern
// replaced a pending anonymous entry in place (replaced=true), puts the
// returned previous entry back.
func (m *dfs) pushPosEntry(varName string, kind binding.ElemKind, idx int) (replaced bool, prev binding.Entry) {
	window := len(m.posArena) - m.posStart
	if ast.IsAnonVar(varName) {
		if window > 0 {
			return false, prev // suppressed: another pattern already binds this position
		}
	} else if window == 1 && ast.IsAnonVar(m.posArena[m.posStart].Var) {
		prev = m.posArena[m.posStart]
		m.posArena[m.posStart] = binding.Entry{Var: varName, Iters: m.iterAnnotation(), Kind: kind, Idx: graph.ElemIdx(idx)}
		return true, prev
	}
	m.posArena = append(m.posArena, binding.Entry{Var: varName, Iters: m.iterAnnotation(), Kind: kind, Idx: graph.ElemIdx(idx)})
	return false, prev
}

// iterAnnotation snapshots the iteration indices of the enclosing frames
// (inline in the annotation value — no allocation at the common depths).
func (m *dfs) iterAnnotation() binding.IterAnn {
	var a binding.IterAnn
	for _, f := range m.frames {
		a.Push(m.counters[f.counterIdx])
	}
	return a
}

// bindUndo says how to undo one bindElem call. Tokens instead of undo
// closures: the machine's bind/undo pairs bracket balanced frame stacks,
// so the undo can re-derive the frame — and a token allocates nothing.
type bindUndo uint8

// Undo kinds.
const (
	undoNone       bindUndo = iota // binding already existed (equi-join hit)
	undoLocal                      // pop the innermost frame's local
	undoLocalGroup                 // pop the local and the group entry
	undoEnv                        // delete the environment binding
)

// undoBind reverses a successful bindElem. The frame stack is balanced
// across the recursion between bind and undo, so the innermost frame is
// the one that bound.
func (m *dfs) undoBind(u bindUndo, varName string) {
	switch u {
	case undoLocal:
		f := m.frames[len(m.frames)-1]
		f.locals = f.locals[:len(f.locals)-1]
	case undoLocalGroup:
		f := m.frames[len(m.frames)-1]
		f.locals = f.locals[:len(f.locals)-1]
		m.groups = m.groups[:len(m.groups)-1]
	case undoEnv:
		delete(m.env, varName)
	}
}

// bindElem binds a variable to an element with implicit equi-join
// semantics. It returns the undo token and whether the binding is
// consistent. Bindings inside a quantifier iteration go to the innermost
// frame and accumulate in the variable's group list.
func (m *dfs) bindElem(varName string, kind binding.ElemKind, idx int) (bindUndo, bool) {
	ref := binding.Ref{Kind: kind, Idx: graph.ElemIdx(idx)}
	anon := ast.IsAnonVar(varName)
	if len(m.frames) > 0 {
		f := m.frames[len(m.frames)-1]
		if prev, ok := f.lookup(varName); ok {
			return undoNone, prev == ref
		}
		// A variable declared outside all quantifiers never appears as a
		// declaration site inside one (static check), so no env lookup here.
		f.locals = append(f.locals, localBind{varName, ref})
		if anon {
			return undoLocal, true
		}
		m.groups = append(m.groups, localBind{varName, ref})
		return undoLocalGroup, true
	}
	if prev, ok := m.env[varName]; ok {
		return undoNone, prev == ref
	}
	m.env[varName] = ref
	return undoEnv, true
}

// stepEdge traverses one edge from the current position in every admitted
// orientation, applying restrictor pruning.
func (m *dfs) stepEdge(in *plan.Instr) error {
	if !m.started {
		return fmt.Errorf("eval: edge pattern before any node pattern (normalization bug)")
	}
	// A replayed path is already within the depth limit: the automaton
	// search cuts there rather than failing. So does the BFS engine, before
	// it resumes a park; a resumed machine's path holds no edge yet here.
	if m.pathSteps == nil && len(m.pathEdges) >= m.limits.MaxDepth {
		return &LimitError{What: "path depth", Limit: m.limits.MaxDepth}
	}
	if m.ticks++; m.ticks%cancelCheckInterval == 0 {
		if err := m.bud.check(); err != nil {
			return err
		}
	}
	// A closed SIMPLE scope admits no further edges.
	for _, s := range m.scopes {
		if s.closed {
			return nil
		}
	}
	// Flush pending node entries: the position is now final. The arena
	// window empties (posStart moves to the arena tip) and is restored by
	// index on backtrack.
	savedEntries := len(m.entries)
	savedPosStart := m.posStart
	m.entries = append(m.entries, m.posArena[m.posStart:]...)
	m.posStart = len(m.posArena)

	ep := in.Edge
	var firstErr error
	if m.pathSteps != nil {
		// Automaton replay: consume exactly the next reconstructed step.
		if len(m.pathEdges) < len(m.pathSteps) {
			stp := m.pathSteps[len(m.pathEdges)]
			if m.traversalAllowed(ep.Orientation, stp.edge, m.pos, stp.node) {
				firstErr = m.traverse(in, stp.edge, stp.node)
			}
		}
	} else {
		// left is how many more edges a match may take after this step:
		// with none or one, the step must land in ring0 or ring1.
		left := -1
		if m.rings != nil {
			left = m.maxEdges - len(m.pathEdges) - 1
		}
		m.st.Steps(m.pos, func(ei, oi int, kind graph.StepKind) bool {
			if left == 0 && !m.rings.ring0.has(oi) || left == 1 && !m.rings.ring1.has(oi) {
				m.pruned++
				return true
			}
			// A directed self-loop is taken once, even where the
			// orientation admits it both ways: both traversals would bind
			// the same entries, so the second could only duplicate the
			// first.
			if !stepAllowed(ep.Orientation, kind) {
				return true
			}
			if err := m.traverse(in, ei, oi); err != nil {
				firstErr = err
				return false
			}
			return true
		})
	}

	m.entries = m.entries[:savedEntries]
	m.posStart = savedPosStart
	return firstErr
}

// traversalAllowed checks one concrete traversal (from → to over edge
// index ei) against an edge-pattern orientation; a directed self-loop may
// be taken along or against its direction.
func (m *dfs) traversalAllowed(o ast.Orientation, ei, from, to int) bool {
	e := m.st.EdgeByIndex(ei)
	src, tgt := m.st.EdgeEnds(ei)
	if e.Direction == graph.Directed {
		if src == from && tgt == to && o.AllowsRight() {
			return true
		}
		return tgt == from && src == to && o.AllowsLeft()
	}
	if !o.AllowsUndirected() {
		return false
	}
	if src == from {
		return tgt == to
	}
	return tgt == from && src == to
}

// traverse applies one edge traversal: label check, restrictor checks and
// updates, binding, inline WHERE, recursion — and undoes everything.
func (m *dfs) traverse(in *plan.Instr, ei, target int) error {
	ep := in.Edge
	e := m.st.EdgeByIndex(ei)
	if ep.Label != nil && !ep.Label.Matches(e.Labels) {
		return nil
	}

	// Restrictor checks and updates across all active scopes.
	type scopeUndo struct {
		s           *scopeState
		removeEdge  bool
		removeNode  bool
		clearClosed bool
		uninit      bool
	}
	var undos []scopeUndo
	undoScopes := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			u := undos[i]
			if u.removeEdge {
				delete(u.s.usedEdges, ei)
			}
			if u.removeNode {
				delete(u.s.usedNodes, target)
			}
			if u.clearClosed {
				u.s.closed = false
			}
			if u.uninit {
				delete(u.s.usedNodes, u.s.firstNode)
				u.s.firstNode = 0
				u.s.inited = false
			}
		}
	}
	for _, s := range m.scopes {
		undos = append(undos, scopeUndo{s: s})
		u := &undos[len(undos)-1]
		if !s.inited {
			// Lazy initialization on the first edge within the scope (a
			// path-level scope opens before the start node is chosen). It
			// must be undone on backtrack: a different start node may be
			// tried under the same scope object.
			s.init(m.pos)
			u.uninit = true
		}
		switch s.restrictor {
		case ast.Trail:
			if _, used := s.usedEdges[ei]; used {
				undoScopes()
				return nil
			}
			s.usedEdges[ei] = struct{}{}
			u.removeEdge = true
		case ast.Acyclic:
			if _, used := s.usedNodes[target]; used {
				undoScopes()
				return nil
			}
			s.usedNodes[target] = struct{}{}
			u.removeNode = true
		case ast.Simple:
			if _, used := s.usedNodes[target]; used {
				if target != s.firstNode {
					undoScopes()
					return nil
				}
				s.closed = true
				u.clearClosed = true
			} else {
				s.usedNodes[target] = struct{}{}
				u.removeNode = true
			}
		}
	}

	undo, ok := m.bindElem(ep.Var, binding.EdgeElem, ei)
	if !ok {
		undoScopes()
		return nil
	}

	// Commit movement.
	prevPos := m.pos
	m.pos = target
	m.pathEdges = append(m.pathEdges, graph.ElemIdx(ei))
	m.pathNodes = append(m.pathNodes, graph.ElemIdx(target))
	savedEntries := len(m.entries)
	m.entries = append(m.entries, binding.Entry{Var: ep.Var, Iters: m.iterAnnotation(), Kind: binding.EdgeElem, Idx: graph.ElemIdx(ei)})
	savedPosStart := m.posStart
	m.posStart = len(m.posArena)

	var err error
	passed := true
	if ep.Where != nil {
		var t value.Tri
		t, err = EvalPred(ep.Where, dfsResolver{m})
		passed = err == nil && t.IsTrue()
	}
	if err == nil && passed {
		err = m.step(in.Next)
	}

	m.posStart = savedPosStart
	m.entries = m.entries[:savedEntries]
	m.pathNodes = m.pathNodes[:len(m.pathNodes)-1]
	m.pathEdges = m.pathEdges[:len(m.pathEdges)-1]
	m.pos = prevPos
	m.undoBind(undo, ep.Var)
	undoScopes()
	return err
}

// accept emits the completed path binding: the machine's own, entries,
// tags and path included, reused by the next match
// (binding.PathBinding's contract), so emitting allocates nothing once
// the buffers have grown. A resumed BFS machine prefixes what its base
// park's path recorded.
func (m *dfs) accept() error {
	if m.pathSteps != nil && len(m.pathEdges) != len(m.pathSteps) {
		return nil // replay run left part of the path unconsumed
	}
	if err := m.bud.addMatch(); err != nil {
		return err
	}
	var nEntries, nTags, nNodes, nEdges int
	if b := m.base; b != nil {
		nEntries, nTags, nNodes, nEdges = b.nEntries, b.nTags, b.depth+1, b.depth
	}
	entries := slices.Grow(m.out.Entries[:0], nEntries)[:nEntries]
	m.out.Entries = append(append(entries, m.entries...), m.posArena[m.posStart:]...)
	m.out.Tags = append(slices.Grow(m.out.Tags[:0], nTags+len(m.tags))[:nTags], m.tags...)
	nNodes += len(m.pathNodes)
	n := nNodes + nEdges + len(m.pathEdges)
	m.pathBuf = slices.Grow(m.pathBuf[:0], n)[:n]
	path := m.pathBuf
	copy(path[nNodes-len(m.pathNodes):], m.pathNodes)
	copy(path[nNodes+nEdges:], m.pathEdges)
	m.out.Path = graph.IdxPath{Nodes: path[:nNodes:nNodes], Edges: path[nNodes:]}
	m.base.fill(m.out.Entries, m.out.Tags, m.out.Path.Nodes, m.out.Path.Edges)
	return m.emit(&m.out)
}

// fill writes a resumed machine's base path up to l into the prefixes of
// entries, tags, nodes and edges, each sized by accept from l's counts.
func (l *pathLink) fill(entries []binding.Entry, tags []binding.Tag, nodes, edges []graph.ElemIdx) {
	for ; l != nil; l = l.prev {
		copy(entries[l.nEntries-len(l.entries):], l.entries)
		copy(tags[l.nTags-len(l.tags):], l.tags)
		nodes[l.depth] = l.node
		if l.depth > 0 {
			edges[l.depth-1] = l.edge
		}
	}
}
