package eval

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// The BFS engine evaluates path patterns whose only termination guarantee
// is a selector (§5): the match set is infinite, but the selector keeps a
// finite subset per endpoint partition. It runs a level-synchronous search
// over product states (program counter × graph position × quantifier
// counters × environment) with per-state admission budgets that preserve
// exactly the matches the selector can return:
//
//   - ANY / ANY SHORTEST: one arrival per state.
//   - ALL SHORTEST: every arrival at the state's minimal depth.
//   - ANY k / SHORTEST k / SHORTEST k GROUP: arrivals within the first k
//     distinct depths per state.
//
// Soundness rests on state interchangeability: the admission key captures
// everything that can influence future matching (position, program
// counter, clamped counters, singleton environment, and the accumulated
// group lists referenced by prefilters — which §5.3 guarantees are fed by
// effectively bounded quantifiers), so any admitted arrival can replay the
// suffix of any pruned arrival with the same key.
//
// Like the DFS machine, the search is integer-dense: positions and
// bindings are dense indices, and admission keys are compact
// varint-packed byte strings rather than formatted id strings.

// Persistent (shared-tail) state for threads.

type bindNode struct {
	name string
	ref  binding.Ref
	prev *bindNode
}

func (b *bindNode) lookup(name string) (binding.Ref, bool) {
	for n := b; n != nil; n = n.prev {
		if n.name == name {
			return n.ref, true
		}
	}
	return binding.Ref{}, false
}

type frameNode struct {
	qid        int
	counterIdx int
	startDepth int
	locals     *bindNode
	prev       *frameNode
}

type entryNode struct {
	e    binding.Entry
	prev *entryNode
	n    int
}

type stepNode struct {
	edge graph.ElemIdx
	node graph.ElemIdx
	prev *stepNode
	n    int
}

type tagNode struct {
	t    binding.Tag
	prev *tagNode
}

type groupNode struct {
	name string
	ref  binding.Ref
	prev *groupNode
}

// thread is one BFS search state. Threads are values; extending a thread
// copies the struct and shares the persistent tails.
type thread struct {
	pc      int
	pos     int
	started bool
	first   int
	depth   int

	counters []int // immutable; copy on change
	frames   *frameNode
	env      *bindNode
	groups   *groupNode
	entries  *entryNode
	pending  []binding.Entry // node entries for the current position (immutable)
	tags     *tagNode
	steps    *stepNode
}

type bfs struct {
	st     graph.Stepper
	prog   *plan.Prog
	limits Limits
	params Params
	bud    *budget
	seed   int

	policy  admitPolicy
	visited map[string]*visitInfo
	queue   []thread

	// keyBuf and keyBinds are the admission-key scratch buffers, reused
	// across park calls.
	keyBuf   []byte
	keyBinds []bindRec

	pathVar string
	emit    func(*binding.PathBinding) error
	ticks   int
}

type admitPolicy struct {
	kind ast.SelectorKind
	k    int
}

type visitInfo struct {
	depths []int
	count  int
}

func (p admitPolicy) admit(vi *visitInfo, depth int) bool {
	switch p.kind {
	case ast.AnyShortest, ast.AnyPath:
		if vi.count >= 1 {
			return false
		}
		vi.count++
		return true
	case ast.AllShortest:
		if len(vi.depths) == 0 {
			vi.depths = append(vi.depths, depth)
			return true
		}
		return depth == vi.depths[0]
	default: // AnyK, ShortestK, ShortestKGroup
		for _, d := range vi.depths {
			if d == depth {
				return true
			}
		}
		if len(vi.depths) < p.k {
			vi.depths = append(vi.depths, depth)
			return true
		}
		return false
	}
}

// runBFS evaluates the program under the given selector, anchored at the
// seed node index. Admission keys include the start node, so per-seed
// searches admit exactly the threads the old whole-graph search did;
// limits are shared across seed runs through the budget.
func runBFS(st graph.Stepper, prog *plan.Prog, pathVar string, limits Limits, params Params, sel ast.Selector, seed int, bud *budget, emit func(*binding.PathBinding) error) error {
	if sel.Kind == ast.NoSelector {
		return fmt.Errorf("eval: BFS mode requires a selector (planner bug)")
	}
	b := &bfs{
		st:      st,
		prog:    prog,
		limits:  limits.withDefaults(),
		params:  params,
		bud:     bud,
		seed:    seed,
		policy:  admitPolicy{kind: sel.Kind, k: sel.K},
		visited: map[string]*visitInfo{},
		pathVar: pathVar,
		emit:    emit,
	}
	if err := b.closure(thread{pc: prog.Start}); err != nil {
		return err
	}
	for i := 0; i < len(b.queue); i++ {
		t := b.queue[i]
		if err := b.expand(t); err != nil {
			return err
		}
	}
	return nil
}

// park admits a thread stuck at an OpEdge instruction into the queue.
func (b *bfs) park(t thread) error {
	key := b.key(t)
	vi := b.visited[key]
	if vi == nil {
		vi = &visitInfo{}
		b.visited[key] = vi
	}
	if !b.policy.admit(vi, t.depth) {
		return nil
	}
	if err := b.bud.addThread(); err != nil {
		return err
	}
	b.queue = append(b.queue, t)
	return nil
}

// bindRec is one admission-key binding record: the owning frame's
// quantifier (-1 for the environment), the variable, and the element.
type bindRec struct {
	qid  int
	name string
	kind binding.ElemKind
	idx  graph.ElemIdx
}

// key builds the admission key: everything that can influence the thread's
// future behaviour, varint-packed. Bindings are sorted under a fixed total
// order, so equal binding sets produce equal keys (the old implementation
// sorted rendered "name=id" strings; any canonical order preserves the
// same equalities because ids and indices are in bijection).
func (b *bfs) key(t thread) string {
	buf := b.keyBuf[:0]
	buf = binary.AppendUvarint(buf, uint64(t.pc))
	if t.started {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(t.pos))
		buf = binary.AppendUvarint(buf, uint64(t.first))
	} else {
		buf = append(buf, 0)
	}
	// Counters, clamped: beyond an unbounded quantifier's minimum, all
	// counter values behave identically.
	buf = binary.AppendUvarint(buf, uint64(len(t.counters)))
	for i, c := range t.counters {
		min, max := b.counterBounds(t, i)
		if max < 0 && c > min {
			c = min + 1
		}
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	// Singleton environment, canonically ordered.
	binds := b.keyBinds[:0]
	for n := t.env; n != nil; n = n.prev {
		binds = append(binds, bindRec{qid: -1, name: n.name, kind: n.ref.Kind, idx: n.ref.Idx})
	}
	for f := t.frames; f != nil; f = f.prev {
		for n := f.locals; n != nil; n = n.prev {
			binds = append(binds, bindRec{qid: f.qid, name: n.name, kind: n.ref.Kind, idx: n.ref.Idx})
		}
	}
	sort.Slice(binds, func(i, j int) bool {
		a, c := binds[i], binds[j]
		if a.name != c.name {
			return a.name < c.name
		}
		if a.qid != c.qid {
			return a.qid < c.qid
		}
		if a.kind != c.kind {
			return a.kind < c.kind
		}
		return a.idx < c.idx
	})
	buf = binary.AppendUvarint(buf, uint64(len(binds)))
	for _, r := range binds {
		buf = binary.AppendUvarint(buf, uint64(r.qid+1))
		buf = append(buf, r.name...)
		buf = append(buf, 0)
		buf = append(buf, byte(r.kind))
		buf = binary.AppendUvarint(buf, uint64(r.idx))
	}
	// Group lists read by prefilters (effectively bounded, §5.3), in
	// chronological order (cons lists are LIFO, so reverse).
	if len(b.prog.PrefilterGroups) > 0 {
		gs := binds[len(binds):]
		for n := t.groups; n != nil; n = n.prev {
			if b.prog.PrefilterGroups[n.name] {
				gs = append(gs, bindRec{name: n.name, kind: n.ref.Kind, idx: n.ref.Idx})
			}
		}
		for i, j := 0, len(gs)-1; i < j; i, j = i+1, j-1 {
			gs[i], gs[j] = gs[j], gs[i]
		}
		buf = binary.AppendUvarint(buf, uint64(len(gs)))
		for _, r := range gs {
			buf = append(buf, r.name...)
			buf = append(buf, 0)
			buf = append(buf, byte(r.kind))
			buf = binary.AppendUvarint(buf, uint64(r.idx))
		}
	}
	b.keyBinds = binds[:0]
	b.keyBuf = buf
	return string(buf)
}

// counterBounds finds the loop bounds owning counter index i by scanning
// the frames (each frame knows its counter index) and, failing that, the
// program's loop instructions. Bounds are only needed for clamping.
func (b *bfs) counterBounds(t thread, i int) (int, int) {
	for f := t.frames; f != nil; f = f.prev {
		if f.counterIdx == i {
			for _, in := range b.prog.Instrs {
				if in.Op == plan.OpLoopStart && in.QID == f.qid {
					return in.Min, in.Max
				}
			}
		}
	}
	// Counter pushed by a loop whose iteration frame is not active (the
	// thread sits between LoopCheck and IterStart); conservative: no clamp.
	return 0, 1 << 30
}

// threadResolver adapts a BFS thread for prefilter evaluation (the
// automaton engine's path replayer runs on the DFS machine instead).
type threadResolver struct {
	g      graph.Stepper
	t      *thread
	params Params
}

func (r threadResolver) Graph() graph.Stepper { return r.g }

func (r threadResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := r.params[name]
	return v, ok
}

func (r threadResolver) Elem(name string) (binding.Ref, bool) {
	for f := r.t.frames; f != nil; f = f.prev {
		if ref, ok := f.locals.lookup(name); ok {
			return ref, true
		}
	}
	return r.t.env.lookup(name)
}

func (r threadResolver) Group(name string) ([]binding.Ref, bool) {
	var out []binding.Ref
	found := false
	for n := r.t.groups; n != nil; n = n.prev {
		if n.name == name {
			out = append(out, n.ref)
			found = true
		}
	}
	// Reverse to chronological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, found
}

// closure expands a thread through epsilon instructions until it parks at
// an OpEdge or accepts.
func (b *bfs) closure(t thread) error {
	in := &b.prog.Instrs[t.pc]
	switch in.Op {
	case plan.OpEdge:
		return b.park(t)
	case plan.OpAccept:
		return b.accept(t)
	case plan.OpNode:
		return b.closureNode(t, in)
	case plan.OpSplit:
		t1 := t
		t1.pc = in.Next
		if err := b.closure(t1); err != nil {
			return err
		}
		t2 := t
		t2.pc = in.Alt
		return b.closure(t2)
	case plan.OpLoopStart:
		t2 := t
		t2.counters = append(append([]int(nil), t.counters...), 0)
		t2.pc = in.Next
		return b.closure(t2)
	case plan.OpLoopCheck:
		c := t.counters[len(t.counters)-1]
		if c < in.Min {
			t2 := t
			t2.pc = in.Next
			return b.closure(t2)
		}
		exit := t
		exit.pc = in.Alt
		if err := b.closure(exit); err != nil {
			return err
		}
		if in.Max < 0 || c < in.Max {
			iter := t
			iter.pc = in.Next
			return b.closure(iter)
		}
		return nil
	case plan.OpIterStart:
		t2 := t
		t2.frames = &frameNode{
			qid:        in.QID,
			counterIdx: len(t.counters) - 1,
			startDepth: t.depth,
			locals:     nil,
			prev:       t.frames,
		}
		t2.pc = in.Next
		return b.closure(t2)
	case plan.OpIterEnd:
		f := t.frames
		t2 := t
		t2.frames = f.prev
		t2.counters = append([]int(nil), t.counters...)
		t2.counters[f.counterIdx]++
		if t.depth == f.startDepth {
			// Zero-width iteration: exit once the minimum is reached.
			if t2.counters[f.counterIdx] >= in.Min {
				t2.pc = in.Alt
				return b.closure(t2)
			}
			t2.pc = in.Next
			return b.closure(t2)
		}
		t2.pc = in.Next
		return b.closure(t2)
	case plan.OpLoopEnd:
		t2 := t
		t2.counters = t.counters[:len(t.counters)-1]
		t2.pc = in.Next
		return b.closure(t2)
	case plan.OpScopeStart, plan.OpScopeEnd:
		return fmt.Errorf("eval: restrictor scope in BFS mode (planner bug)")
	case plan.OpWhere:
		tri, err := EvalPred(in.Where, threadResolver{b.st, &t, b.params})
		if err != nil {
			return err
		}
		if !tri.IsTrue() {
			return nil
		}
		t2 := t
		t2.pc = in.Next
		return b.closure(t2)
	case plan.OpTag:
		t2 := t
		t2.tags = &tagNode{t: binding.Tag{Union: in.Union, Branch: in.Branch}, prev: t.tags}
		t2.pc = in.Next
		return b.closure(t2)
	default:
		return fmt.Errorf("eval: unknown opcode %v", in.Op)
	}
}

func (b *bfs) closureNode(t thread, in *plan.Instr) error {
	if !t.started {
		t2 := t
		t2.started = true
		t2.pos = b.seed
		t2.first = b.seed
		return b.matchNode(t2, in, b.st.NodeByIndex(b.seed))
	}
	return b.matchNode(t, in, b.st.NodeByIndex(t.pos))
}

func (b *bfs) matchNode(t thread, in *plan.Instr, n *graph.Node) error {
	np := in.Node
	if np.Label != nil && !np.Label.Matches(n.Labels) {
		return nil
	}
	t2, ok := bindThread(t, np.Var, binding.NodeElem, t.pos)
	if !ok {
		return nil
	}
	t2.pending = pushPending(t2, np.Var, binding.NodeElem, t.pos)
	if np.Where != nil {
		tri, err := EvalPred(np.Where, threadResolver{b.st, &t2, b.params})
		if err != nil {
			return err
		}
		if !tri.IsTrue() {
			return nil
		}
	}
	t2.pc = in.Next
	return b.closure(t2)
}

// pushPending mirrors dfs.pushPosEntry with immutable slices.
func pushPending(t thread, varName string, kind binding.ElemKind, idx int) []binding.Entry {
	entry := binding.Entry{Var: varName, Iters: iterAnnotationOf(t), Kind: kind, Idx: graph.ElemIdx(idx)}
	if ast.IsAnonVar(varName) {
		if len(t.pending) > 0 {
			return t.pending
		}
		return []binding.Entry{entry}
	}
	if len(t.pending) == 1 && ast.IsAnonVar(t.pending[0].Var) {
		return []binding.Entry{entry}
	}
	next := make([]binding.Entry, len(t.pending)+1)
	copy(next, t.pending)
	next[len(t.pending)] = entry
	return next
}

func iterAnnotationOf(t thread) binding.IterAnn {
	var a binding.IterAnn
	if t.frames == nil {
		return a
	}
	var rev []int
	for f := t.frames; f != nil; f = f.prev {
		rev = append(rev, t.counters[f.counterIdx])
	}
	for i := len(rev) - 1; i >= 0; i-- {
		a.Push(rev[i])
	}
	return a
}

// bindThread binds a variable with equi-join semantics, persistently.
func bindThread(t thread, varName string, kind binding.ElemKind, idx int) (thread, bool) {
	ref := binding.Ref{Kind: kind, Idx: graph.ElemIdx(idx)}
	anon := ast.IsAnonVar(varName)
	if t.frames != nil {
		if prev, ok := t.frames.locals.lookup(varName); ok {
			return t, prev == ref
		}
		f2 := *t.frames
		f2.locals = &bindNode{name: varName, ref: ref, prev: f2.locals}
		t.frames = &f2
		if !anon {
			t.groups = &groupNode{name: varName, ref: ref, prev: t.groups}
		}
		return t, true
	}
	if prev, ok := t.env.lookup(varName); ok {
		return t, prev == ref
	}
	t.env = &bindNode{name: varName, ref: ref, prev: t.env}
	return t, true
}

// expand advances a parked thread across one edge in every admissible
// orientation, then closes over epsilon instructions.
func (b *bfs) expand(t thread) error {
	in := &b.prog.Instrs[t.pc]
	if in.Op != plan.OpEdge {
		return fmt.Errorf("eval: parked thread not at an edge (pc %d)", t.pc)
	}
	if t.depth >= b.limits.MaxDepth {
		return nil // deeper exploration abandoned; selector output is finite
	}
	if b.ticks++; b.ticks%cancelCheckInterval == 0 {
		if err := b.bud.check(); err != nil {
			return err
		}
	}
	ep := in.Edge
	// Flush pending node entries.
	base := t
	base.entries = appendEntries(t.entries, t.pending)
	base.pending = nil

	var firstErr error
	b.st.Steps(t.pos, func(ei, oi int, kind graph.StepKind) bool {
		// Directed self-loops step once per admitted direction (§4.2);
		// every other step has exactly one orientation.
		if kind == graph.StepLoop {
			if ep.Orientation.AllowsRight() {
				if err := b.traverse(base, in, ei, oi); err != nil {
					firstErr = err
					return false
				}
			}
			if ep.Orientation.AllowsLeft() {
				if err := b.traverse(base, in, ei, oi); err != nil {
					firstErr = err
					return false
				}
			}
			return true
		}
		if !stepAllowed(ep.Orientation, kind) {
			return true
		}
		if err := b.traverse(base, in, ei, oi); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	return firstErr
}

func appendEntries(tail *entryNode, entries []binding.Entry) *entryNode {
	for _, e := range entries {
		n := 1
		if tail != nil {
			n = tail.n + 1
		}
		tail = &entryNode{e: e, prev: tail, n: n}
	}
	return tail
}

func (b *bfs) traverse(base thread, in *plan.Instr, ei, target int) error {
	ep := in.Edge
	e := b.st.EdgeByIndex(ei)
	if ep.Label != nil && !ep.Label.Matches(e.Labels) {
		return nil
	}
	t2, ok := bindThread(base, ep.Var, binding.EdgeElem, ei)
	if !ok {
		return nil
	}
	t2.pos = target
	t2.depth = base.depth + 1
	t2.entries = appendEntries(t2.entries, []binding.Entry{{
		Var: ep.Var, Iters: iterAnnotationOf(base), Kind: binding.EdgeElem, Idx: graph.ElemIdx(ei),
	}})
	n := 1
	if base.steps != nil {
		n = base.steps.n + 1
	}
	t2.steps = &stepNode{edge: graph.ElemIdx(ei), node: graph.ElemIdx(target), prev: base.steps, n: n}
	if ep.Where != nil {
		tri, err := EvalPred(ep.Where, threadResolver{b.st, &t2, b.params})
		if err != nil {
			return err
		}
		if !tri.IsTrue() {
			return nil
		}
	}
	t2.pc = in.Next
	return b.closure(t2)
}

// accept materializes a completed thread into a path binding.
func (b *bfs) accept(t thread) error {
	if err := b.bud.addMatch(); err != nil {
		return err
	}
	return b.emit(materializeThread(t, b.pathVar, b.st))
}

// materializeThread converts a completed BFS thread into a path binding.
func materializeThread(t thread, pathVar string, src graph.Stepper) *binding.PathBinding {
	final := appendEntries(t.entries, t.pending)
	count := 0
	if final != nil {
		count = final.n
	}
	entries := make([]binding.Entry, count)
	for n := final; n != nil; n = n.prev {
		entries[n.n-1] = n.e
	}
	var tags []binding.Tag
	for n := t.tags; n != nil; n = n.prev {
		tags = append(tags, n.t)
	}
	for i, j := 0, len(tags)-1; i < j; i, j = i+1, j-1 {
		tags[i], tags[j] = tags[j], tags[i]
	}
	steps := 0
	if t.steps != nil {
		steps = t.steps.n
	}
	var path graph.IdxPath
	if t.started {
		nodes := make([]graph.ElemIdx, steps+1)
		edges := make([]graph.ElemIdx, steps)
		nodes[0] = graph.ElemIdx(t.first)
		for n := t.steps; n != nil; n = n.prev {
			nodes[n.n] = n.node
			edges[n.n-1] = n.edge
		}
		path = graph.IdxPath{Nodes: nodes, Edges: edges}
	}
	return &binding.PathBinding{
		Entries: entries,
		Tags:    tags,
		Path:    path,
		PathVar: pathVar,
		Src:     src,
	}
}
