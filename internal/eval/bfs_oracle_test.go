package eval

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// The reference BFS engine: the per-state BFS search as a separate
// interpreter of plan.Prog over persistent (shared-tail) threads. It is
// the oracle TestBFSMatchesOracle holds the BFS engine (bfs.go) to:
// per seed, the same raw bindings in the same order, the same number of
// admitted states and the same limit errors. It shares the admission
// policy with the engine and nothing else.
//
// Threads are level-synchronous product states (program counter × graph
// position × quantifier counters × environment); the admission key holds
// everything that can influence future matching — position, program
// counter, clamped counters, singleton environment, and the group lists
// prefilters read, in binding order across variables.

// Persistent (shared-tail) state for threads.

type oracleBind struct {
	name string
	ref  binding.Ref
	prev *oracleBind
}

func (b *oracleBind) lookup(name string) (binding.Ref, bool) {
	for n := b; n != nil; n = n.prev {
		if n.name == name {
			return n.ref, true
		}
	}
	return binding.Ref{}, false
}

type oracleFrame struct {
	qid        int
	counterIdx int
	startDepth int
	locals     *oracleBind
	// groups is the thread's group list when the iteration began.
	groups *oracleGroup
	prev   *oracleFrame
}

type oracleEntry struct {
	e    binding.Entry
	prev *oracleEntry
	n    int
}

type oracleStep struct {
	edge graph.ElemIdx
	node graph.ElemIdx
	prev *oracleStep
	n    int
}

type oracleTag struct {
	t    binding.Tag
	prev *oracleTag
}

type oracleGroup struct {
	name string
	ref  binding.Ref
	prev *oracleGroup
}

// oracleThread is one BFS search state. Threads are values; extending a thread
// copies the struct and shares the persistent tails.
type oracleThread struct {
	pc      int
	pos     int
	started bool
	first   int
	depth   int

	counters []int // immutable; copy on change
	frames   *oracleFrame
	env      *oracleBind
	groups   *oracleGroup
	entries  *oracleEntry
	pending  []binding.Entry // node entries for the current position (immutable)
	tags     *oracleTag
	steps    *oracleStep
}

type oracleBFS struct {
	st     graph.Stepper
	prog   *plan.Prog
	limits Limits
	params Params
	bud    *budget
	seed   int

	policy  admitPolicy
	visited map[string]*visitInfo
	queue   []oracleThread

	// keyBuf and keyBinds are the admission-key scratch buffers, reused
	// across park calls.
	keyBuf   []byte
	keyBinds []oracleBindRec

	pathVar string
	emit    func(*binding.PathBinding) error
	ticks   int
}

// runOracleBFS evaluates the program under the given selector, anchored
// at the seed node index, with a visited set of its own; limits are
// shared across seed runs through the budget.
func runOracleBFS(st graph.Stepper, prog *plan.Prog, pathVar string, limits Limits, params Params, sel ast.Selector, seed int, bud *budget, emit func(*binding.PathBinding) error) error {
	if sel.Kind == ast.NoSelector {
		return fmt.Errorf("eval: BFS mode requires a selector (planner bug)")
	}
	b := &oracleBFS{
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
	if err := b.closure(oracleThread{pc: prog.Start}); err != nil {
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
func (b *oracleBFS) park(t oracleThread) error {
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

// oracleBindRec is one admission-key binding record: the owning frame's
// quantifier (-1 for the environment), the variable, and the element.
type oracleBindRec struct {
	qid  int
	name string
	kind binding.ElemKind
	idx  graph.ElemIdx
}

// key builds the admission key: everything that can influence the
// thread's future behaviour, varint-packed. Bindings are sorted under a
// fixed total order, so equal binding sets produce equal keys.
func (b *oracleBFS) key(t oracleThread) string {
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
		binds = append(binds, oracleBindRec{qid: -1, name: n.name, kind: n.ref.Kind, idx: n.ref.Idx})
	}
	for f := t.frames; f != nil; f = f.prev {
		for n := f.locals; n != nil; n = n.prev {
			binds = append(binds, oracleBindRec{qid: f.qid, name: n.name, kind: n.ref.Kind, idx: n.ref.Idx})
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
	// How many group bindings prefilters read preceded each iteration
	// that scopes such a read.
	if b.prog.GroupScopes != nil {
		for f := t.frames; f != nil; f = f.prev {
			if b.prog.GroupScopes[f.qid] {
				n := 0
				for g := f.groups; g != nil; g = g.prev {
					if _, ok := b.prog.PrefilterGroups[g.name]; ok {
						n++
					}
				}
				buf = binary.AppendUvarint(buf, uint64(n))
			}
		}
	}
	// Group lists read by prefilters (effectively bounded, §5.3), in
	// chronological order (cons lists are LIFO, so reverse).
	if len(b.prog.PrefilterGroups) > 0 {
		gs := binds[len(binds):]
		for n := t.groups; n != nil; n = n.prev {
			if _, ok := b.prog.PrefilterGroups[n.name]; ok {
				gs = append(gs, oracleBindRec{name: n.name, kind: n.ref.Kind, idx: n.ref.Idx})
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
func (b *oracleBFS) counterBounds(t oracleThread, i int) (int, int) {
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

// oracleResolver adapts a BFS thread for prefilter evaluation (the
// automaton engine's path replayer runs on the DFS machine instead).
type oracleResolver struct {
	g      graph.Stepper
	prog   *plan.Prog
	t      *oracleThread
	params Params
}

func (r oracleResolver) Graph() graph.Stepper { return r.g }

func (r oracleResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := r.params[name]
	return v, ok
}

func (r oracleResolver) Elem(name string) (binding.Ref, bool) {
	for f := r.t.frames; f != nil; f = f.prev {
		if ref, ok := f.locals.lookup(name); ok {
			return ref, true
		}
	}
	return r.t.env.lookup(name)
}

// Group reads the bindings the variable made since the current iteration
// of the innermost active quantifier enclosing its declaration began.
func (r oracleResolver) Group(name string) ([]binding.Ref, bool) {
	var out []binding.Ref
	found := false
	var stop *oracleGroup
	for f := r.t.frames; f != nil; f = f.prev {
		if slices.Contains(r.prog.PrefilterGroups[name], f.qid) {
			stop = f.groups
			break
		}
	}
	for n := r.t.groups; n != stop; n = n.prev {
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
func (b *oracleBFS) closure(t oracleThread) error {
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
		t2.frames = &oracleFrame{
			qid:        in.QID,
			counterIdx: len(t.counters) - 1,
			startDepth: t.depth,
			locals:     nil,
			groups:     t.groups,
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
		tri, err := EvalPred(in.Where, oracleResolver{b.st, b.prog, &t, b.params})
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
		t2.tags = &oracleTag{t: binding.Tag{Union: in.Union, Branch: in.Branch}, prev: t.tags}
		t2.pc = in.Next
		return b.closure(t2)
	default:
		return fmt.Errorf("eval: unknown opcode %v", in.Op)
	}
}

func (b *oracleBFS) closureNode(t oracleThread, in *plan.Instr) error {
	if !t.started {
		t2 := t
		t2.started = true
		t2.pos = b.seed
		t2.first = b.seed
		return b.matchNode(t2, in, b.st.NodeByIndex(b.seed))
	}
	return b.matchNode(t, in, b.st.NodeByIndex(t.pos))
}

func (b *oracleBFS) matchNode(t oracleThread, in *plan.Instr, n *graph.Node) error {
	np := in.Node
	if np.Label != nil && !np.Label.Matches(n.Labels) {
		return nil
	}
	t2, ok := oracleBindThread(t, np.Var, binding.NodeElem, t.pos)
	if !ok {
		return nil
	}
	t2.pending = oraclePushPending(t2, np.Var, binding.NodeElem, t.pos)
	if np.Where != nil {
		tri, err := EvalPred(np.Where, oracleResolver{b.st, b.prog, &t2, b.params})
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

// oraclePushPending is the §6.3 node-entry rule on immutable slices.
func oraclePushPending(t oracleThread, varName string, kind binding.ElemKind, idx int) []binding.Entry {
	entry := binding.Entry{Var: varName, Iters: oracleIterAnnotation(t), Kind: kind, Idx: graph.ElemIdx(idx)}
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

func oracleIterAnnotation(t oracleThread) binding.IterAnn {
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

// oracleBindThread binds a variable with equi-join semantics, persistently.
func oracleBindThread(t oracleThread, varName string, kind binding.ElemKind, idx int) (oracleThread, bool) {
	ref := binding.Ref{Kind: kind, Idx: graph.ElemIdx(idx)}
	anon := ast.IsAnonVar(varName)
	if t.frames != nil {
		if prev, ok := t.frames.locals.lookup(varName); ok {
			return t, prev == ref
		}
		f2 := *t.frames
		f2.locals = &oracleBind{name: varName, ref: ref, prev: f2.locals}
		t.frames = &f2
		if !anon {
			t.groups = &oracleGroup{name: varName, ref: ref, prev: t.groups}
		}
		return t, true
	}
	if prev, ok := t.env.lookup(varName); ok {
		return t, prev == ref
	}
	t.env = &oracleBind{name: varName, ref: ref, prev: t.env}
	return t, true
}

// expand advances a parked thread across one edge in every admissible
// orientation, then closes over epsilon instructions.
func (b *oracleBFS) expand(t oracleThread) error {
	in := &b.prog.Instrs[t.pc]
	if in.Op != plan.OpEdge {
		return fmt.Errorf("eval: parked oracleThread not at an edge (pc %d)", t.pc)
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
	base.entries = oracleAppendEntries(t.entries, t.pending)
	base.pending = nil

	var firstErr error
	b.st.Steps(t.pos, func(ei, oi int, kind graph.StepKind) bool {
		// Every step, a directed self-loop included, is taken once.
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

func oracleAppendEntries(tail *oracleEntry, entries []binding.Entry) *oracleEntry {
	for _, e := range entries {
		n := 1
		if tail != nil {
			n = tail.n + 1
		}
		tail = &oracleEntry{e: e, prev: tail, n: n}
	}
	return tail
}

func (b *oracleBFS) traverse(base oracleThread, in *plan.Instr, ei, target int) error {
	ep := in.Edge
	e := b.st.EdgeByIndex(ei)
	if ep.Label != nil && !ep.Label.Matches(e.Labels) {
		return nil
	}
	t2, ok := oracleBindThread(base, ep.Var, binding.EdgeElem, ei)
	if !ok {
		return nil
	}
	t2.pos = target
	t2.depth = base.depth + 1
	t2.entries = oracleAppendEntries(t2.entries, []binding.Entry{{
		Var: ep.Var, Iters: oracleIterAnnotation(base), Kind: binding.EdgeElem, Idx: graph.ElemIdx(ei),
	}})
	n := 1
	if base.steps != nil {
		n = base.steps.n + 1
	}
	t2.steps = &oracleStep{edge: graph.ElemIdx(ei), node: graph.ElemIdx(target), prev: base.steps, n: n}
	if ep.Where != nil {
		tri, err := EvalPred(ep.Where, oracleResolver{b.st, b.prog, &t2, b.params})
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
func (b *oracleBFS) accept(t oracleThread) error {
	if err := b.bud.addMatch(); err != nil {
		return err
	}
	return b.emit(oracleMaterialize(t, b.pathVar, b.st))
}

// oracleMaterialize converts a completed BFS thread into a path binding.
func oracleMaterialize(t oracleThread, pathVar string, src graph.Stepper) *binding.PathBinding {
	final := oracleAppendEntries(t.entries, t.pending)
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
