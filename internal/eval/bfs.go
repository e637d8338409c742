package eval

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// The BFS engine evaluates path patterns whose only termination guarantee
// is a selector (§5): the match set is infinite, but the selector keeps a
// finite subset per endpoint partition. It runs the DFS machine level by
// level over product states (program counter × graph position × quantifier
// counters × environment) with per-state admission budgets that preserve
// exactly the matches the selector can return:
//
//   - ANY / ANY SHORTEST: one arrival per state.
//   - ALL SHORTEST: every arrival at the state's minimal depth.
//   - ANY k / SHORTEST k / SHORTEST k GROUP: arrivals within the first k
//     distinct depths per state.
//
// The machine, in BFS mode, parks its state at every OpEdge instead of
// stepping; the queue admits the park by its key and later resumes it
// through the machine's own stepEdge, so each level of parks is one edge
// deeper than the last. Soundness rests on state interchangeability: the
// admission key captures everything that can influence future matching
// (position, program counter, clamped counters, singleton environment, and
// the accumulated group lists referenced by prefilters — which §5.3
// guarantees are fed by effectively bounded quantifiers), so any admitted
// arrival can replay the suffix of any pruned arrival with the same key.

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

// pathLink is what a park appended to the path since the park it was
// resumed from: the step taken (the seed alone at depth 0), the entries
// flushed and the tags pushed. Parks resumed from one link share it, so a
// level costs one link per admitted state, not a copy of the path.
type pathLink struct {
	prev            *pathLink
	depth           int // edges up to and including this link
	nEntries, nTags int // entries and tags up to and including this link
	node, edge      graph.ElemIdx
	entries         []binding.Entry
	tags            []binding.Tag
}

// parked is an admitted state waiting at an OpEdge: its path, plus the
// machine state the path does not hold. That part is bounded by the
// pattern, so it is copied whole. Only the group bindings prefilters read
// are kept; no other group list is read during the search.
type parked struct {
	at       *pathLink
	pc, pos  int
	window   []binding.Entry // pending node entries of the position
	counters []int
	frames   []iterFrame // startEdges counts from the path's first edge
	env      []localBind
	groups   []localBind
}

// bfsQueue admits the machine's parks and resumes them level by level.
type bfsQueue struct {
	policy  admitPolicy
	loops   [][2]int // loop bounds (min, max) by quantifier id
	visited map[string]*visitInfo
	// cur is the level being resumed; next collects the parks it admits.
	cur, next []parked
	// keyBuf and keyBinds are the admission-key scratch buffers.
	keyBuf   []byte
	keyBinds []bindRec
}

// newBFS builds a machine that runs prog breadth first under the
// selector, one seed per runBFS call; limits are shared across seed runs
// through the budget.
func newBFS(st graph.Stepper, prog *plan.Prog, pathVar string, limits Limits, params Params, sel ast.Selector, bud *budget, emit func(*binding.PathBinding) error) *dfs {
	m := newDFS(st, prog, pathVar, limits, params, bud, emit)
	d := &bfsQueue{
		policy:  admitPolicy{kind: sel.Kind, k: sel.K},
		loops:   make([][2]int, prog.NumQuants),
		visited: map[string]*visitInfo{},
	}
	for _, in := range prog.Instrs {
		if in.Op == plan.OpLoopStart {
			d.loops[in.QID] = [2]int{in.Min, in.Max}
		}
	}
	m.bfs = d
	return m
}

// runBFS evaluates the program anchored at the seed node index: the
// machine's own closure from the start parks level 0, then each level's
// parks are resumed in admission order. Every park of a level is one edge
// deeper than the parks of the level before, so the levels resume the
// parks first in, first out. A park at MaxDepth is not resumed: the
// search cuts silently instead of failing, since the selector's output is
// finite without the deeper paths.
func (m *dfs) runBFS(seed int) error {
	d := m.bfs
	if d.policy.kind == ast.NoSelector {
		return fmt.Errorf("eval: BFS mode requires a selector (planner bug)")
	}
	if m.prog.NumScopes > 0 {
		return fmt.Errorf("eval: restrictor scope in BFS mode (planner bug)")
	}
	m.seed = seed
	clear(d.visited)
	err := m.step(m.prog.Start)
	for err == nil && len(d.next) > 0 {
		d.cur, d.next = d.next, d.cur[:0]
		for i := range d.cur {
			if err = m.resume(&d.cur[i]); err != nil {
				break
			}
		}
		clear(d.cur)
	}
	d.next = d.next[:0]
	m.posArena, m.posStart, m.started, m.base = m.posArena[:0], 0, false, nil
	m.counters, m.groups = m.counters[:0], m.groups[:0]
	clear(m.env)
	return err
}

// park admits the machine's state at the OpEdge at pc and, when admitted,
// queues a copy of it for the next level.
func (d *bfsQueue) park(m *dfs, pc int) error {
	if !m.started {
		return fmt.Errorf("eval: edge pattern before any node pattern (normalization bug)")
	}
	baseDepth := 0
	if m.base != nil {
		baseDepth = m.base.depth
	}
	depth := baseDepth + len(m.pathEdges)
	key := d.key(m, pc)
	vi := d.visited[string(key)]
	if vi == nil {
		vi = &visitInfo{}
		d.visited[string(key)] = vi
	}
	if !d.policy.admit(vi, depth) {
		return nil
	}
	if err := m.bud.addThread(); err != nil {
		return err
	}
	l := &pathLink{
		prev:    m.base,
		depth:   depth,
		node:    m.pathNodes[len(m.pathNodes)-1],
		entries: slices.Clone(m.entries),
		tags:    slices.Clone(m.tags),
	}
	l.nEntries, l.nTags = len(l.entries), len(l.tags)
	if l.prev != nil {
		l.edge = m.pathEdges[len(m.pathEdges)-1]
		l.nEntries += l.prev.nEntries
		l.nTags += l.prev.nTags
	}
	p := parked{
		at:       l,
		pc:       pc,
		pos:      m.pos,
		window:   slices.Clone(m.posArena[m.posStart:]),
		counters: slices.Clone(m.counters),
		frames:   make([]iterFrame, len(m.frames)),
	}
	for i, f := range m.frames {
		p.frames[i] = iterFrame{qid: f.qid, counterIdx: f.counterIdx, startEdges: f.startEdges + baseDepth, locals: slices.Clone(f.locals)}
	}
	for name, ref := range m.env {
		p.env = append(p.env, localBind{name, ref})
	}
	for _, g := range m.groups {
		if m.prog.PrefilterGroups[g.name] {
			p.groups = append(p.groups, g)
		}
	}
	d.next = append(d.next, p)
	return nil
}

// resume restores a parked state on the machine and steps its edge. The
// machine's path elements, entries and tags start empty: base holds them,
// and frame starts count from base's depth.
func (m *dfs) resume(p *parked) error {
	if p.at.depth >= m.limits.MaxDepth {
		return nil
	}
	m.base, m.started, m.pos = p.at, true, p.pos
	m.posArena, m.posStart = append(m.posArena[:0], p.window...), 0
	m.counters = append(m.counters[:0], p.counters...)
	for _, f := range p.frames {
		nf := m.newFrame()
		nf.qid, nf.counterIdx, nf.startEdges = f.qid, f.counterIdx, f.startEdges-p.at.depth
		nf.locals = append(nf.locals, f.locals...)
		m.frames = append(m.frames, nf)
	}
	clear(m.env)
	for _, b := range p.env {
		m.env[b.name] = b.ref
	}
	m.groups = append(m.groups[:0], p.groups...)
	err := m.stepEdge(&m.prog.Instrs[p.pc])
	m.framePool = append(m.framePool, m.frames...)
	m.frames = m.frames[:0]
	return err
}

// bindRec is one admission-key binding record: the owning frame's
// quantifier (-1 for the environment), the variable, and the element.
type bindRec struct {
	qid  int
	name string
	kind binding.ElemKind
	idx  graph.ElemIdx
}

// key builds the admission key of the machine's state at pc: everything
// that can influence its future behaviour, varint-packed. Bindings are
// sorted under a fixed total order, so equal binding sets produce equal
// keys. The seed is not in the key: each seed run has its own visited set.
func (d *bfsQueue) key(m *dfs, pc int) []byte {
	buf := d.keyBuf[:0]
	buf = binary.AppendUvarint(buf, uint64(pc))
	buf = binary.AppendUvarint(buf, uint64(m.pos))
	// Counters, clamped: beyond an unbounded quantifier's minimum, all
	// counter values behave identically.
	buf = binary.AppendUvarint(buf, uint64(len(m.counters)))
	for i, c := range m.counters {
		min, max := d.counterBounds(m, i)
		if max < 0 && c > min {
			c = min + 1
		}
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	// Singleton environment and iteration locals, canonically ordered.
	binds := d.keyBinds[:0]
	for name, ref := range m.env {
		binds = append(binds, bindRec{qid: -1, name: name, kind: ref.Kind, idx: ref.Idx})
	}
	for _, f := range m.frames {
		for _, l := range f.locals {
			binds = append(binds, bindRec{qid: f.qid, name: l.name, kind: l.ref.Kind, idx: l.ref.Idx})
		}
	}
	slices.SortFunc(binds, func(a, c bindRec) int {
		if a.name != c.name {
			return strings.Compare(a.name, c.name)
		}
		if a.qid != c.qid {
			return a.qid - c.qid
		}
		if a.kind != c.kind {
			return int(a.kind) - int(c.kind)
		}
		return int(a.idx) - int(c.idx)
	})
	buf = binary.AppendUvarint(buf, uint64(len(binds)))
	for _, r := range binds {
		buf = binary.AppendUvarint(buf, uint64(r.qid+1))
		buf = append(buf, r.name...)
		buf = append(buf, 0, byte(r.kind))
		buf = binary.AppendUvarint(buf, uint64(r.idx))
	}
	// Group lists read by prefilters (effectively bounded, §5.3), in
	// binding order across variables.
	for _, g := range m.groups {
		if m.prog.PrefilterGroups[g.name] {
			buf = append(buf, g.name...)
			buf = append(buf, 0, byte(g.ref.Kind))
			buf = binary.AppendUvarint(buf, uint64(g.ref.Idx))
		}
	}
	d.keyBinds = binds[:0]
	d.keyBuf = buf
	return buf
}

// counterBounds finds the loop bounds owning counter index i through the
// frame that iterates it. Bounds are only needed for clamping.
func (d *bfsQueue) counterBounds(m *dfs, i int) (int, int) {
	for _, f := range m.frames {
		if f.counterIdx == i {
			return d.loops[f.qid][0], d.loops[f.qid][1]
		}
	}
	// Counter pushed by a loop whose iteration frame is not active (the
	// state sits between LoopCheck and IterStart); conservative: no clamp.
	return 0, 1 << 30
}
