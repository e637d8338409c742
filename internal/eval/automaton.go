package eval

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/automaton"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
	"gpml/internal/value"
)

// The automaton engine evaluates selector-bounded patterns as a
// bidirectional breadth-first search over the product of the graph with
// the pattern automaton (see internal/automaton), whose states are (node
// index × automaton state) integers: a forward side grows from the seed, a
// backward side over the reversed automaton from the target set (the live
// candidates of the plan's TailLabels), each backward state carrying its
// target, and the smaller frontier advances. Each side links every state
// to the states it was first reached from, a shortest-path DAG, and a
// (seed, target) pair's shortest matches are the two DAGs joined where the
// sides meet at the minimal summed length. Each distinct path is replayed
// through the program to rebuild its bindings byte-identically to the
// enumerating engines. The target set is scanned once per evaluation, and
// only once a seed's forward work reaches the candidate count, so short
// searches never pay for it; an unselective set keeps the backward
// frontier the larger, degrading to a forward search that stops when
// every target is met or proven unreachable. The plan's eligibility
// analysis (plan.PathPlan.Automaton) guarantees the pattern is memoryless,
// which makes the (node × state) abstraction exact in both directions.

// Engine names reported by engineFor and the -explain flag.
const (
	EngineDFS       = "dfs"
	EngineBFS       = "bfs"
	EngineAutomaton = "automaton"
)

// automatonFor returns the pattern's compiled automaton, or nil when
// compilation failed (state budget); the result is memoized on the plan.
func automatonFor(pp *plan.PathPlan) *automaton.NFA {
	v := pp.CompiledAutomaton(func() any {
		nfa, err := automaton.Compile(pp.Prog, false)
		if err != nil {
			return (*automaton.NFA)(nil)
		}
		return nfa
	})
	nfa, _ := v.(*automaton.NFA)
	return nfa
}

// engineFor reports which engine evaluates the pattern — a function of the
// plan alone — plus a note explaining why the automaton engine was not
// selected (empty when it was).
func engineFor(pp *plan.PathPlan) (engine, note string) {
	note = pp.AutomatonReason
	if pp.Automaton {
		if automatonFor(pp) != nil {
			return EngineAutomaton, ""
		}
		note = "state budget exceeded (quantifier bounds too large)"
	}
	if pp.Mode == plan.ModeBFS {
		return EngineBFS, note
	}
	return EngineDFS, note
}

// Explain renders the statement's evaluation plan without store
// statistics; see ExplainStore.
func Explain(p *plan.Plan) []string { return ExplainStore(nil, p) }

// ExplainStore renders one human-readable line per path pattern — the
// selected engine, the selector, the proven seed labels, for the DFS
// engine the index its target rings are read from (tail-rings=), for the
// automaton engine the labels its target set is scanned from and its
// state count, otherwise the reason it is not used, and the pattern's
// streaming pipeline stages with their blocking/streamable classification
// (plan.PathPlan.Stages) — followed by the cost-ordered join plan for
// multi-pattern statements (ExplainJoin), each step annotated with its
// streaming behaviour. The store, when non-nil, supplies the cardinality
// statistics the join cost model ranks patterns with.
func ExplainStore(s graph.Store, p *plan.Plan) []string {
	out := make([]string, len(p.Paths), len(p.Paths)+len(p.Paths))
	for i, pp := range p.Paths {
		eng, note := engineFor(pp)
		var b strings.Builder
		b.WriteString("pattern ")
		b.WriteString(strconv.Itoa(i))
		b.WriteString(": engine=")
		b.WriteString(eng)
		if sel := pp.Pattern.Selector; sel.Kind != ast.NoSelector {
			b.WriteString(" selector=")
			b.WriteString(sel.String())
		}
		if pp.Pattern.Restrictor != ast.NoRestrictor {
			b.WriteString(" restrictor=")
			b.WriteString(pp.Pattern.Restrictor.String())
		}
		if len(pp.SeedLabels) > 0 {
			b.WriteString(" seed=")
			b.WriteString(accessText(pp.SeedLabels, pp.HeadEq))
		}
		if ringsApply(pp) {
			b.WriteString(" tail-rings=")
			b.WriteString(accessText(pp.TailLabels, pp.TailEq))
		}
		if eng == EngineAutomaton {
			if len(pp.TailLabels) > 0 {
				b.WriteString(" target=")
				b.WriteString(accessText(pp.TailLabels, pp.TailEq))
			}
			b.WriteString(" states=")
			b.WriteString(strconv.Itoa(automatonFor(pp).NumStates()))
		} else if note != "" {
			b.WriteString(" (automaton unavailable: ")
			b.WriteString(note)
			b.WriteString(")")
		}
		b.WriteString(" stages=")
		for j, st := range pp.Stages() {
			if j > 0 {
				b.WriteString("→")
			}
			b.WriteString(st.Name)
			if st.Blocking {
				b.WriteString("[blocking]")
			}
		}
		out[i] = b.String()
	}
	return append(out, ExplainJoin(s, p)...)
}

// elemResolver resolves exactly one element — the one being matched —
// for the memoryless WHERE checks the eligibility analysis admits.
type elemResolver struct {
	g      graph.Stepper
	name   string
	ref    binding.Ref
	params Params
}

func (r elemResolver) Graph() graph.Stepper { return r.g }

func (r elemResolver) ParamValue(name string) (value.Value, bool) {
	v, ok := r.params[name]
	return v, ok
}

func (r elemResolver) Elem(name string) (binding.Ref, bool) {
	if name == r.name {
		return r.ref, true
	}
	return binding.Ref{}, false
}

func (r elemResolver) Group(string) ([]binding.Ref, bool) { return nil, false }

// replayStep is one concrete step of a reconstructed path: the dense
// indices of the edge taken and the node it arrives at.
type replayStep struct {
	edge int
	node int
}

// autoEntry is one admitted product state of a search side.
type autoEntry struct {
	pid   int   // node*S + automaton state
	t     int32 // backward side: slot of the target the state leads to
	depth int32 // edges from the side's origin
	links int32 // head of the state's shortest-DAG links (-1: none)
	next  int32 // backward side: the previous entry at the same pid (-1: none)
}

// autoLink is one shortest-DAG edge: the entry the step left (forward
// side: a predecessor; backward side: a successor toward the target), the
// dense index of the edge consumed, and the entry's next link (-1: none).
type autoLink struct{ to, edge, next int32 }

// autoSide is one direction of the search. Its tables are flat — sized by
// the states the search touches, reset per seed — and reused across seeds.
type autoSide struct {
	nfa      *automaton.NFA
	ents     []autoEntry
	index    pidTable // pid -> entry (backward side: newest entry at the pid)
	cur, nxt []int32  // frontier entries
	depth    int      // completed layers
}

func (s *autoSide) reset() {
	s.ents, s.cur, s.nxt, s.depth = s.ents[:0], s.cur[:0], s.nxt[:0], 0
	s.index.reset()
}

// autoTarget is one endpoint's standing in the current seed's search.
type autoTarget struct {
	best   int32 // shortest meeting length so far (-1: not met)
	lastAt int32 // depth of the last backward state admitted for it
	dead   bool  // its backward side ran out without meeting the seed
}

// autoMeeting joins forward entry f with backward entry b (-1: f itself
// accepts at the target) into matches of n edges ending at target slot t.
type autoMeeting struct{ f, b, t, n int32 }

// autoEngine runs the product search for one pattern; one instance serves
// any number of sequential seed runs. Bindings are recovered by replaying
// each reconstructed path on a path-constrained DFS machine (see dfs.go),
// shared across paths so replay allocates next to nothing.
type autoEngine struct {
	st     graph.Stepper
	pp     *plan.PathPlan
	nfa    *automaton.NFA
	limits Limits
	params Params
	bud    *budget

	rep     *dfs // path-constrained replay machine
	emitted int  // bindings emitted by the current replay
	seed    int

	S          int // automaton state count; product id = node*S + state
	candidates int // the target scan's candidates (see forEachNode)
	fwd, bwd   autoSide
	links      []autoLink
	meets      []autoMeeting
	tslot      pidTable // target node -> targets slot
	targets    []autoTarget
	active     bool // the backward side is seeded for the current seed
	listed     int  // live targets
	settled    int  // live targets met or proven unreachable

	cloVisit []int32 // per-automaton-state closure stamps
	cloEpoch int32
	cloOut   []int
	cloStack []int
	path     []replayStep
	seen     map[string]struct{} // the seed's distinct paths, by packed edge indices
	seenBuf  []byte
	ticks    int
}

func newAutoEngine(st graph.Stepper, pp *plan.PathPlan, cfg Config, bud *budget, emit func(*binding.PathBinding) error) *autoEngine {
	nfa := automatonFor(pp)
	a := &autoEngine{
		st:         st,
		pp:         pp,
		nfa:        nfa,
		limits:     cfg.Limits.withDefaults(),
		params:     cfg.Params,
		bud:        bud,
		S:          nfa.NumStates(),
		candidates: st.NumNodes(),
		cloVisit:   make([]int32, nfa.NumStates()),
		seen:       map[string]struct{}{},
	}
	a.fwd.nfa = nfa
	a.bwd.nfa = pp.ReversedAutomaton(func() any { return nfa.Reverse() }).(*automaton.NFA)
	if label, filters, ok := endAccess(st, pp.TailLabels, pp.TailEq, cfg.Params); ok {
		a.candidates = st.CountNodesWithLabel(label)
		if len(filters) > 0 {
			a.candidates = 0
			st.NodesWithLabelIdx(label, func(int) bool { a.candidates++; return true }, filters...)
		}
	}
	a.rep = newDFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, bud, func(b *binding.PathBinding) error {
		a.emitted++
		return emit(b)
	})
	return a
}

// accessText renders how forEachNode reads an end's candidates:
// index(L.p,…) over the (label, property) equality indexes it picks the
// smallest bucket from, or scan(L,…) over the labels it picks the
// cheapest from.
func accessText(labels []string, eqs []plan.EqConjunct) string {
	if len(eqs) == 0 {
		return "scan(" + strings.Join(labels, ",") + ")"
	}
	var pairs []string
	for i, eq := range eqs {
		if i > 0 && eq.Prop == eqs[i-1].Prop {
			continue // sorted: one pair per property
		}
		for _, l := range labels {
			pairs = append(pairs, l+"."+eq.Prop)
		}
	}
	return "index(" + strings.Join(pairs, ",") + ")"
}

// keeps reports whether side s admits automaton state q: the state steps on
// that side, or can meet the other side (a forward step source) or accept.
func (a *autoEngine) keeps(s *autoSide, q int) bool {
	return len(s.nfa.States[q].Steps) > 0 || len(a.nfa.States[q].Steps) > 0 || s == &a.fwd && a.nfa.States[q].Accept
}

// run evaluates the pattern anchored at one seed node index: the
// bidirectional product search, then reconstruction and replay of every
// minimal-length match.
func (a *autoEngine) run(seed int) error {
	a.seed = seed
	start, err := a.closure(a.nfa, seed, a.nfa.Start)
	if err != nil {
		return err
	}
	a.fwd.reset()
	a.bwd.reset()
	a.tslot.reset()
	a.links, a.meets, a.targets = a.links[:0], a.meets[:0], a.targets[:0]
	a.active, a.listed, a.settled = false, 0, 0
	for _, q := range start {
		if a.keeps(&a.fwd, q) {
			if err := a.admit(&a.fwd, seed*a.S+q, -1, 0, -1, -1); err != nil {
				return err
			}
		}
	}
	// A seed is dead when no start state can consume an edge or accept
	// (its node guards failed).
	if len(a.fwd.ents) == 0 {
		return nil
	}
	a.fwd.cur, a.fwd.nxt = a.fwd.nxt, a.fwd.cur
	work := a.ticks
	for {
		// The backward side starts once the forward work done or committed
		// — incidences visited, plus the frontier about to be expanded,
		// each of whose states visits at least the edge it arrived by —
		// reaches the candidate count, so neither the target scan (a guard
		// check per candidate) nor the backward origin states cost more.
		if !a.active && a.ticks-work+len(a.fwd.cur) >= a.candidates {
			if err := a.activate(); err != nil {
				return err
			}
		}
		if a.active {
			// At a layer boundary, drop the frontier of settled targets:
			// the layers both sides completed determine their matches.
			cur := a.bwd.cur[:0]
			for _, ei := range a.bwd.cur {
				if tg := &a.targets[a.bwd.ents[ei].t]; tg.best < 0 && !tg.dead {
					cur = append(cur, ei)
				}
			}
			if a.bwd.cur = cur; a.settled >= a.listed || len(cur) == 0 {
				break
			}
		}
		if len(a.fwd.cur) == 0 || a.fwd.depth+a.bwd.depth >= a.limits.MaxDepth {
			break
		}
		s := &a.fwd
		if a.active && len(a.bwd.cur) < len(a.fwd.cur) {
			s = &a.bwd
		}
		if err := a.expand(s); err != nil {
			return err
		}
	}
	return a.emitShortest()
}

// activate seeds the backward side with every live target not yet met:
// the states of its reversed closure from the accepting state, at depth 0.
func (a *autoEngine) activate() error {
	nodes, err := a.bud.targets.load(a.scanTargets)
	if err != nil {
		return err
	}
	a.active, a.listed = true, len(nodes)
	for _, t := range nodes {
		// Targets met before are settled; any match's last node is one of
		// the live targets, so every meeting counts from here on.
		slot := a.target(t)
		if a.targets[slot].best >= 0 {
			a.settled++
			continue
		}
		states, err := a.closure(a.bwd.nfa, int(t), a.bwd.nfa.Start)
		if err != nil {
			return err
		}
		for _, q := range states {
			if a.keeps(&a.bwd, q) {
				if err := a.admit(&a.bwd, int(t)*a.S+q, slot, 0, -1, -1); err != nil {
					return err
				}
			}
		}
	}
	a.bwd.cur, a.bwd.nxt = a.bwd.nxt, a.bwd.cur
	return nil
}

// scanTargets lists the live endpoint candidates: the last-node candidates
// forEachNode reads off TailLabels and TailEq (every match's last node is
// one) whose reversed closure
// from the accepting state passes the node guards and reaches a step or
// the start state; no match ends anywhere else. The set depends on the
// store, the plan and the parameters only, so the evaluation's budget
// shares one scan among all seed runs.
func (a *autoEngine) scanTargets() ([]int32, error) {
	rev := a.bwd.nfa
	if rev.Start < 0 {
		return nil, nil
	}
	var out []int32
	var err error
	forEachNode(a.st, a.pp.TailLabels, a.pp.TailEq, a.params, func(t int) bool {
		var states []int
		if err = a.tick(); err == nil {
			states, err = a.closure(rev, t, rev.Start)
		}
		for _, q := range states {
			if q == a.nfa.Start || len(rev.States[q].Steps) > 0 {
				out = append(out, int32(t))
				break
			}
		}
		return err == nil
	})
	return out, err
}

// target returns the slot of an endpoint node, adding it unmet.
func (a *autoEngine) target(node int32) int32 {
	slot := a.tslot.get(int(node))
	if slot < 0 {
		slot = int32(len(a.targets))
		a.targets = append(a.targets, autoTarget{best: -1})
		a.tslot.put(int(node), slot)
	}
	return slot
}

// tick counts one unit of search work (an incidence visited, a candidate
// scanned) and polls cancellation every cancelCheckInterval units.
func (a *autoEngine) tick() error {
	if a.ticks++; a.ticks%cancelCheckInterval == 0 {
		return a.bud.check()
	}
	return nil
}

// expand advances side s by one layer: every frontier state takes each of
// its automaton steps over every admitted incident edge, and the closure of
// each arrival is admitted one edge deeper. On the backward side, a target
// none of whose frontier states admitted anything is unreachable: its
// backward side is complete and never met the seed's origin states.
func (a *autoEngine) expand(s *autoSide) error {
	s.nxt = s.nxt[:0]
	var err error
	for _, ei := range s.cur {
		e := s.ents[ei]
		for _, stp := range s.nfa.States[e.pid%a.S].Steps {
			a.st.Steps(e.pid/a.S, func(edge, other int, k graph.StepKind) bool {
				var ok bool
				if err = a.tick(); err == nil {
					ok, err = a.edgeAdmits(stp.Edge, edge, k)
				}
				if err != nil || !ok {
					return err == nil
				}
				var states []int
				if states, err = a.closure(s.nfa, other, stp.To); err != nil {
					return false
				}
				for _, c := range states {
					if a.keeps(s, c) {
						if err = a.admit(s, other*a.S+c, e.t, e.depth+1, ei, int32(edge)); err != nil {
							return false
						}
					}
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	s.cur, s.nxt = s.nxt, s.cur
	s.depth++
	if s == &a.bwd {
		for _, ei := range s.nxt {
			if tg := &a.targets[s.ents[ei].t]; tg.best < 0 && !tg.dead && tg.lastAt < int32(s.depth) {
				tg.dead = true
				a.settled++
			}
		}
	}
	return nil
}

// admit records that side s reaches pid (for target slot t, backward) at
// depth by edge from entry from (-1: an origin), linking its shortest DAG,
// and the meetings a new state completes: only at forward step sources —
// the one state a match holds at a position it leaves by an edge (they
// have no epsilon moves) — and the accepting state, once per position.
func (a *autoEngine) admit(s *autoSide, pid int, t, depth, from, edge int32) error {
	head := s.index.get(pid)
	at := head
	for at >= 0 && s.ents[at].t != t {
		at = s.ents[at].next
	}
	if at < 0 {
		if err := a.bud.addThread(); err != nil {
			return err
		}
		at = int32(len(s.ents))
		s.ents = append(s.ents, autoEntry{pid: pid, t: t, depth: depth, links: -1, next: head})
		s.index.put(pid, at)
		q := pid % a.S
		if len(s.nfa.States[q].Steps) > 0 {
			s.nxt = append(s.nxt, at)
		}
		stepSource := len(a.nfa.States[q].Steps) > 0
		switch {
		case s == &a.bwd:
			a.targets[t].lastAt = depth
			if f := a.fwd.index.get(pid); f >= 0 && stepSource {
				a.meet(f, at, t, a.fwd.ents[f].depth+depth)
			}
		case a.nfa.States[q].Accept:
			a.meet(at, -1, a.target(int32(pid/a.S)), depth)
		case stepSource:
			for b := a.bwd.index.get(pid); b >= 0; b = a.bwd.ents[b].next {
				a.meet(at, b, a.bwd.ents[b].t, depth+a.bwd.ents[b].depth)
			}
		}
	}
	if e := &s.ents[at]; e.depth == depth && from >= 0 {
		a.links = append(a.links, autoLink{to: from, edge: edge, next: e.links})
		e.links = int32(len(a.links) - 1)
	}
	return nil
}

// meet records a meeting of n edges for target slot t unless a shorter
// one is known. Once a layer completes, a met target is settled: with both
// sides complete up to their depths, a shorter match would have met.
func (a *autoEngine) meet(f, b, t, n int32) {
	tg := &a.targets[t]
	if tg.best >= 0 && n > tg.best {
		return
	}
	if tg.best < 0 && a.active {
		a.settled++
	}
	tg.best = n
	a.meets = append(a.meets, autoMeeting{f, b, t, n})
}

// stepAllowed matches a step kind against the seven edge orientations; a
// directed self-loop is traversable along or against its direction.
func stepAllowed(o ast.Orientation, k graph.StepKind) bool {
	switch k {
	case graph.StepOut:
		return o.AllowsRight()
	case graph.StepIn:
		return o.AllowsLeft()
	case graph.StepLoop:
		return o.AllowsRight() || o.AllowsLeft()
	default:
		return o.AllowsUndirected()
	}
}

// edgeAdmits applies an edge pattern's orientation, label and memoryless
// WHERE to one step.
func (a *autoEngine) edgeAdmits(ep *ast.EdgePattern, ei int, k graph.StepKind) (bool, error) {
	if !stepAllowed(ep.Orientation, k) || ep.Label != nil && !ep.Label.Matches(a.st.EdgeByIndex(ei).Labels) {
		return false, nil
	}
	if ep.Where == nil {
		return true, nil
	}
	tri, err := EvalPred(ep.Where, elemResolver{a.st, ep.Var, binding.Ref{Kind: binding.EdgeElem, Idx: graph.ElemIdx(ei)}, a.params})
	return tri.IsTrue(), err
}

// closure returns the states of the given automaton epsilon-reachable from
// q0 with the graph positioned at the given node, evaluating node-pattern
// guards (label and memoryless WHERE) against it. The returned slice is
// scratch, valid until the next closure call.
func (a *autoEngine) closure(nfa *automaton.NFA, node, q0 int) ([]int, error) {
	a.cloEpoch++
	a.cloOut = a.cloOut[:0]
	stack := append(a.cloStack[:0], q0)
	a.cloVisit[q0] = a.cloEpoch
	n := a.st.NodeByIndex(node)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		a.cloOut = append(a.cloOut, q)
		for _, eps := range nfa.States[q].Eps {
			if a.cloVisit[eps.To] == a.cloEpoch {
				continue
			}
			if np := eps.Node; np != nil {
				if np.Label != nil && !np.Label.Matches(n.Labels) {
					continue
				}
				if np.Where != nil {
					tri, err := EvalPred(np.Where, elemResolver{a.st, np.Var, binding.Ref{Kind: binding.NodeElem, Idx: graph.ElemIdx(node)}, a.params})
					if err != nil {
						a.cloStack = stack
						return nil, err
					}
					if !tri.IsTrue() {
						continue
					}
				}
			}
			a.cloVisit[eps.To] = a.cloEpoch
			stack = append(stack, eps.To)
		}
	}
	a.cloStack = stack
	return a.cloOut, nil
}

// emitShortest replays every shortest match of the seed. For a target at
// shortest length n, split at i = min(forward depth, n): every shortest
// match holds exactly one meeting state at position i, the forward DAG is
// complete up to i and the target's backward DAG up to n - i, so the
// length-n meetings at forward depth i, joined with the DAG behind and the
// DAG ahead, enumerate exactly the shortest matches.
func (a *autoEngine) emitShortest() error {
	clear(a.seen)
	for _, m := range a.meets {
		n := a.targets[m.t].best
		if m.n != n || a.fwd.ents[m.f].depth != min(int32(a.fwd.depth), n) {
			continue
		}
		a.path = slices.Grow(a.path[:0], int(n))[:n]
		if err := a.walkFwd(m.f, m.b); err != nil {
			return err
		}
	}
	return nil
}

// walkFwd fills the path's steps before forward entry f with every forward
// DAG path from the seed, continuing each into the backward DAG from b.
func (a *autoEngine) walkFwd(f, b int32) error {
	e := &a.fwd.ents[f]
	if e.depth == 0 {
		return a.walkBwd(b)
	}
	for l := e.links; l >= 0; l = a.links[l].next {
		a.path[e.depth-1] = replayStep{edge: int(a.links[l].edge), node: e.pid / a.S}
		if err := a.walkFwd(a.links[l].to, b); err != nil {
			return err
		}
	}
	return nil
}

// walkBwd fills the path's steps after backward entry b (-1: none are
// left) with every backward DAG path to its target, replaying each
// distinct edge sequence once.
func (a *autoEngine) walkBwd(b int32) error {
	if b < 0 || a.bwd.ents[b].depth == 0 {
		buf := a.seenBuf[:0]
		for _, s := range a.path {
			buf = binary.AppendUvarint(buf, uint64(s.edge))
		}
		a.seenBuf = buf
		if _, dup := a.seen[string(buf)]; dup {
			return nil
		}
		a.seen[string(buf)] = struct{}{}
		return a.replayPath(a.path)
	}
	for l := a.bwd.ents[b].links; l >= 0; l = a.links[l].next {
		to := a.links[l].to
		a.path[len(a.path)-int(a.bwd.ents[b].depth)] = replayStep{edge: int(a.links[l].edge), node: a.bwd.ents[to].pid / a.S}
		if err := a.walkBwd(to); err != nil {
			return err
		}
	}
	return nil
}

// replayPath re-runs the program constrained to one reconstructed path on
// the shared DFS machine, recovering the path's bindings. The product
// search is an exact abstraction of the program for eligible patterns, so
// at least one run must match; none matching is an engine bug and is
// reported rather than silently dropping a result.
func (a *autoEngine) replayPath(steps []replayStep) error {
	if steps == nil {
		steps = []replayStep{} // a zero-length path still constrains the replay
	}
	a.emitted = 0
	a.rep.pathSteps = steps
	err := a.rep.run(a.seed)
	a.rep.pathSteps = nil
	if err != nil {
		return err
	}
	if a.emitted == 0 {
		return fmt.Errorf("eval: automaton engine reconstructed a path the program cannot match (engine bug)")
	}
	return nil
}

// pidTable maps non-negative integers (product-state ids, node indices) to
// non-negative int32 values (-1: absent) by open addressing with linear probing over a power-of-two
// slot array grown at half load: sized by the keys a search touches, not
// by the graph, and reset by clearing only the slots in use.
type pidTable struct {
	slots []pidSlot
	used  []int32
	shift uint
}

type pidSlot struct {
	key uint64 // key+1; 0 marks an empty slot
	val int32
}

func (t *pidTable) probe(k uint64) int {
	i := int((k * 0x9E3779B97F4A7C15) >> t.shift)
	for t.slots[i].key != k && t.slots[i].key != 0 {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

func (t *pidTable) get(key int) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	if s := t.slots[t.probe(uint64(key)+1)]; s.key != 0 {
		return s.val
	}
	return -1
}

func (t *pidTable) put(key int, v int32) {
	if 2*(len(t.used)+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]pidSlot, max(64, 2*len(old)))
		t.shift, t.used = uint(64-bits.TrailingZeros(uint(len(t.slots)))), t.used[:0]
		for _, s := range old {
			if s.key != 0 {
				t.put(int(s.key-1), s.val)
			}
		}
	}
	i := t.probe(uint64(key) + 1)
	if t.slots[i].key == 0 {
		t.slots[i].key = uint64(key) + 1
		t.used = append(t.used, int32(i))
	}
	t.slots[i].val = v
}

func (t *pidTable) reset() {
	for _, i := range t.used {
		t.slots[i].key = 0
	}
	t.used = t.used[:0]
}
