package eval

import (
	"encoding/binary"
	"fmt"
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
// breadth-first search over the product of the graph with the pattern
// automaton (see internal/automaton): product states are (node index ×
// automaton state) integers, visited once each, with predecessor links
// forming the shortest-match DAG. Shortest matches per endpoint are then
// reconstructed from the DAG and each distinct path is replayed through
// the original program to rebuild its bindings (variables, iteration
// annotations, multiset branch tags) byte-identically to the enumerating
// engines.
//
// Compared to the per-state BFS engine — which carries environments,
// entry lists and string admission keys in every thread — the product
// search touches O(|N|·|Q|) integers plus O(output) replay work, turning
// ALL SHORTEST on dense graphs from walk enumeration into plain graph
// search. The plan layer's eligibility analysis (plan.PathPlan.Automaton)
// guarantees the pattern is memoryless, which is what makes the (node ×
// state) abstraction exact.

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
		nfa, err := automaton.Compile(pp.Prog, pp.Mode == plan.ModeDFS)
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
// selected engine, the selector, the proven seed labels, when the
// automaton engine is not used the reason, and the pattern's streaming
// pipeline stages with their blocking/streamable classification
// (plan.PathPlan.Stages) — followed by the cost-ordered join plan for
// multi-pattern statements (ExplainJoin), each step annotated with its
// streaming behaviour. The store, when non-nil, supplies the cardinality
// statistics the join cost model ranks patterns with.
func ExplainStore(s graph.Store, p *plan.Plan) []string {
	if s != nil {
		s = graph.Pin(s)
	}
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
			b.WriteString(" seed-labels=")
			b.WriteString(strings.Join(pp.SeedLabels, ","))
		}
		if eng != EngineAutomaton && note != "" {
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
	g      graph.Store
	name   string
	ref    binding.Ref
	params Params
}

func (r elemResolver) Graph() graph.Store { return r.g }

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

// autoPred is one shortest-DAG predecessor link: the product state the
// step left and the dense index of the edge it consumed.
type autoPred struct {
	from int
	edge int
}

// replayStep is one concrete step of a reconstructed path: the dense
// indices of the edge taken and the node it arrives at.
type replayStep struct {
	edge int
	node int
}

// autoEngine runs the product search for one pattern; one instance serves
// any number of sequential seed runs (Enumerate's worker pool builds one
// per worker). Bindings are recovered by replaying each reconstructed
// path on a path-constrained DFS machine (see dfs.go), shared across
// paths so replay allocates next to nothing.
type autoEngine struct {
	st     graph.Stepper
	nfa    *automaton.NFA
	limits Limits
	params Params
	bud    *budget

	rep     *dfs // path-constrained replay machine
	emitted int  // bindings emitted by the current replay
	seed    int

	S int // automaton state count; product id = node*S + state
	// dist maps product id -> arrival depth + 1 (0 = unvisited): a dense
	// table when the product space fits denseDistLimit, a sparse map
	// otherwise (production-scale graphs near the state budget would
	// otherwise allocate gigabytes per engine instance).
	dist     []int32
	distMap  map[int]int32
	preds    map[int][]autoPred
	touched  []int
	cur, nxt []int

	cloVisit []int32 // per-automaton-state closure stamps
	cloEpoch int32
	cloOut   []int
	pathBuf  []replayStep
	fwdBuf   []replayStep
	seenBuf  []byte // scratch for the distinct-path dedup key
	ticks    int
}

// denseDistLimit bounds the dense dist table (16M product states, 64 MB);
// larger products use the sparse map, trading lookup speed for memory
// proportional to the states actually visited.
const denseDistLimit = 1 << 24

func newAutoEngine(st graph.Stepper, pp *plan.PathPlan, cfg Config, bud *budget, emit func(*binding.PathBinding) error) *autoEngine {
	nfa := automatonFor(pp)
	a := &autoEngine{
		st:       st,
		nfa:      nfa,
		limits:   cfg.Limits.withDefaults(),
		params:   cfg.Params,
		bud:      bud,
		S:        nfa.NumStates(),
		preds:    map[int][]autoPred{},
		cloVisit: make([]int32, nfa.NumStates()),
		fwdBuf:   make([]replayStep, 0, 16),
	}
	// Size the dense table by the index span, not the live count: product
	// ids are built from raw node indices, which run sparse on overlay
	// epochs and compacted bases.
	if product := st.NodeIndexSpan() * nfa.NumStates(); product <= denseDistLimit {
		a.dist = make([]int32, product)
	} else {
		a.distMap = map[int]int32{}
	}
	a.rep = newDFS(st, pp.Prog, pp.Pattern.PathVar, cfg.Limits, cfg.Params, bud, func(b *binding.PathBinding) error {
		a.emitted++
		return emit(b)
	})
	a.rep.bfsZeroWidth = pp.Mode == plan.ModeBFS
	return a
}

// distOf reads a product state's dist entry.
func (a *autoEngine) distOf(pid int) int32 {
	if a.dist != nil {
		return a.dist[pid]
	}
	return a.distMap[pid]
}

// setDist writes a product state's dist entry.
func (a *autoEngine) setDist(pid int, d int32) {
	if a.dist != nil {
		a.dist[pid] = d
		return
	}
	if d == 0 {
		delete(a.distMap, pid)
		return
	}
	a.distMap[pid] = d
}

// run evaluates the pattern anchored at one seed node index: product BFS,
// then reconstruction and replay of every minimal-depth match.
func (a *autoEngine) run(seed int) error {
	si := seed
	a.seed = seed
	start, err := a.closure(si, a.nfa.Start)
	if err != nil {
		return err
	}
	// Cheap seed rejection: the entry state itself is always in its own
	// closure, so emptiness never discriminates — a seed is dead when no
	// closure state can consume an edge or accept (its node guards failed).
	live := false
	for _, q := range start {
		if st := &a.nfa.States[q]; st.Accept || len(st.Steps) > 0 {
			live = true
			break
		}
	}
	if !live {
		return nil
	}
	// Reset the tables touched by the previous seed.
	for _, pid := range a.touched {
		a.setDist(pid, 0)
		delete(a.preds, pid)
	}
	a.touched = a.touched[:0]
	a.cur = a.cur[:0]
	for _, q := range start {
		pid := si*a.S + q
		a.setDist(pid, 1)
		a.touched = append(a.touched, pid)
		if err := a.bud.addThread(); err != nil {
			return err
		}
		a.cur = append(a.cur, pid)
	}
	for depth := 0; len(a.cur) > 0 && depth < a.limits.MaxDepth; depth++ {
		a.nxt = a.nxt[:0]
		for _, pid := range a.cur {
			n, q := pid/a.S, pid%a.S
			for _, stp := range a.nfa.States[q].Steps {
				if err := a.expand(pid, n, stp, depth); err != nil {
					return err
				}
			}
		}
		a.cur, a.nxt = a.nxt, a.cur
	}
	return a.emitShortest()
}

// expand relaxes one edge-consuming transition from a product state at
// the given depth, epsilon-closing each arrival and recording shortest-DAG
// predecessor links.
func (a *autoEngine) expand(pid, n int, stp automaton.Step, depth int) error {
	if a.ticks++; a.ticks%cancelCheckInterval == 0 {
		if err := a.bud.checkCancel(); err != nil {
			return err
		}
	}
	ep := stp.Edge
	var firstErr error
	a.st.Steps(n, func(ei, oi int, k graph.StepKind) bool {
		if !stepAllowed(ep.Orientation, k) {
			return true
		}
		e := a.st.EdgeByIndex(ei)
		if ep.Label != nil && !ep.Label.Matches(e.Labels) {
			return true
		}
		if ep.Where != nil {
			tri, err := EvalPred(ep.Where, elemResolver{a.st, ep.Var, binding.Ref{Kind: binding.EdgeElem, Idx: graph.ElemIdx(ei)}, a.params})
			if err != nil {
				firstErr = err
				return false
			}
			if !tri.IsTrue() {
				return true
			}
		}
		states, err := a.closure(oi, stp.To)
		if err != nil {
			firstErr = err
			return false
		}
		for _, cs := range states {
			cpid := oi*a.S + cs
			switch d := a.distOf(cpid); {
			case d == 0:
				a.setDist(cpid, int32(depth+2))
				a.touched = append(a.touched, cpid)
				if err := a.bud.addThread(); err != nil {
					firstErr = err
					return false
				}
				a.preds[cpid] = append(a.preds[cpid], autoPred{pid, ei})
				a.nxt = append(a.nxt, cpid)
			case d == int32(depth+2):
				a.preds[cpid] = append(a.preds[cpid], autoPred{pid, ei})
			}
		}
		return true
	})
	return firstErr
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

// closure returns the automaton states epsilon-reachable from q0 with the
// graph positioned at the given node, evaluating node-pattern guards
// (label and memoryless WHERE) against it. The returned slice is scratch,
// valid until the next closure call.
func (a *autoEngine) closure(node, q0 int) ([]int, error) {
	a.cloEpoch++
	a.cloOut = a.cloOut[:0]
	n := a.st.NodeByIndex(node)
	var walk func(q int) error
	walk = func(q int) error {
		if a.cloVisit[q] == a.cloEpoch {
			return nil
		}
		a.cloVisit[q] = a.cloEpoch
		a.cloOut = append(a.cloOut, q)
		for _, eps := range a.nfa.States[q].Eps {
			if np := eps.Node; np != nil {
				if np.Label != nil && !np.Label.Matches(n.Labels) {
					continue
				}
				if np.Where != nil {
					tri, err := EvalPred(np.Where, elemResolver{a.st, np.Var, binding.Ref{Kind: binding.NodeElem, Idx: graph.ElemIdx(node)}, a.params})
					if err != nil {
						return err
					}
					if !tri.IsTrue() {
						continue
					}
				}
			}
			if err := walk(eps.To); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(q0); err != nil {
		return nil, err
	}
	return a.cloOut, nil
}

// emitShortest reconstructs, per endpoint node, every minimal-depth match
// from the predecessor DAG and replays the program over each distinct
// path. Every shortest match's prefixes arrive at their product states'
// minimal depths (the standard shortest-path-DAG property, which the
// memoryless abstraction preserves), so the DAG enumerates exactly the
// minimal-length matches.
func (a *autoEngine) emitShortest() error {
	minAt := map[int]int32{} // endpoint node -> minimal accept depth
	for _, pid := range a.touched {
		if !a.nfa.States[pid%a.S].Accept {
			continue
		}
		n := pid / a.S
		if m, ok := minAt[n]; !ok || a.distOf(pid) < m {
			minAt[n] = a.distOf(pid)
		}
	}
	if len(minAt) == 0 {
		return nil
	}
	seen := map[string]bool{} // distinct paths, keyed by packed edge indices
	for _, pid := range a.touched {
		if !a.nfa.States[pid%a.S].Accept || a.distOf(pid) != minAt[pid/a.S] {
			continue
		}
		a.pathBuf = a.pathBuf[:0]
		if err := a.walkBack(pid, seen); err != nil {
			return err
		}
	}
	return nil
}

// walkBack enumerates the DAG paths from a product state back to the
// seed, accumulating steps in reverse; at depth 0 the path is deduplicated
// and replayed.
func (a *autoEngine) walkBack(pid int, seen map[string]bool) error {
	if a.distOf(pid) == 1 {
		buf := a.seenBuf[:0]
		for i := len(a.pathBuf) - 1; i >= 0; i-- {
			buf = binary.AppendUvarint(buf, uint64(a.pathBuf[i].edge))
		}
		a.seenBuf = buf
		if seen[string(buf)] {
			return nil
		}
		seen[string(buf)] = true
		a.fwdBuf = a.fwdBuf[:0]
		for i := len(a.pathBuf) - 1; i >= 0; i-- {
			a.fwdBuf = append(a.fwdBuf, a.pathBuf[i])
		}
		return a.replayPath(a.fwdBuf)
	}
	node := pid / a.S
	for _, p := range a.preds[pid] {
		a.pathBuf = append(a.pathBuf, replayStep{edge: p.edge, node: node})
		if err := a.walkBack(p.from, seen); err != nil {
			return err
		}
		a.pathBuf = a.pathBuf[:len(a.pathBuf)-1]
	}
	return nil
}

// replayPath re-runs the program constrained to one reconstructed path on
// the shared DFS machine, recovering the path's bindings. The product
// search is an exact abstraction of the program for eligible patterns, so
// at least one run must match; none matching is an engine bug and is
// reported rather than silently dropping a result.
func (a *autoEngine) replayPath(steps []replayStep) error {
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
