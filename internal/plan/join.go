package plan

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"gpml/internal/ast"
	"gpml/internal/graph"
)

// Join planning: the §6.5 "Multiple patterns" semantics joins per-pattern
// solution sets on shared singleton variables. The order in which the
// patterns are solved does not change the (set of) joined rows, but it
// changes the work dramatically: solving a selective pattern first and
// feeding its endpoint bindings into the next pattern's enumeration (a
// bind join) replaces a full scan of the later pattern's solution space by
// a handful of seeded engine runs. A pattern's match set is the same
// whether it is walked from its first node or its last, so a step may seed
// from either end that is already bound. This file provides the static
// half of that planner — which variables can seed a pattern, and a
// per-pattern cardinality estimate over store statistics — plus the greedy
// cost-ordered join-order search the evaluator and Explain consume.

// singletonEndVars returns the named singleton node variables provably
// bound to the first (tail: last) path node of every match, sorted.
// Seeding the pattern's engine runs from any of these variables' bound
// values is exact: every solution's path starts (ends) at the node the
// variable is bound to. Group variables have no single equi-join value, so
// they are filtered out.
func (a *analyzer) singletonEndVars(e ast.PathExpr, tail bool) []string {
	var out []string
	for _, v := range endFacts(e, tail, nodeVar) {
		if info := a.vars[v]; info != nil && !info.Group && info.Kind == VarNode {
			out = append(out, v)
		}
	}
	return out
}

// eqSelectivity is the fraction of an end position's candidates its
// equality conjuncts keep: 1/NDV of the most selective (label, property)
// pair, or 1 when the store counts none of them.
func eqSelectivity(labels []string, eqs []EqConjunct, st graph.StoreStats) float64 {
	sel := 1.0
	for _, eq := range eqs {
		for _, l := range labels {
			if n := st.PropNDV(l, eq.Prop); n > 0 && 1/float64(n) < sel {
				sel = 1 / float64(n)
			}
		}
	}
	return sel
}

// edgeStep describes one edge traversal of a pattern's cheapest expansion,
// for fanout estimation.
type edgeStep struct {
	labels []string // labels every matched edge provably carries (sorted)
	wide   bool     // orientation admits both directions / undirected edges
}

// maxShapeSteps caps quantifier unrolling in the shape walk; the fanout
// product saturates long before that on any realistic store.
const maxShapeSteps = 16

// minEdgeSteps returns the edge traversals of the pattern's cheapest
// expansion: quantifiers contribute their minimum iteration count, unions
// their shortest branch. It is a lower bound on the edges any match
// consumes, which makes the derived fanout estimate optimistic but
// consistently so across patterns.
func minEdgeSteps(e ast.PathExpr) []edgeStep {
	switch x := e.(type) {
	case *ast.Concat:
		var out []edgeStep
		for _, el := range x.Elems {
			out = append(out, minEdgeSteps(el)...)
			if len(out) >= maxShapeSteps {
				return out[:maxShapeSteps]
			}
		}
		return out
	case *ast.NodePattern:
		return nil
	case *ast.EdgePattern:
		set := impliedLabels(x.Label)
		labels := make([]string, 0, len(set))
		for l := range set {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		o := x.Orientation
		wide := o.AllowsUndirected() || (o.AllowsLeft() && o.AllowsRight())
		return []edgeStep{{labels: labels, wide: wide}}
	case *ast.Paren:
		return minEdgeSteps(x.Expr)
	case *ast.Quantified:
		if x.Question || x.Min == 0 {
			return nil
		}
		inner := minEdgeSteps(x.Inner)
		if len(inner) == 0 {
			return nil
		}
		var out []edgeStep
		for i := 0; i < x.Min && len(out) < maxShapeSteps; i++ {
			out = append(out, inner...)
		}
		if len(out) > maxShapeSteps {
			out = out[:maxShapeSteps]
		}
		return out
	case *ast.Union:
		if len(x.Branches) == 0 {
			return nil
		}
		best := minEdgeSteps(x.Branches[0])
		for _, br := range x.Branches[1:] {
			if steps := minEdgeSteps(br); len(steps) < len(best) {
				best = steps
			}
		}
		return best
	default:
		return nil
	}
}

// maxEdges returns the most edges any match of e can consume, or -1 when
// that is unbounded: an edge counts one, a concatenation sums, a union
// takes its longest branch, a bounded quantifier multiplies its inner
// bound by its maximum (? by one), and an unbounded quantifier over a
// body with an edge, or a product past the int range, gives -1.
func maxEdges(e ast.PathExpr) int {
	switch x := e.(type) {
	case *ast.Concat:
		sum := 0
		for _, el := range x.Elems {
			n := maxEdges(el)
			if n < 0 || sum > math.MaxInt-n {
				return -1
			}
			sum += n
		}
		return sum
	case *ast.EdgePattern:
		return 1
	case *ast.Paren:
		return maxEdges(x.Expr)
	case *ast.Quantified:
		inner := maxEdges(x.Inner)
		switch {
		case x.Question || inner == 0:
			return inner
		case inner < 0 || x.Unbounded() || x.Max > math.MaxInt/inner:
			return -1
		}
		return inner * x.Max
	case *ast.Union:
		most := 0
		for _, br := range x.Branches {
			n := maxEdges(br)
			if n < 0 {
				return -1
			}
			most = max(most, n)
		}
		return most
	default: // a node pattern
		return 0
	}
}

// PatternCost is the cardinality estimate of one path pattern under store
// statistics: Seeds candidate start nodes, PerSeed estimated matches
// enumerated per start, Rows the estimated solution count after endpoint
// selectivity. All estimates are heuristic — they only need to rank
// patterns, not predict counts.
type PatternCost struct {
	Seeds   float64
	PerSeed float64
	Rows    float64
}

// storeSize returns the store's node and edge counts, or a nominal
// 1000/2000 when no store is at hand, so Explain can rank patterns
// structurally before a graph is chosen.
func storeSize(st graph.StoreStats) (nodes, edges float64) {
	if st.Nodes <= 0 {
		return 1000, 2000
	}
	return float64(st.Nodes), float64(st.Edges)
}

// EstimateCost ranks a pattern against store statistics: seed-label counts
// pick the start-set size, per-step fanout comes from the average degree
// scaled by implied edge-label selectivity, and implied tail labels supply
// endpoint selectivity. An equality predicate on an end node keeps
// 1/NDV(label, property) of its candidates. Zero-valued stats (no store at
// hand) degrade to a structure-only estimate over a nominal store.
func EstimateCost(pp *PathPlan, st graph.StoreStats) PatternCost {
	nodes, edges := storeSize(st)
	seeds := nodes
	for _, l := range pp.SeedLabels {
		c := float64(st.NodeLabelCount(l))
		if st.Nodes == 0 {
			c = nodes / 10 // nominal label selectivity
		}
		if c < seeds {
			seeds = c
		}
	}
	seeds *= eqSelectivity(pp.SeedLabels, pp.HeadEq, st)
	perSeed := 1.0
	for _, step := range pp.minSteps {
		// One-directional steps see each edge from one endpoint (E/N);
		// wide steps (undirected or both-ways) see the full average
		// degree (2E/N, StoreStats.AvgDegree).
		fan := edges / nodes
		if step.wide {
			fan *= 2
		}
		if len(step.labels) > 0 && edges > 0 {
			sel := 1.0
			for _, l := range step.labels {
				c := float64(st.EdgeLabelCount(l))
				if st.Edges == 0 {
					c = edges / 4 // nominal label selectivity
				}
				if s := c / edges; s < sel {
					sel = s
				}
			}
			fan *= sel
		}
		if fan < 1e-9 {
			fan = 1e-9
		}
		perSeed *= fan
	}
	rows := seeds * perSeed
	if len(pp.minSteps) > 0 {
		// Endpoint selectivity: the labels are conjunctive, so the most
		// selective (smallest) one bounds the candidate end nodes.
		best := 1.0
		for _, l := range pp.TailLabels {
			c := float64(st.NodeLabelCount(l))
			if st.Nodes == 0 {
				c = nodes / 10
			}
			if sel := c / nodes; sel < best {
				best = sel
			}
		}
		rows *= best * eqSelectivity(pp.TailLabels, pp.TailEq, st)
	}
	return PatternCost{Seeds: seeds, PerSeed: perSeed, Rows: rows}
}

// SeedEnd names the end of a pattern a bind-join step seeds from.
type SeedEnd uint8

// Seed ends.
const (
	// SeedHead runs the pattern from its first node.
	SeedHead SeedEnd = iota
	// SeedTail runs PathPlan.Mirrored from the pattern's last node.
	SeedTail
)

// String names the end for Explain output.
func (e SeedEnd) String() string {
	if e == SeedTail {
		return "tail"
	}
	return "head"
}

// JoinStep is one step of the cost-ordered join plan.
type JoinStep struct {
	// Pattern indexes Plan.Paths.
	Pattern int
	// SeedVar is the already-bound end variable whose row bindings seed
	// this pattern's engine runs, from the End it is bound to; "" means
	// full enumeration (the first step, disconnected patterns, and
	// patterns whose shared variables include no seedable end variable).
	SeedVar string
	End     SeedEnd
	// Target is a bound variable of the pattern's other end when the step
	// solves each (seed, target) pair of its input rows on its own, with
	// the target node as the only admissible last node; "" when the step
	// solves per seed.
	Target string
	// Connected reports whether the pattern shares at least one singleton
	// variable with the already-joined prefix (a disconnected pattern
	// falls back to a hash join over the cross product).
	Connected bool
	// Est is the pattern's standalone cardinality estimate. Distinct is
	// the estimated number of distinct SeedVar values in the joined
	// prefix. Cost is the estimated enumeration work of this step under
	// its seeding decision: the estimated pair count for a pair-seeded
	// step, Distinct × Est.PerSeed for a seeded one, Est.Rows otherwise.
	Est      PatternCost
	Distinct float64
	Cost     float64

	// linked reports whether the pattern shares a singleton variable with
	// any still-unjoined pattern; truly isolated patterns are deferred so
	// their cross product multiplies intermediate rows as late as
	// possible.
	linked bool
}

// String renders the step for Explain output.
func (s JoinStep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern %d", s.Pattern)
	switch {
	case s.SeedVar != "":
		fmt.Fprintf(&b, " bind-join seed=%s end=%s", s.SeedVar, s.End)
		if s.Target != "" {
			fmt.Fprintf(&b, " target=%s", s.Target)
		}
		fmt.Fprintf(&b, " est-distinct=%.3g est-per-seed=%.3g", s.Distinct, s.Est.PerSeed)
	case s.Connected:
		fmt.Fprintf(&b, " hash-join est-rows=%.3g", s.Est.Rows)
	default:
		fmt.Fprintf(&b, " scan est-rows=%.3g", s.Est.Rows)
	}
	return b.String()
}

// OrderJoin runs the greedy cost-ordered join-order search: start from the
// pattern with the smallest estimated solution count, then repeatedly pick
// the cheapest remaining pattern connected to the already-bound variable
// set — seeded through whichever bound end variable has the fewest
// estimated distinct values in the joined prefix, by its full estimate
// when no end is bound. Disconnected patterns are considered only when
// nothing connected remains. A seeded step whose pattern also binds a
// bound variable at its other end may solve per (seed, target) pair
// instead (offerTargets). stats aligns with p.Paths (every pattern of a
// query reads one pinned view, so callers repeat its statistics); ties
// break on textual pattern order, and a head seed wins a tie with a tail
// seed, so the plan is deterministic.
func OrderJoin(p *Plan, stats []graph.StoreStats) []JoinStep {
	n := len(p.Paths)
	costs := make([]PatternCost, n)
	nodes := make([]float64, n)
	for i, pp := range p.Paths {
		var st graph.StoreStats
		if i < len(stats) {
			st = stats[i]
		}
		costs[i] = EstimateCost(pp, st)
		nodes[i], _ = storeSize(st)
	}
	j := joinEstimate{rows: 1, distinct: map[string]float64{}}
	used := make([]bool, n)
	steps := make([]JoinStep, 0, n)
	for len(steps) < n {
		best := -1
		var bestStep JoinStep
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			step := j.stepFor(p, i, costs[i], used, len(steps) == 0)
			if best < 0 || betterStep(step, bestStep) {
				best, bestStep = i, step
			}
		}
		steps = append(steps, bestStep)
		used[best] = true
		j.bind(p.Paths[best], bestStep, nodes[best])
	}
	return steps
}

// joinEstimate is the join-order search's running estimate of the joined
// prefix: its row count and, per bound variable, its distinct values.
type joinEstimate struct {
	rows     float64
	distinct map[string]float64
}

// stepFor builds the candidate join step for pattern i against the bound
// variable set.
func (j *joinEstimate) stepFor(p *Plan, i int, est PatternCost, used []bool, first bool) JoinStep {
	pp := p.Paths[i]
	step := JoinStep{Pattern: i, Est: est, Cost: est.Rows, linked: linkedToRemaining(p, i, used)}
	if first {
		return step
	}
	for _, v := range pp.Vars {
		if _, bound := j.distinct[v]; bound && p.JoinableVar(v) {
			step.Connected = true
			break
		}
	}
	if !step.Connected {
		return step
	}
	j.offerSeeds(&step, pp.HeadVars, SeedHead)
	j.offerSeeds(&step, pp.TailVars, SeedTail)
	if step.SeedVar != "" {
		step.Cost = step.Distinct * est.PerSeed
		j.offerTargets(&step, pp)
	}
	return step
}

// offerTargets lets a bound variable of the seeded step's other end turn
// it into a pair-seeded step, where the DFS engine prunes every walk that
// cannot end at the pair's target — which needs a selector-free pattern
// of bounded length. A pair solve is priced as one unit of work, since
// its answer is the matches between two fixed nodes, so the step costs
// its estimated distinct pairs, min(rows, distinct seeds × distinct
// targets). The pair wins when that is no more than the seed-only
// Distinct × PerSeed: on a tie it materializes only matches that join.
func (j *joinEstimate) offerTargets(step *JoinStep, pp *PathPlan) {
	if pp.MaxEdges < 1 || pp.Pattern.Selector.Kind != ast.NoSelector {
		return
	}
	others := pp.TailVars
	if step.End == SeedTail {
		others = pp.HeadVars
	}
	for _, v := range others {
		d, bound := j.distinct[v]
		if !bound {
			continue
		}
		pairs := step.Distinct
		if v != step.SeedVar {
			pairs = max(1, min(j.rows, step.Distinct*d))
		}
		if pairs < step.Cost || step.Target == "" && pairs == step.Cost {
			step.Target, step.Cost = v, pairs
		}
	}
}

// offerSeeds lets the bound variables of one pattern end seed the step,
// keeping the one with the fewest estimated distinct values (the earlier
// offer on ties).
func (j *joinEstimate) offerSeeds(step *JoinStep, vars []string, end SeedEnd) {
	for _, v := range vars {
		if d, bound := j.distinct[v]; bound && (step.SeedVar == "" || d < step.Distinct) {
			step.SeedVar, step.End, step.Distinct = v, end, d
		}
	}
}

// bind records a chosen step. A connected step multiplies the prefix rows
// by its per-seed matches, a scan by its whole estimate; each newly bound
// variable then has min(rows, domain) distinct values, at least one, where
// a scanned pattern's head variables range over its seeds and every other
// variable over the store's nodes.
func (j *joinEstimate) bind(pp *PathPlan, step JoinStep, nodes float64) {
	if step.Connected {
		j.rows *= step.Est.PerSeed
	} else {
		j.rows *= step.Est.Rows
	}
	for _, v := range pp.Vars {
		if _, bound := j.distinct[v]; bound {
			continue
		}
		domain := nodes
		if !step.Connected && slices.Contains(pp.HeadVars, v) {
			domain = step.Est.Seeds
		}
		j.distinct[v] = max(1, min(j.rows, domain))
	}
}

// linkedToRemaining reports whether pattern i shares a singleton variable
// with another still-unjoined pattern — i.e. joining it now lets the join
// graph keep growing connected instead of opening a cross product.
func linkedToRemaining(p *Plan, i int, used []bool) bool {
	for _, v := range p.Paths[i].Vars {
		if !p.JoinableVar(v) {
			continue
		}
		for _, other := range p.Var(v).Patterns {
			if other != i && !used[other] {
				return true
			}
		}
	}
	return false
}

// betterStep orders candidate steps: connected to the joined prefix beats
// everything; next, patterns that link to still-unjoined patterns beat
// isolated ones (deferring cross products keeps intermediate row counts
// down); then lower estimated cost; equal cost keeps the earlier
// (textual-order) pattern.
func betterStep(a, b JoinStep) bool {
	if a.Connected != b.Connected {
		return a.Connected
	}
	if a.linked != b.linked {
		return a.linked
	}
	return a.Cost < b.Cost
}
