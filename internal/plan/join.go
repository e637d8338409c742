package plan

import (
	"fmt"
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
// a handful of seeded engine runs. This file provides the static half of
// that planner — which variables can seed a pattern, and a per-pattern
// cardinality estimate over store statistics — plus the greedy
// cost-ordered join-order search the evaluator and Explain consume.

// headConstraint walks the leading elements of e and returns the named
// singleton node variables provably bound to the first node of every
// match, plus whether the walk consumed an edge (after which later
// elements no longer bind the first position). It mirrors seedConstraint;
// variables declared under a quantifier are group variables and excluded
// (a bind join needs a singleton equi-join key).
func headConstraint(e ast.PathExpr) (map[string]struct{}, bool) {
	switch x := e.(type) {
	case *ast.Concat:
		acc := map[string]struct{}{}
		for _, el := range x.Elems {
			vars, moved := headConstraint(el)
			for v := range vars {
				acc[v] = struct{}{}
			}
			if moved {
				return acc, true
			}
		}
		return acc, false
	case *ast.NodePattern:
		if ast.IsAnonVar(x.Var) {
			return nil, false
		}
		return map[string]struct{}{x.Var: {}}, false
	case *ast.EdgePattern:
		return nil, true
	case *ast.Paren:
		return headConstraint(x.Expr)
	case *ast.Quantified:
		if x.Question || x.Min == 0 {
			// The body may be skipped: it proves nothing, and the position
			// may or may not have moved.
			return nil, true
		}
		// Mandatory iterations: anything declared inside is a group
		// variable, so only the moved-ness of the body matters.
		_, moved := headConstraint(x.Inner)
		return nil, moved
	case *ast.Union:
		if len(x.Branches) == 0 {
			return nil, true
		}
		acc, moved := headConstraint(x.Branches[0])
		for _, br := range x.Branches[1:] {
			vars, m := headConstraint(br)
			for v := range acc {
				if _, ok := vars[v]; !ok {
					delete(acc, v)
				}
			}
			moved = moved || m
		}
		return acc, moved
	default:
		return nil, true
	}
}

// headVars returns the sorted named singleton node variables bound to the
// first path node in every match of the pattern. Seeding the pattern's
// engine runs from any of these variables' bound values is exact: every
// solution's path starts at the node the variable is bound to.
func headVars(e ast.PathExpr) []string {
	set, _ := headConstraint(e)
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// singletonHeadVars filters the head variables of the walk by the
// analyzer's classification: a bind-join seed must be a singleton node
// variable (group variables have no single equi-join value).
func (a *analyzer) singletonHeadVars(e ast.PathExpr) []string {
	vars := headVars(e)
	out := vars[:0]
	for _, v := range vars {
		info := a.vars[v]
		if info != nil && !info.Group && info.Kind == VarNode {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// tailConstraint is the mirror of seedConstraint: the implied label set of
// the last node position, walking the pattern back to front.
func tailConstraint(e ast.PathExpr) (map[string]struct{}, bool) {
	switch x := e.(type) {
	case *ast.Concat:
		acc := map[string]struct{}{}
		for i := len(x.Elems) - 1; i >= 0; i-- {
			labels, moved := tailConstraint(x.Elems[i])
			for l := range labels {
				acc[l] = struct{}{}
			}
			if moved {
				return acc, true
			}
		}
		return acc, false
	case *ast.NodePattern:
		return impliedLabels(x.Label), false
	case *ast.EdgePattern:
		return nil, true
	case *ast.Paren:
		return tailConstraint(x.Expr)
	case *ast.Quantified:
		if x.Question || x.Min == 0 {
			return nil, true
		}
		return tailConstraint(x.Inner)
	case *ast.Union:
		if len(x.Branches) == 0 {
			return nil, true
		}
		acc, moved := tailConstraint(x.Branches[0])
		for _, br := range x.Branches[1:] {
			labels, m := tailConstraint(br)
			for l := range acc {
				if _, ok := labels[l]; !ok {
					delete(acc, l)
				}
			}
			moved = moved || m
		}
		return acc, moved
	default:
		return nil, true
	}
}

// tailLabels returns labels every match's last node provably carries
// (sorted; empty when none could be proven) — the endpoint selectivity
// input of the cost model.
func tailLabels(e ast.PathExpr) []string {
	set, _ := tailConstraint(e)
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
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

// EstimateCost ranks a pattern against store statistics: seed-label counts
// pick the start-set size, per-step fanout comes from the average degree
// scaled by implied edge-label selectivity, and implied tail labels supply
// endpoint selectivity. Zero-valued stats (no store at hand) degrade to a
// structure-only estimate over a nominal store.
func EstimateCost(pp *PathPlan, st graph.StoreStats) PatternCost {
	nodes := float64(st.Nodes)
	edges := float64(st.Edges)
	if nodes <= 0 {
		// Nominal store: lets Explain rank patterns structurally before a
		// graph is chosen.
		nodes, edges = 1000, 2000
	}
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
	if len(pp.minSteps) > 0 && len(pp.TailLabels) > 0 {
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
		rows *= best
	}
	return PatternCost{Seeds: seeds, PerSeed: perSeed, Rows: rows}
}

// JoinStep is one step of the cost-ordered join plan.
type JoinStep struct {
	// Pattern indexes Plan.Paths.
	Pattern int
	// SeedVar is the already-bound head variable whose row bindings seed
	// this pattern's engine runs; "" means full enumeration (the first
	// step, disconnected patterns, and patterns whose shared variables do
	// not include a head variable).
	SeedVar string
	// Connected reports whether the pattern shares at least one singleton
	// variable with the already-joined prefix (a disconnected pattern
	// falls back to a hash join over the cross product).
	Connected bool
	// Est is the pattern's standalone cardinality estimate; Cost is the
	// estimated enumeration work of this step under its seeding decision.
	Est  PatternCost
	Cost float64

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
		fmt.Fprintf(&b, " bind-join seed=%s est-per-seed=%.3g", s.SeedVar, s.Est.PerSeed)
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
// set — seeded through a bound head variable when one is shared, by its
// full estimate otherwise. Disconnected patterns are considered only when
// nothing connected remains. stats aligns with p.Paths (one store per
// pattern, EvalPlanOn-style); ties break on textual pattern order, so the
// plan is deterministic.
func OrderJoin(p *Plan, stats []graph.StoreStats) []JoinStep {
	n := len(p.Paths)
	costs := make([]PatternCost, n)
	for i, pp := range p.Paths {
		var st graph.StoreStats
		if i < len(stats) {
			st = stats[i]
		}
		costs[i] = EstimateCost(pp, st)
	}
	bound := map[string]bool{}
	used := make([]bool, n)
	steps := make([]JoinStep, 0, n)
	for len(steps) < n {
		best := -1
		var bestStep JoinStep
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			step := stepFor(p, i, costs[i], bound, used, len(steps) == 0)
			if best < 0 || betterStep(step, bestStep) {
				best, bestStep = i, step
			}
		}
		steps = append(steps, bestStep)
		used[best] = true
		pp := p.Paths[best]
		for _, v := range pp.Vars {
			bound[v] = true
		}
		if pv := pp.Pattern.PathVar; pv != "" {
			bound[pv] = true
		}
	}
	return steps
}

// stepFor builds the candidate join step for pattern i against the bound
// variable set.
func stepFor(p *Plan, i int, est PatternCost, bound map[string]bool, used []bool, first bool) JoinStep {
	pp := p.Paths[i]
	step := JoinStep{Pattern: i, Est: est, Cost: est.Rows, linked: linkedToRemaining(p, i, used)}
	if first {
		return step
	}
	for _, v := range pp.Vars {
		if p.JoinableVar(v) && bound[v] {
			step.Connected = true
			break
		}
	}
	if step.Connected {
		for _, hv := range pp.HeadVars {
			if bound[hv] {
				step.SeedVar = hv
				step.Cost = est.PerSeed
				break
			}
		}
	}
	return step
}

// linkedToRemaining reports whether pattern i shares a singleton variable
// with another still-unjoined pattern — i.e. joining it now lets the join
// graph keep growing connected instead of opening a cross product.
func linkedToRemaining(p *Plan, i int, used []bool) bool {
	for _, v := range p.Paths[i].Vars {
		if !p.JoinableVar(v) {
			continue
		}
		for other := range p.Var(v).Patterns {
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
