package eval

import (
	"fmt"
	"sort"

	"gpml/internal/ast"
	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Bind-join evaluation of multi-pattern statements (§6.5 "Multiple
// patterns"). Instead of enumerating every path pattern in full and hash
// joining afterwards, the patterns are solved in the cost order picked by
// plan.OrderJoin, and each already-joined row's shared endpoint bindings
// become the seed set of the next pattern's engine run: a pattern whose
// head variable is already bound only ever explores matches starting at
// the handful of nodes the join has produced so far. A pattern whose tail
// variable is bound instead runs its mirror (plan.PathPlan.Mirrored) from
// the tail, and each solution is flipped back (binding.Reduced.Reverse)
// before it is joined; the planner only offers tail seeds where the flip
// is exact (plan.mirrorable), so the rows are the same. The pipeline is
// fully streaming — rows flow through a chain of join-step cursors (see
// stream.go), and each step solves a seed node the first time an input
// row demands it, memoizing per seed — or per (seed, target) pair when the
// planner found both ends bound (plan.JoinStep.Target): the target is part
// of the join key too, so keeping only the solutions that end at it is as
// exact as seeding.
//
// Seeding is exact, not approximate, for two structural reasons:
//
//   - a pattern's solution set decomposes by seed: every solution's path
//     starts at its seed node, so reduction keys never collide across
//     seeds (the path is part of the key) and ApplySelector partitions by
//     path endpoints, which never span seeds. Running the per-pattern
//     pipeline seed-by-seed therefore yields exactly the full solution
//     set restricted to those seeds — and solutions at unseeded nodes
//     cannot survive the equi-join anyway, because the seed variable is
//     part of the hash key.
//
//   - enumerate-everything-then-hash-join (the reference joindiff_test.go
//     keeps as its oracle) emits rows in nested-loop order over the
//     patterns in textual order, with each pattern's solutions sorted by
//     (path length, canonical key) — i.e. rows come out lexicographically
//     ordered by the per-pattern sort keys. sortRowsCanonical restores
//     exactly that order, so Eval's collected Result is byte-identical
//     whatever order the cost model joined in.

// seedSolver runs the full single-pattern pipeline (§6 stage order:
// enumerate, reduce, deduplicate, select) one seed node at a time; the
// engine machinery (and for the automaton engine, the compiled product
// searcher) is built once and reused across seeds. Search limits are
// shared across all seed runs through the caller's budget, mirroring
// Enumerate. Only a pattern that can produce duplicates
// (plan.PathPlan.DupReason) is deduplicated: for any other, distinct raw
// matches reduce to distinct bindings, so a seen-set would drop nothing.
type seedSolver struct {
	pp  *plan.PathPlan
	run func(int) error
	// arena holds the current seed's matches, reduced as emitted, and buf
	// lists them; both are reused from seed to seed, so a seed's
	// solutions are valid until the next solve.
	arena binding.Arena
	buf   []*binding.Reduced
	// seen is the reusable per-seed dedup set (cleared between seeds —
	// exact, since dedup keys never collide across seeds), nil for a
	// duplicate-free pattern. Reusing it keeps the per-seed constant cost
	// near zero on many-seed workloads. Keys are the Keyer's compact
	// binary form (its variable codes only grow, so one Keyer is
	// consistent across all of the solver's seeds).
	seen  map[string]struct{}
	keyer *binding.Keyer
}

func newSeedSolver(st graph.Stepper, pp *plan.PathPlan, cfg Config, bud *budget) *seedSolver {
	ss := &seedSolver{pp: pp}
	if pp.DupReason != "" {
		ss.seen, ss.keyer = map[string]struct{}{}, binding.NewKeyer()
	}
	engine, _ := engineFor(pp)
	ss.run = seedRunner(st, pp, engine, cfg, bud, func(b *binding.PathBinding) error {
		ss.buf = append(ss.buf, b.ReduceInto(&ss.arena))
		return nil
	})
	return ss
}

// solve returns the pattern's selected solutions anchored at one seed
// node index. They are borrowed: the slice and the bindings are the
// solver's, valid until the next solve, and a caller that keeps them
// copies them (the slice it may reorder or filter in place). Per-seed
// reduction, deduplication and selection agree exactly with the full
// pipeline restricted to this seed (see the package comment above).
// Selector-free patterns skip the per-seed sort: their solution multiset
// is order-independent downstream (Eval's canonical row sort is total
// because deduplicated keys are unique, and joins probe by key), so the
// engines' deterministic emission order stands.
func (ss *seedSolver) solve(seed int) ([]*binding.Reduced, error) {
	ss.buf = ss.buf[:0]
	ss.arena.Reset()
	if err := ss.run(seed); err != nil {
		return nil, err
	}
	if len(ss.buf) == 0 {
		return nil, nil
	}
	if ss.seen != nil {
		ss.dedup()
	}
	sel := ss.pp.Pattern.Selector
	if sel.Kind == ast.NoSelector {
		return ss.buf, nil
	}
	// ApplySelector keeps its choice in a new slice.
	sols := ApplySelector(sel, ss.buf)
	binding.SortStable(sols)
	return sols, nil
}

// dedup keeps the first occurrence of each binding in the seed's buffer,
// in order, filtering it in place.
func (ss *seedSolver) dedup() {
	clear(ss.seen)
	out := ss.buf[:0]
	for _, r := range ss.buf {
		key := ss.keyer.Key(r)
		if _, dup := ss.seen[string(key)]; dup {
			continue
		}
		ss.seen[string(key)] = struct{}{}
		out = append(out, r)
	}
	ss.buf = out
}

// sortRowsCanonical puts rows in the canonical order: rows
// compare lexicographically by their per-pattern reduced bindings in
// textual pattern order, each binding by (path length, canonical key) —
// the order MatchPattern emits solutions in. After a complete join every
// row has all bindings set; nil entries (rows of an aborted join) keep
// their relative order.
func sortRowsCanonical(rows []*Row, npaths int) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < npaths; k++ {
			ra, rb := a.Bindings[k], b.Bindings[k]
			if ra == nil || rb == nil || ra == rb {
				continue
			}
			if ra.Path.Len() != rb.Path.Len() {
				return ra.Path.Len() < rb.Path.Len()
			}
			if ka, kb := ra.CanonKey(), rb.CanonKey(); ka != kb {
				return ka < kb
			}
		}
		return false
	})
}

// joinStats repeats one store's statistics for each of n patterns, the
// per-pattern form plan.OrderJoin takes.
func joinStats(st graph.StoreStats, n int) []graph.StoreStats {
	out := make([]graph.StoreStats, n)
	for i := range out {
		out[i] = st
	}
	return out
}

// ExplainJoin renders the cost-ordered join plan, one line per step, for
// multi-pattern statements (empty otherwise), annotating each step with
// its streaming behaviour: seeded bind joins and the leading scan stream
// rows through, hash-join fallbacks materialize the pattern they join
// against. Statistics come from the store's pinned indexed view, the one
// evaluation plans with; with a nil store the ranking is structure-only.
func ExplainJoin(s graph.Store, p *plan.Plan) []string {
	if len(p.Paths) < 2 {
		return nil
	}
	var st graph.StoreStats
	out := make([]string, 0, len(p.Paths)+1)
	if s != nil {
		st = graph.AsStepper(s).LabelStats()
		out = append(out, fmt.Sprintf("join stats: nodes=%d edges=%d avg-degree=%.3g",
			st.Nodes, st.Edges, st.AvgDegree()))
	}
	for k, step := range plan.OrderJoin(p, joinStats(st, len(p.Paths))) {
		note := "[streaming]"
		if k > 0 && step.SeedVar == "" {
			note = "[blocking: materializes pattern on first input row]"
		}
		out = append(out, fmt.Sprintf("join step %d: %s %s", k, step, note))
	}
	return out
}
