package eval

import (
	"sync/atomic"

	"gpml/internal/ast"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Target rings let the DFS engine cut a walk as soon as it cannot end at
// an admissible last node within the edges it has left. A selector-free
// pattern has a static maximum length (plan.PathPlan.MaxEdges). ring0 holds
// the nodes a match may end at; ring1 adds every neighbour of a ring0 node
// over any edge, labels and orientation ignored, so it over-approximates
// the nodes one edge away from an end. A step that leaves r edges goes to
// a node outside ring r (r = 0 or 1) only on walks with no accepting
// completion, so pruning it changes neither the matches nor their order.
//
// Rings come from one of two places. For a pattern whose last node has an
// equality conjunct, ring0 is that end's index bucket, read once per
// evaluation (tailRings) and shared by every seed run. A
// pair-seeded join step refills one rings value per (seed, target) pair
// with ring0 = {target} (setPair). Rings belong to an evaluation, never to
// the shared plan.

// bitset is a set of node indices below a store's index span.
type bitset []uint64

func newBitset(span int) bitset { return make(bitset, (span+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// rings is one target set for the DFS prune. ring1 is nil when the
// pattern has at most one edge: no step then leaves exactly one.
type rings struct {
	ring0, ring1 bitset
	// target is a pair-seeded step's current target node, -1 before its
	// first pair.
	target int
}

// newRings allocates empty rings over a store's node index span.
func newRings(span, maxEdges int) *rings {
	r := &rings{ring0: newBitset(span), target: -1}
	if maxEdges >= 2 {
		r.ring1 = newBitset(span)
	}
	return r
}

// mark applies op (bitset.set or bitset.unset) to end node i in ring0,
// and to i and every neighbour of i in ring1.
func (r *rings) mark(st graph.Stepper, i int, op func(bitset, int)) {
	op(r.ring0, i)
	if r.ring1 != nil {
		op(r.ring1, i)
		st.Steps(i, func(_, o int, _ graph.StepKind) bool {
			op(r.ring1, o)
			return true
		})
	}
}

// ringBuilds counts the index-backed rings built and ringPrunes the DFS
// steps they cut, for tests.
var (
	ringBuilds atomic.Int64
	ringPrunes atomic.Int64
)

// ringsApply reports whether an evaluation of the pattern prunes by its
// tail's index bucket: a selector-free pattern (so the DFS engine runs
// it) with at least one edge and a bounded length, whose last node has an
// equality conjunct on a proven label.
func ringsApply(pp *plan.PathPlan) bool {
	return pp.Pattern.Selector.Kind == ast.NoSelector && pp.MaxEdges >= 1 &&
		len(pp.TailLabels) > 0 && len(pp.TailEq) > 0
}

// tailRings builds the rings of one evaluation from the tail's equality
// index bucket, or returns nil when the pattern does not prune or its
// operands do not resolve (the engine then reports an unbound parameter
// exactly as the unpruned search does).
func tailRings(st graph.Stepper, pp *plan.PathPlan, params Params) *rings {
	if !ringsApply(pp) {
		return nil
	}
	label, filters, _ := endAccess(st, pp.TailLabels, pp.TailEq, params)
	if filters == nil {
		return nil
	}
	r := newRings(st.NodeIndexSpan(), pp.MaxEdges)
	st.NodesWithLabelIdx(label, func(i int) bool {
		r.mark(st, i, bitset.set)
		return true
	}, filters...)
	ringBuilds.Add(1)
	return r
}

// setPair refills a pair-seeded step's rings for its next target node t:
// ring0 = {t} and ring1 = t with its neighbours. Clearing the previous
// target's marks costs its degree, not the store's size.
func (r *rings) setPair(st graph.Stepper, t int) {
	if r.target >= 0 {
		r.mark(st, r.target, bitset.unset)
	}
	r.target = t
	r.mark(st, t, bitset.set)
}
