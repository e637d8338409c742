package eval

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// Pull-based streaming execution. Every stage of the §6 pipeline is a
// Cursor: the consumer pulls rows one at a time, and only genuinely
// blocking stages buffer anything:
//
//   - enumerate / reduce / dedup / select stream at per-seed granularity:
//     dedup, which runs only for a pattern that can produce duplicates
//     (plan.PathPlan.DupReason), has keys that never collide across seed
//     nodes (every key embeds the path, whose first node is the seed),
//     and Fig 8's selector partitions are keyed on path endpoints, whose
//     first is the seed — so the per-seed pipeline is exact and
//     buffering is bounded by one seed's matches, never the total;
//   - the canonical (path length, binding key) sort is the only truly
//     blocking stage, and only Eval applies it — Stream emits rows in
//     deterministic pipeline order (seed-major, per-seed pipeline order)
//     and skips the sort entirely, which is what buys first-row latency;
//   - joins stream their probe side; a seeded bind-join step solves seed
//     nodes lazily and memoizes, and a step with no seed (a hash join)
//     memoizes the whole pattern it joins against as one entry.
//
// The whole pipeline runs on the consumer's goroutine: next() advances the
// engine one seed at a time, with no channels and no scheduling.
//
// Eval is a thin collect-all wrapper: drain the cursor, apply the
// canonical sort. Because deduplicated binding keys are unique, the sort
// fully determines row order, so Eval's output does not depend on the
// order the pipeline produced rows in (the same argument that makes the
// bind-join exact; see bindjoin.go).
//
// Cancellation: the pipeline carries a context, and the engines poll it
// (budget.check) every cancelCheckInterval edge expansions, so a cancelled
// context stops an in-flight search in microseconds, not at the next
// match. Pattern sources and join steps poll it too (budget.tick) every
// cancelCheckInterval seeds, rows and candidates, so a stream with no
// edge work (a node-only pattern, a memoized join's fan-out) also ends.
// An abandoned cursor needs no stopping: no work happens between calls to
// Next.

// Cursor is the pull-based operator interface. Next returns the next
// result row, or (nil, nil) when the stream is exhausted. The row is
// borrowed, like bufio.Scanner.Bytes: it is valid until the next call to
// Next or Close, which may overwrite it, and a consumer that keeps a row
// keeps its Clone. Close ends the stream and must be called exactly once
// when the consumer is done, whether or not the stream was drained.
// Cursors are not safe for concurrent use; cancel the pipeline's context
// to abort from another goroutine.
type Cursor interface {
	Next() (*Row, error)
	Close() error
}

// StreamPlan builds the streaming pipeline for a plan over one store: a
// match cursor for a single pattern, the cost-ordered bind-join chain for
// several, then the row-local filter/limit cursors. Construction does no
// search work. The returned cursor must be closed; see Cursor.
//
// The store is pinned and indexed once (graph.AsStepper): every pattern
// source, join step, the postfilter and row rendering read that one view,
// so the query observes one epoch even while a writer keeps publishing,
// and element identity is (kind, index) throughout.
func StreamPlan(ctx context.Context, s graph.Store, p *plan.Plan, cfg Config) (Cursor, error) {
	if s == nil {
		return nil, fmt.Errorf("eval: nil graph")
	}
	if err := p.CheckBind(cfg.Params); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st := graph.AsStepper(s)
	var cur Cursor
	if len(p.Paths) > 1 {
		cur = newBindJoinCursor(ctx, st, p, cfg)
	} else {
		cur = newMatchCursor(ctx, st, p, p.Paths[0], cfg)
	}
	// Post-join stages: all row-local, all streaming.
	if cfg.EdgeIsomorphic {
		cur = &filterCursor{src: cur, keep: func(row *Row) (bool, error) {
			return rowEdgeIsomorphic(row), nil
		}}
	}
	if p.Post != nil {
		cur = &filterCursor{src: cur, keep: func(row *Row) (bool, error) {
			t, err := EvalPred(p.Post, rowResolver{st, row, cfg.Params})
			if err != nil {
				return false, err
			}
			return t.IsTrue(), nil
		}}
	}
	if cfg.Limit > 0 {
		cur = &limitCursor{src: cur, remaining: cfg.Limit}
	}
	return cur, nil
}

// Collect drains a cursor, closes it, and restores the canonical row
// order (sortRowsCanonical) — the collect-all wrapper Eval is built on.
// It keeps every row, so it copies each into chunked storage the Result
// owns.
func Collect(cur Cursor, p *plan.Plan) (*Result, error) {
	defer cur.Close()
	var kept rowArena
	var rows []*Row
	for {
		row, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		rows = append(rows, kept.clone(row))
	}
	sortRowsCanonical(rows, len(p.Paths))
	return &Result{Columns: p.Columns, Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Pattern sources: one pattern's selected solutions, produced incrementally
// (the full §6 single-pattern pipeline: enumerate, reduce, dedup, select,
// at per-seed granularity).

// newPatternSource builds the pattern's solution source, which owns a
// fresh budget wired to the pipeline's context.
func newPatternSource(ctx context.Context, st graph.Stepper, pp *plan.PathPlan, cfg Config) *solSource {
	bud := newBudget(ctx, cfg.Limits.withDefaults())
	src := &solSource{solver: newSeedSolver(st, pp, cfg, bud), bud: bud}
	forEachNode(st, pp.SeedLabels, pp.HeadEq, cfg.Params, func(i int) bool {
		src.seeds = append(src.seeds, i)
		return true
	})
	return src
}

// solSource streams one path pattern's solutions, pulling them seed by
// seed: one seed's pipeline output is buffered (bounded by that seed's
// matches, never the total), handed out solution by solution, and the
// next seed runs only when the buffer empties — so a LIMIT-cut or
// abandoned consumer never pays for seeds it didn't reach. The seed ids
// are materialized up front (O(#seeds) ids, far below the O(#solutions)
// a materializing pipeline buffers). A solution is the solver's, valid
// until next starts another seed; that happens only in a later Next of
// the cursor the source feeds, which keeps its row valid until then.
type solSource struct {
	solver *seedSolver
	bud    *budget
	seeds  []int
	at     int
	buf    []*binding.Reduced
	bufAt  int
}

// next returns the next solution, or (nil, nil) at exhaustion.
func (c *solSource) next() (*binding.Reduced, error) {
	for {
		if c.bufAt < len(c.buf) {
			sol := c.buf[c.bufAt]
			c.bufAt++
			return sol, nil
		}
		if c.at >= len(c.seeds) {
			return nil, nil
		}
		if err := c.bud.tick(); err != nil {
			return nil, err
		}
		seed := c.seeds[c.at]
		c.at++
		sols, err := c.solver.solve(seed)
		if err != nil {
			return nil, err
		}
		c.buf, c.bufAt = sols, 0
	}
}

// ---------------------------------------------------------------------------
// Row operators.

// matchCursor maps one pattern's solution stream to result rows (the
// first/only join step), each written into the cursor's one row.
type matchCursor struct {
	src *solSource
	at  int // the pattern's index
	out Row // the row Next hands out
}

// newMatchCursor streams pattern pp's solutions as rows of plan p.
func newMatchCursor(ctx context.Context, st graph.Stepper, p *plan.Plan, pp *plan.PathPlan, cfg Config) *matchCursor {
	return &matchCursor{src: newPatternSource(ctx, st, pp, cfg), at: pp.Index, out: newRow(p)}
}

func (c *matchCursor) Next() (*Row, error) {
	sol, err := c.src.next()
	if sol == nil || err != nil {
		return nil, err
	}
	c.out.Bindings[c.at] = sol
	return &c.out, nil
}

func (c *matchCursor) Close() error { return nil }

// filterCursor keeps the rows a predicate admits (edge-isomorphic match
// mode, the final WHERE postfilter).
type filterCursor struct {
	src  Cursor
	keep func(*Row) (bool, error)
}

func (c *filterCursor) Next() (*Row, error) {
	for {
		row, err := c.src.Next()
		if row == nil || err != nil {
			return nil, err
		}
		ok, err := c.keep(row)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (c *filterCursor) Close() error { return c.src.Close() }

// limitCursor ends the stream after n rows — the LIMIT pushdown: in a
// pull pipeline, not asking for the (n+1)-th row is what stops every
// upstream stage from starting work for it (a seed already started has
// been searched to the end).
type limitCursor struct {
	src       Cursor
	remaining int
}

func (c *limitCursor) Next() (*Row, error) {
	if c.remaining <= 0 {
		return nil, nil
	}
	row, err := c.src.Next()
	if row != nil && err == nil {
		c.remaining--
	}
	return row, err
}

func (c *limitCursor) Close() error { return c.src.Close() }

// ---------------------------------------------------------------------------
// Streaming bind-join.

// newBindJoinCursor builds the cost-ordered bind-join pipeline as a chain
// of join-step cursors: rows stream through every step, and each step
// only does the per-seed work its input rows demand.
func newBindJoinCursor(ctx context.Context, st graph.Stepper, p *plan.Plan, cfg Config) Cursor {
	steps := plan.OrderJoin(p, joinStats(st.LabelStats(), len(p.Paths)))
	bound := map[string]bool{}
	var cur Cursor
	for k, step := range steps {
		pp := p.Paths[step.Pattern]
		shared := sharedVars(p, pp, bound)
		switch {
		case k == 0:
			// The first step joins against the single empty row: a pure
			// pattern scan, streamed straight off the engines.
			cur = newMatchCursor(ctx, st, p, pp, cfg)
		default:
			bc := &bindStepCursor{
				ctx: ctx, st: st, pp: pp, run: pp, cfg: cfg,
				shared: shared, left: cur, memo: map[uint64]*seedIndex{}, out: newRow(p),
			}
			if step.SeedVar != "" && bound[step.SeedVar] {
				bc.seedVar, bc.target = step.SeedVar, step.Target
				if step.End == plan.SeedTail {
					bc.run = pp.Mirrored()
					tailSeededSteps.Add(1)
				}
				if step.Target != "" {
					bc.pair = newRings(st.NodeIndexSpan(), bc.run.MaxEdges)
					pairSeededSteps.Add(1)
				}
			}
			cur = bc
		}
		markBound(bound, pp)
	}
	return cur
}

// tailSeededSteps counts the bind-join steps built to seed from a pattern's
// tail, and pairSeededSteps those built to solve per (seed, target) pair,
// so tests can tell the mirrored and the pair paths ran.
var tailSeededSteps, pairSeededSteps atomic.Int64

// seedIndex is one memo entry's selected solutions (a seed node's, a
// pair's, or a hash step's whole pattern), hash-indexed by the step's
// shared-variable join key. The solutions are the step's own copies.
type seedIndex struct {
	byKey map[string][]*binding.Reduced
}

func buildSeedIndex(sols []*binding.Reduced, shared []string) *seedIndex {
	idx := &seedIndex{byKey: make(map[string][]*binding.Reduced, len(sols))}
	var buf []byte
	for _, sol := range sols {
		buf = appendJoinKeyOfSolution(buf[:0], sol, shared)
		idx.byKey[string(buf)] = append(idx.byKey[string(buf)], sol)
	}
	return idx
}

// bindStepCursor joins one pattern into the row stream by seeding its
// engine runs from each row's binding of the planner-chosen seed
// variable. Seeds are solved lazily — the first row that needs a seed
// pays for it, later rows reuse the memo — so a LIMIT that is satisfied
// early never enumerates the seeds it didn't reach. A pair-seeded step
// (target non-empty) solves and memoizes each (seed, target) pair instead,
// with the target as its rings' only admissible last node. A hash step
// (no seedVar: a disconnected fragment, or no bound end variable) solves
// the whole pattern once, on its first input row, as the memo's one entry
// (key 0); with no shared variables it is the cross product. The memo
// outlives the solver's per-seed storage, so it keeps copies, in kept.
type bindStepCursor struct {
	ctx context.Context
	st  graph.Stepper
	pp  *plan.PathPlan
	// run is the plan the engines run: pp, or pp.Mirrored() for a tail
	// seed, whose solutions flip back to pp's orientation before they are
	// indexed.
	run     *plan.PathPlan
	cfg     Config
	seedVar string // empty for a hash step
	target  string
	shared  []string
	left    Cursor
	// pair is a pair-seeded step's rings, refilled per pair and preset as
	// its budget's rings.
	pair *rings

	// bud is the step's search budget: limits accounting spans every seed
	// run of the step, exactly like the materializing pipeline's per-step
	// budget did, and its tick polls the context as rows fan out.
	bud    *budget
	solver *seedSolver
	// memo maps a seed node index, a pair's seed<<32 | target, or a hash
	// step's 0 to its solutions; nil when none joins.
	memo   map[uint64]*seedIndex
	kept   binding.Arena
	keyBuf []byte

	// row/cands/ci is the in-flight expansion head: row is the left
	// cursor's, valid until the next left.Next. out is the row Next hands
	// out.
	row   *Row
	cands []*binding.Reduced
	ci    int
	out   Row
}

func (c *bindStepCursor) Next() (*Row, error) {
	for {
		// Drain the in-flight expansion first.
		for c.ci < len(c.cands) {
			if err := c.budget().tick(); err != nil {
				return nil, err
			}
			sol := c.cands[c.ci]
			c.ci++
			return joinRow(&c.out, c.row, c.pp.Index, sol), nil
		}
		row, err := c.left.Next()
		if row == nil || err != nil {
			return nil, err
		}
		if err := c.budget().tick(); err != nil {
			return nil, err
		}
		cands, err := c.candidates(row)
		if err != nil {
			return nil, err
		}
		c.row, c.cands, c.ci = row, cands, 0
	}
}

// candidates returns the step solutions joinable with one row: the row's
// seed node (pair: seed and target nodes; hash step: the whole pattern)
// is solved (memoized), and its solutions are probed with the full
// shared-variable key. A row that does not bind the seed (or target)
// variable to a node joins nothing: both are unconditional singleton end
// variables, so every solution binds them to nodes and no join key can
// match.
func (c *bindStepCursor) candidates(row *Row) ([]*binding.Reduced, error) {
	var key uint64
	si, ti := -1, -1
	if c.seedVar != "" {
		var ok bool
		if si, ok = boundNode(row, c.seedVar); !ok {
			return nil, nil
		}
		key = uint64(si)
		if c.target != "" {
			if ti, ok = boundNode(row, c.target); !ok {
				return nil, nil
			}
			key = key<<32 | uint64(ti)
		}
	}
	idx, cached := c.memo[key]
	if !cached {
		var err error
		if idx, err = c.solve(si, ti); err != nil {
			return nil, err
		}
		c.memo[key] = idx
	}
	if idx == nil {
		return nil, nil
	}
	c.keyBuf = appendJoinKeyOfRow(c.keyBuf[:0], row, c.shared)
	return idx.byKey[string(c.keyBuf)], nil
}

// solve indexes the solutions of seed si (pair: with target ti), or, for
// a hash step (si < 0), the whole pattern's, canonically sorted. It
// returns nil when none is left to join.
func (c *bindStepCursor) solve(si, ti int) (*seedIndex, error) {
	if si < 0 {
		sols, err := matchPatternStream(c.ctx, c.st, c.pp, c.cfg, &c.kept)
		if err != nil || len(sols) == 0 {
			return nil, err
		}
		return buildSeedIndex(sols, c.shared), nil
	}
	if c.solver == nil {
		c.solver = newSeedSolver(c.st, c.run, c.cfg, c.budget())
	}
	if ti >= 0 {
		c.pair.setPair(c.st, ti)
	}
	sols, err := c.solver.solve(si)
	if err != nil {
		return nil, err
	}
	return c.index(sols, ti), nil
}

// boundNode returns the node index a row binds a variable to.
func boundNode(row *Row, name string) (int, bool) {
	ref, ok := row.singleton(name)
	return int(ref.Idx), ok && ref.Kind == binding.NodeElem
}

// index copies one seed's solutions into the step's storage, flipping a
// tail seed's back to the pattern's textual orientation, and hash-indexes
// them by the join key. For a pair (target node index t >= 0) it keeps
// only the solutions ending at t, the only ones the pair's rows can join.
// It returns nil when no solution is left. sols is the solver's, so it is
// filtered in place.
func (c *bindStepCursor) index(sols []*binding.Reduced, t int) *seedIndex {
	if t >= 0 {
		want := binding.Ref{Kind: binding.NodeElem, Idx: graph.ElemIdx(t)}
		sols = slices.DeleteFunc(sols, func(sol *binding.Reduced) bool {
			ref, ok := sol.Singleton(c.target)
			return !ok || ref != want
		})
	}
	if len(sols) == 0 {
		return nil
	}
	for i, sol := range sols {
		sols[i] = c.kept.Clone(sol)
		if c.run != c.pp {
			sols[i].Reverse()
		}
	}
	return buildSeedIndex(sols, c.shared)
}

// budget lazily builds the step's budget, wired to the pipeline context;
// a hash step builds it only to tick.
func (c *bindStepCursor) budget() *budget {
	if c.bud == nil {
		c.bud = newBudget(c.ctx, c.cfg.Limits.withDefaults())
		if c.pair != nil {
			c.bud.rings.load(func() (*rings, error) { return c.pair, nil })
		}
	}
	return c.bud
}

func (c *bindStepCursor) Close() error { return c.left.Close() }

// matchPatternStream drains the pattern source of one path pattern, the
// full single-pattern pipeline, copies its solutions into kept, and sorts
// them canonically.
func matchPatternStream(ctx context.Context, st graph.Stepper, pp *plan.PathPlan, cfg Config, kept *binding.Arena) ([]*binding.Reduced, error) {
	src := newPatternSource(ctx, st, pp, cfg)
	var sols []*binding.Reduced
	for {
		sol, err := src.next()
		if err != nil {
			return nil, err
		}
		if sol == nil {
			binding.SortStable(sols)
			return sols, nil
		}
		sols = append(sols, kept.Clone(sol))
	}
}
