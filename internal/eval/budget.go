package eval

import "context"

// budget enforces the search limits across every seed run of one
// evaluation: an Enumerate call, a pattern source, or a join step. All of
// them run on the caller's goroutine, so the counters are plain integers.
type budget struct {
	maxMatches int64
	maxThreads int64
	matches    int64
	threads    int64
	// ctx is the evaluation's context, polled by check and tick.
	ctx context.Context
	// ticks counts the row work tick accounts.
	ticks int
	// targets is the automaton engine's endpoint set and rings the DFS
	// engine's target rings (see rings.go): each built at most once per
	// evaluation and shared by every seed run. A pair-seeded join step
	// presets rings to the rings it refills per pair.
	targets lazy[[]int32]
	rings   lazy[*rings]
}

// lazy is a value computed on first use; later calls get the same result.
type lazy[T any] struct {
	done bool
	v    T
	err  error
}

func (l *lazy[T]) load(build func() (T, error)) (T, error) {
	if !l.done {
		l.v, l.err = build()
		l.done = true
	}
	return l.v, l.err
}

// cancelCheckInterval is how many edge expansions an engine performs
// between cancellation polls: frequent enough that cancellation lands in
// microseconds, rare enough that the poll is invisible in the hot path.
const cancelCheckInterval = 1024

func newBudget(ctx context.Context, lims Limits) *budget {
	return &budget{
		maxMatches: int64(lims.MaxMatches),
		maxThreads: int64(lims.MaxThreads),
		ctx:        ctx,
	}
}

// check polls the evaluation's context; engines call it every
// cancelCheckInterval edge expansions (the automaton engine: incidences),
// so a cancelled context aborts an in-flight search promptly.
func (b *budget) check() error { return b.ctx.Err() }

// tick accounts one unit of row work that expands no edge, so no engine
// polls during it: a seed solved by a pattern source, a left row or a
// candidate merged by a join step. A node-only pattern or a memoized join
// produces rows by this work alone; every cancelCheckInterval ticks it
// polls the context, so a cancelled context ends those streams too.
func (b *budget) tick() error {
	if b.ticks++; b.ticks%cancelCheckInterval == 0 {
		return b.ctx.Err()
	}
	return nil
}

// addMatch accounts one emitted match; it errors when the match budget is
// exhausted.
func (b *budget) addMatch() error {
	if b.matches++; b.matches > b.maxMatches {
		return &LimitError{What: "match count", Limit: int(b.maxMatches)}
	}
	return nil
}

// addThread accounts one admitted search state (a BFS park or an
// automaton product state).
func (b *budget) addThread() error {
	if b.threads++; b.threads > b.maxThreads {
		return &LimitError{What: "search state", Limit: int(b.maxThreads)}
	}
	return nil
}
