package eval

import (
	"sync"
	"sync/atomic"

	"gpml/internal/binding"
	"gpml/internal/graph"
	"gpml/internal/plan"
)

// budget enforces the search limits across every seed run of one
// Enumerate call, sequential or parallel. The counters are atomic so
// concurrent workers share one global budget, exactly like the single
// global engine did before seeds were split out.
type budget struct {
	maxMatches int64
	maxThreads int64
	matches    atomic.Int64
	threads    atomic.Int64
	// check, when non-nil, is polled periodically by the engines (every
	// cancelCheckInterval edge expansions) so a cancelled context or a
	// closed streaming cursor aborts an in-flight search promptly. It is
	// set once, before any engine runs, and never mutated afterwards, so
	// concurrent workers read it without synchronization.
	check func() error
	// targets is the automaton engine's endpoint set and rings the DFS
	// engine's target rings (see rings.go): each built at most once per
	// evaluation and shared by every seed run and worker. A pair-seeded
	// join step presets rings to the rings it refills per pair.
	targets lazy[[]int32]
	rings   lazy[*rings]
}

// lazy is a value computed on first use; later callers, concurrent ones
// included, get the same result.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) load(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = build() })
	return l.v, l.err
}

// cancelCheckInterval is how many edge expansions an engine performs
// between cancellation polls: frequent enough that cancellation lands in
// microseconds, rare enough that the poll is invisible in the hot path.
const cancelCheckInterval = 1024

func newBudget(lims Limits) *budget {
	return &budget{
		maxMatches: int64(lims.MaxMatches),
		maxThreads: int64(lims.MaxThreads),
	}
}

// checkCancel polls the cancellation hook; engines call it every
// cancelCheckInterval edge expansions (the automaton engine: incidences).
func (b *budget) checkCancel() error {
	if b.check == nil {
		return nil
	}
	return b.check()
}

// addMatch accounts one emitted match; it errors when the global match
// budget is exhausted.
func (b *budget) addMatch() error {
	if b.matches.Add(1) > b.maxMatches {
		return &LimitError{What: "match count", Limit: int(b.maxMatches)}
	}
	return nil
}

// addThread accounts one admitted BFS search state.
func (b *budget) addThread() error {
	if b.threads.Add(1) > b.maxThreads {
		return &LimitError{What: "search state", Limit: int(b.maxThreads)}
	}
	return nil
}

// runSeedPool distributes n seed-indexed tasks over a worker pool with
// dynamic claiming (atomic counter, so skewed seeds don't idle the pool)
// and a failed-flag short circuit: a task error stops further claims. A
// non-nil stop channel additionally ends claiming when closed. Each
// worker builds its per-worker state (engine machinery, output buffers)
// once via newWorker. The per-seed error slice is returned for the
// caller to interpret — materializing callers surface the first error in
// seed order, the streaming layer additionally filters its stopped
// sentinel.
func runSeedPool(workers, n int, stop <-chan struct{}, newWorker func() func(int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if stop != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
				if err := run(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// chunkStarts carves n seed-indexed tasks into contiguous chunks whose
// sizes grow geometrically: the first chunks hold a single seed (the
// ordering emitters release chunk 0 first, so first-row latency stays one
// seed's work), later chunks grow toward 64 so channel and reorder
// bookkeeping amortizes away on many-seed workloads — and small chunks
// near the start double as load balancing. The exponent is capped, not
// the shift: i/workers exceeds 62 on big seed sets and 1<<63 is negative.
func chunkStarts(n, workers int) []int {
	starts := []int{0}
	for at, i := 0, 0; at < n; i++ {
		size := 64
		if e := i / workers; e < 6 {
			size = 1 << e
		}
		if at += size; at > n {
			at = n
		}
		starts = append(starts, at)
	}
	return starts
}

// enumerateParallel distributes the seed runs over cfg.Parallelism workers
// and merges the per-seed outputs back in seed order, making the result
// byte-identical to sequential evaluation. All workers share the store's
// indexed view (immutable, safe for concurrent readers).
func enumerateParallel(st graph.Stepper, pp *plan.PathPlan, cfg Config, bud *budget, seeds []int) ([]*binding.PathBinding, error) {
	workers := cfg.Parallelism
	if workers > len(seeds) {
		workers = len(seeds)
	}
	perSeed := make([][]*binding.PathBinding, len(seeds))
	engine, _ := engineFor(pp)
	errs := runSeedPool(workers, len(seeds), nil, func() func(int) error {
		var out []*binding.PathBinding
		run := seedRunner(st, pp, engine, cfg, bud, func(b *binding.PathBinding) error {
			out = append(out, b.Clone())
			return nil
		})
		return func(i int) error {
			out = nil
			if err := run(seeds[i]); err != nil {
				return err
			}
			perSeed[i] = out
			return nil
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, part := range perSeed {
		total += len(part)
	}
	merged := make([]*binding.PathBinding, 0, total)
	for _, part := range perSeed {
		merged = append(merged, part...)
	}
	return merged, nil
}
