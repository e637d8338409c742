package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"gpml"
	"gpml/internal/ast"
	"gpml/internal/automaton"
	"gpml/internal/binding"
	"gpml/internal/core"
	"gpml/internal/eval"
	"gpml/internal/graph"
	"gpml/internal/lexer"
	"gpml/internal/normalize"
	"gpml/internal/parser"
	"gpml/internal/plan"
	"gpml/internal/qcache"
)

// series collects the samples behind each per-layer metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// frontEnd and engine name the spans whose self times make up the two
// shares the workloads are meant to separate.
var (
	frontEndSpans = []string{"normalize.querykey", "qcache.get", "qcache.put", "lexer.tokenize", "parser.parse",
		"normalize.normalize", "plan.analyze", "automaton.compile"}
	engineSpans = []string{"plan.orderjoin", "eval.open", "eval.first_row", "eval.drain"}
)

// maxBindingSample caps how many raw bindings feed the binding.* timings.
const maxBindingSample = 50_000

// quietHeap holds the garbage collector off while the in-process passes
// time a unit of work, and collects between units at the collector's own
// pace: whenever the heap has doubled since the last collection, so freed
// memory is reused as it would be. This process keeps the graph, its snapshot and
// the oracle alive, so a collection here marks some hundreds of MB and
// runs for as long as several requests do: left to itself it makes the
// same request cost 25 ms one time and 75 ms the next, on whichever side
// of a comparison it happens to fall. What a request allocates is
// reported on its own (eval.allocs_per_query, eval.bytes_per_query); what
// collecting it costs the served system is inside the end-to-end metrics
// and server.overhead_*.
type quietHeap struct {
	live    uint64 // HeapAlloc after the last collection
	restore int    // the GC percent to put back
	ms      runtime.MemStats
}

// minHeapGrowth is the runtime's own floor under the doubling rule.
const minHeapGrowth = 4 << 20

func holdCollector() *quietHeap {
	q := &quietHeap{restore: debug.SetGCPercent(-1)}
	q.collect()
	return q
}

func (q *quietHeap) collect() {
	runtime.GC()
	runtime.ReadMemStats(&q.ms)
	q.live = q.ms.HeapAlloc
}

// between is called where no clock is running.
func (q *quietHeap) between() {
	if runtime.ReadMemStats(&q.ms); q.ms.HeapAlloc > q.live+max(q.live, minHeapGrowth) {
		q.collect()
	}
}

func (q *quietHeap) release() { debug.SetGCPercent(q.restore) }

// drainChunk is how many rows the piecewise pass pulls from the cursor
// before it renders them. The reference renders each row as it arrives; a
// clock read per row would cost as much as the row, and holding a whole
// 30k-row answer before rendering it moves the garbage collector's work
// from one side of the comparison to the other.
const drainChunk = 256

// tracedPass runs one cycle of the schedule in-process, on one goroutine,
// from outside the layers: each request is executed once the way the
// server's handler composes the layers (the reference, one timing), and
// once piecewise, timing every exported layer call on its own and placing
// the pieces as spans. rep numbers the cycle when the caller repeats it;
// every cycle starts with empty plan caches. It returns the per-metric
// samples and, for every slot, the reference time and the sum of the
// pieces in microseconds.
func tracedPass(store gpml.Store, sched []request, uniq string, tr *tracer, rep int, heap *quietHeap) (series, []float64, []float64, error) {
	out := series{}
	refUS, piecesUS := make([]float64, len(sched)), make([]float64, len(sched))
	refCache, cache := qcache.New(256), qcache.New(256)
	ctx := context.Background()
	pinned := graph.Pin(store)
	var rawSample []*binding.PathBinding
	var ms0, ms1 runtime.MemStats

	for slot, r := range sched {
		request := rep*len(sched) + slot
		text := r.text(uniq + "-" + strconv.Itoa(request))
		params := paramValues(r.Params)
		cfg := eval.Config{Params: eval.Params(params)}

		// Reference: QueryKey → cache → (Compile) → Stream → rows rendered.
		// It runs before and after the pieces and the mean is kept, so
		// that neither side is the one that finds the caches warm.
		refMissed := false
		reference := func() (time.Duration, error) {
			var err error
			d := timed(func() {
				var key string
				if key, err = normalize.QueryKey(text); err != nil {
					return
				}
				var q *gpml.Query
				if v, ok := refCache.Get(key); ok {
					q = v.(*gpml.Query)
				} else {
					if q, err = gpml.Compile(text); err != nil {
						return
					}
					refCache.PutEpoch(key, q, 0)
					refMissed = true
				}
				var rs *gpml.Rows
				if rs, err = q.Stream(ctx, nil, gpml.WithStore(store), gpml.WithParams(params)); err != nil {
					return
				}
				defer rs.Close()
				cols := q.Columns()
				for rs.Next() {
					renderRow(rs.Row(), cols)
				}
				err = rs.Err()
			})
			return d, err
		}
		heap.between()
		runtime.ReadMemStats(&ms0)
		ref, err := reference()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, nil, nil, err
		}
		out.add("eval.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs))
		out.add("eval.bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc))

		// Pieces, laid out on the request's timeline from `at`.
		heap.between()
		at := int64(time.Since(tr.t0))
		requestStart := at
		root := tr.place("request", -1, request, at, 0)
		piece := func(name string, parent int, f func()) time.Duration {
			d := timed(f)
			tr.place(name, parent, request, at, d)
			at += int64(d)
			return d
		}
		var key string
		out.add("normalize.querykey_us", us(piece("normalize.querykey", root, func() { key, _ = normalize.QueryKey(text) })))
		var p *plan.Plan
		out.add("qcache.get_us", us(piece("qcache.get", root, func() {
			if v, ok := cache.Get(key); ok {
				p = v.(*plan.Plan)
			}
		})))
		if p == nil {
			// core.Compile as a whole, before and after its pieces (the
			// mean cancels whichever side runs on warmer caches), so the
			// pieces can be reconciled with it. One untimed compilation
			// first: a text seen for the first time costs up to twice as
			// much as the same text again, and only one side would pay it.
			if _, err := core.Compile(text, core.Options{}); err != nil {
				return nil, nil, nil, err
			}
			whole := timed(func() { _, err = core.Compile(text, core.Options{}) })
			if err != nil {
				return nil, nil, nil, err
			}
			var toks []lexer.Token
			dTok := timed(func() { toks, err = lexer.Tokenize(text) })
			if err != nil {
				return nil, nil, nil, err
			}
			compile := tr.place("core.compile", root, request, at, 0)
			compileStart := at
			var stmt *ast.MatchStmt
			dParse := timed(func() { stmt, err = parser.Parse(text) })
			if err != nil {
				return nil, nil, nil, err
			}
			if dTok > dParse {
				dTok = dParse
			}
			parse := tr.place("parser.parse", compile, request, at, dParse)
			tr.place("lexer.tokenize", parse, request, at, dTok)
			at += int64(dParse)
			out.add("lexer.tokenize_us", us(dTok))
			out.add("lexer.tokens_per_query", float64(len(toks)))
			out.add("parser.parse_us", us(dParse-dTok))
			var norm *ast.MatchStmt
			out.add("normalize.normalize_us", us(piece("normalize.normalize", compile, func() { norm, err = normalize.Normalize(stmt) })))
			if err != nil {
				return nil, nil, nil, err
			}
			out.add("plan.analyze_us", us(piece("plan.analyze", compile, func() { p, err = plan.Analyze(norm, plan.Options{}) })))
			if err != nil {
				return nil, nil, nil, err
			}
			tr.setEnd(compile, at)
			whole += timed(func() { _, err = core.Compile(text, core.Options{}) })
			if err != nil {
				return nil, nil, nil, err
			}
			out.add("core.compile_us", us(whole/2))
			out.add("core.compile_pieces_us", us(time.Duration(at-compileStart)))

			// Automata are compiled lazily by the first evaluation and
			// memoized on the plan; compile them here, timed, and hand the
			// result to the memo so evaluation below does not pay again.
			var dAuto time.Duration
			states := 0
			for _, pp := range p.Paths {
				if !pp.Automaton {
					continue
				}
				pp := pp
				var nfa *automaton.NFA
				dAuto += timed(func() { nfa, err = automaton.Compile(pp.Prog, pp.Mode == plan.ModeDFS) })
				if err != nil {
					nfa = nil // state budget: evaluation falls back, as in eval
				} else {
					states += nfa.NumStates()
				}
				pp.CompiledAutomaton(func() any { return nfa })
			}
			if dAuto > 0 {
				tr.place("automaton.compile", root, request, at, dAuto)
				at += int64(dAuto)
				out.add("automaton.compile_us", us(dAuto))
				out.add("automaton.states", float64(states))
			}
			piece("qcache.put", root, func() { cache.PutEpoch(key, p, 0) })
		}

		var dJoin time.Duration
		if len(p.Paths) > 1 {
			stats := make([]graph.StoreStats, len(p.Paths))
			for i := range stats {
				stats[i] = pinned.LabelStats()
			}
			dJoin = timed(func() { plan.OrderJoin(p, stats) })
			out.add("plan.orderjoin_us", us(dJoin))
		}
		// A context that can be cancelled, as Query.Stream and the server
		// hand the engines: they poll it, which a background context
		// makes free.
		cctx, cancel := context.WithCancel(ctx)
		var cur eval.Cursor
		dOpen := timed(func() { cur, err = eval.StreamPlan(cctx, store, p, cfg) })
		if err != nil {
			cancel()
			return nil, nil, nil, err
		}
		open := tr.place("eval.open", root, request, at, dOpen)
		if dJoin > dOpen {
			dJoin = dOpen
		}
		if dJoin > 0 {
			tr.place("plan.orderjoin", open, request, at, dJoin)
		}
		at += int64(dOpen)
		out.add("eval.open_us", us(dOpen))

		var row *eval.Row
		dFirst := timed(func() { row, err = cur.Next() })
		tr.place("eval.first_row", root, request, at, dFirst)
		at += int64(dFirst)
		out.add("eval.first_row_us", us(dFirst))
		var dDrain, dRender time.Duration
		n := 0
		chunk := make([]*eval.Row, 0, drainChunk)
		for err == nil && row != nil {
			dDrain += timed(func() {
				chunk = chunk[:0]
				for err == nil && row != nil && len(chunk) < drainChunk {
					chunk = append(chunk, row)
					row, err = cur.Next()
				}
			})
			dRender += timed(func() {
				for _, r := range chunk {
					renderRow(r, p.Columns)
				}
			})
			n += len(chunk)
		}
		dDrain += timed(func() { cur.Close() })
		cancel()
		if err != nil {
			return nil, nil, nil, err
		}
		tr.place("eval.drain", root, request, at, dDrain)
		at += int64(dDrain)
		tr.place("gpml.row_materialize", root, request, at, dRender)
		at += int64(dRender)
		tr.setEnd(root, at)
		piecesUS[slot] = us(time.Duration(at - requestStart))
		if refMissed {
			refCache.Invalidate(key) // the second run must compile too
		}
		heap.between()
		ref2, err := reference()
		if err != nil {
			return nil, nil, nil, err
		}
		refUS[slot] = us((ref + ref2) / 2)
		out.add("eval.drain_us", us(dDrain))
		out.add("eval.rows", float64(n))
		out.add("gpml.row_materialize_us", us(dRender))

		// What follows feeds metrics of its own, not the reconciliation:
		// once per slot is enough.
		if rep > 0 {
			continue
		}
		heap.between()

		// Library path: EvalPlan adds the canonical sort to the same drain.
		dEval := timed(func() { _, err = eval.EvalPlan(store, p, cfg) })
		if err != nil {
			return nil, nil, nil, err
		}
		if extra := dEval - dOpen - dFirst - dDrain; extra > 0 {
			out.add("eval.collect_sort_us", us(extra))
		} else {
			out.add("eval.collect_sort_us", 0)
		}

		// §6 stage functions, callable for one path pattern at a time.
		if len(p.Paths) == 1 {
			pp := p.Paths[0]
			var raw []*binding.PathBinding
			out.add("eval.enumerate_us", us(timed(func() { raw, err = eval.Enumerate(store, pp, cfg) })))
			if err != nil {
				return nil, nil, nil, err
			}
			out.add("eval.raw_matches", float64(len(raw)))
			out.add("eval.single_rows", float64(n))
			out.add("eval.match_pattern_us", us(timed(func() { _, err = eval.MatchPattern(store, pp, cfg) })))
			if err != nil {
				return nil, nil, nil, err
			}
			if room := maxBindingSample - len(rawSample); room > 0 {
				if len(raw) > room {
					raw = raw[:room]
				}
				rawSample = append(rawSample, raw...)
			}
		}
	}
	bindingLayer(out, rawSample)
	return out, refUS, piecesUS, nil
}

// renderRow does what the server does per row before encoding it:
// Row.Get and Bound.String for every column.
func renderRow(row *eval.Row, cols []string) []string {
	cells := make([]string, len(cols))
	for i, c := range cols {
		if b, ok := row.Get(c); ok {
			cells[i] = b.String()
		} else {
			cells[i] = "NULL"
		}
	}
	return cells
}

// bindingLayer times Reduce, Keyer.Key, Dedup and SortStable over raw
// Enumerate output, per thousand bindings.
func bindingLayer(out series, raw []*binding.PathBinding) {
	if len(raw) == 0 {
		return
	}
	per1k := func(d time.Duration) float64 { return us(d) * 1000 / float64(len(raw)) }
	reduced := make([]*binding.Reduced, len(raw))
	out.add("binding.reduce_us_per_1k", per1k(timed(func() {
		for i, b := range raw {
			reduced[i] = b.Reduce()
		}
	})))
	k := binding.NewKeyer()
	out.add("binding.key_us_per_1k", per1k(timed(func() {
		for _, r := range reduced {
			k.Key(r)
		}
	})))
	var deduped []*binding.Reduced
	out.add("binding.dedup_us_per_1k", per1k(timed(func() { deduped = binding.Dedup(reduced) })))
	out.add("binding.sort_us_per_1k", per1k(timed(func() { binding.SortStable(deduped) })))
}
