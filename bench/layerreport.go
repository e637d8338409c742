package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"gpml"
	"gpml/internal/gql"
	"gpml/internal/server"
)

// discardWriter is a ResponseWriter that counts bytes and drops them: the
// server layer timed without a transport under it.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// handlerPass calls the server package's /query handler in-process, once
// per slot, with no network: what the server adds on top of evaluation
// (body decode, admission, NDJSON encoding, per-row flush calls).
func handlerPass(store gpml.Store, graphName string, sched []request, uniq string, heap *quietHeap) (usPerSlot []float64, bytesPerSlot []int, err error) {
	catalog := gql.NewCatalog()
	if err := catalog.Register(graphName, store); err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Catalog: catalog, DefaultGraph: graphName})
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
	usPerSlot, bytesPerSlot = make([]float64, len(sched)), make([]int, len(sched))
	for i, r := range sched {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(r.body(graphName, fmt.Sprintf("%s-%d", uniq, i))))
		w := &discardWriter{header: http.Header{}, status: http.StatusOK}
		heap.between()
		usPerSlot[i] = us(timed(func() { h.ServeHTTP(w, req) }))
		if w.status != http.StatusOK {
			return nil, nil, fmt.Errorf("in-process handler: status %d for %s", w.status, r.Shape)
		}
		bytesPerSlot[i] = w.n
	}
	return usPerSlot, bytesPerSlot, nil
}

// layerMetrics runs the in-process traced pass, the handler pass and the
// store/WAL layer timings, and fills in every per-layer metric. plain is
// the served phase measured without span recording; the HTTP spans of the
// other phase are in tr, which also receives the in-process spans and is written to
// out/trace-<workload>.json.
func layerMetrics(o *runOutput, cfg runConfig, p *prepared, store gpml.Store, plain loopResult, tr *tracer, tmp string) error {
	uniq := fmt.Sprintf("s%dl", cfg.seed)
	// Warm the in-process path once (page in code, grow the heap) so the
	// first slots are not timed cold.
	heap := holdCollector()
	defer heap.release()
	if _, _, _, err := tracedPass(store, p.sched[:min(len(p.sched), 2)], uniq+"w", newTracer(), 0, heap); err != nil {
		return err
	}
	httpSpans := len(tr.spans)
	// A short cycle is repeated: with four slots timed once each, one
	// garbage collection landing on the reference and not on the pieces
	// moves the reconciliation by a third. Per slot, the medians over
	// the repetitions are compared.
	reps := min(maxTracedReps, max(1, tracedTimings/len(p.sched)))
	ser := series{}
	refs, pieces := make([][]float64, len(p.sched)), make([][]float64, len(p.sched))
	for rep := 0; rep < reps; rep++ {
		s, ref, pcs, err := tracedPass(store, p.sched, uniq, tr, rep, heap)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		for name, v := range s {
			ser[name] = append(ser[name], v...)
		}
		for i := range p.sched {
			refs[i], pieces[i] = append(refs[i], ref[i]), append(pieces[i], pcs[i])
		}
	}
	refUS, piecesUS := make([]float64, len(p.sched)), make([]float64, len(p.sched))
	for i := range p.sched {
		refUS[i], piecesUS[i] = median(refs[i]), median(pieces[i])
	}
	handlerUS, handlerBytes, err := handlerPass(store, p.d.name, p.sched, uniq+"h", heap)
	if err != nil {
		return err
	}
	heap.release() // the store and WAL timings below allocate in bulk
	label, prop := "Account", "owner"
	if cfg.w.snb {
		label, prop = "Person", "firstName"
	}
	if err := storeLayers(ser, p.d, label, prop, tmp, cfg.seed); err != nil {
		return fmt.Errorf("store layers: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json"), cfg.w.name, cfg.seed); err != nil {
		return err
	}

	// Medians of everything sampled per request or per operation. A
	// layer the workload never enters (no automaton, one pattern only)
	// reports 0 over 0 samples; what the callers read from the server or
	// the writer is already set, and the ratios below replace their rows.
	for _, d := range perLayer {
		if _, done := o.Metrics[d.Name]; done {
			continue
		}
		v := 0.0
		if len(ser[d.Name]) > 0 {
			v = median(ser[d.Name])
		}
		o.set(d.Name, v, len(ser[d.Name]))
	}
	rows := sum(ser["eval.rows"])
	o.set("gpml.row_materialize_us_per_row", ratio(sum(ser["gpml.row_materialize_us"]), rows), int(rows))
	o.set("eval.rows_per_raw_match", ratio(sum(ser["eval.single_rows"]), sum(ser["eval.raw_matches"])), len(ser["eval.raw_matches"]))

	// Server: served latency per slot against the same slot in-process.
	bySlot := make([][]float64, len(p.sched))
	var servedLat []float64
	for _, s := range plain.all() {
		bySlot[s.slot] = append(bySlot[s.slot], s.latencyMS*1e3)
		servedLat = append(servedLat, s.latencyMS)
	}
	var overhead []float64
	var overheadSum, servedSum, encodeSum, bytesSum, rowSum float64
	for i, lat := range bySlot {
		if len(lat) == 0 {
			continue
		}
		served := median(lat)
		overhead = append(overhead, served-refUS[i])
		overheadSum += served - refUS[i]
		servedSum += served
	}
	for i := range p.sched {
		if extra := handlerUS[i] - refUS[i]; extra > 0 {
			encodeSum += extra
		}
		bytesSum += float64(handlerBytes[i])
		rowSum += float64(p.want[i].rows)
	}
	o.set("server.overhead_p50_us", median(overhead), len(overhead))
	o.set("server.overhead_share", ratio(overheadSum, servedSum), len(overhead))
	o.set("server.ndjson_us_per_row", ratio(encodeSum, rowSum), int(rowSum))
	o.set("server.bytes_per_row", ratio(bytesSum, rowSum), int(rowSum))
	o.set("server.latency_p99_ms", percentile(sortedCopy(servedLat), 99), len(servedLat))

	// Reconciliation: the pieces against the reference end to end, and
	// the layers' shares of the pieces.
	self := tr.selfTimes()
	delete(self, "http.request")
	var total, front, engine float64
	for _, v := range self {
		total += v
	}
	for _, n := range frontEndSpans {
		front += self[n]
	}
	for _, n := range engineSpans {
		engine += self[n]
	}
	o.set("trace.frontend_share", ratio(front, total), len(tr.spans)-httpSpans)
	o.set("trace.engine_share", ratio(engine, total), len(tr.spans)-httpSpans)
	o.set("trace.unattributed_ratio", 1-ratio(sum(piecesUS), sum(refUS)), reps*len(refUS))
	return nil
}

// A traced cycle shorter than tracedTimings slots is repeated until it
// has given that many timings, at most maxTracedReps per slot.
const (
	tracedTimings = 40
	maxTracedReps = 10
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
