// Package server implements gpmld's HTTP query service: prepared GPML
// statements served over NDJSON streams.
//
// The serving path composes three pieces grown elsewhere in the module:
//
//   - the compiled-plan cache (internal/qcache) keyed on token-normalized
//     query text (normalize.QueryKey), so textual re-sends of the same
//     statement — reformatted, re-commented, differently parameterized —
//     reuse one plan and its memoized pattern automaton;
//   - $name parameters bound per request (gpml.WithParams), making every
//     cached plan a prepared statement;
//   - the streaming pipeline (Query.Stream), whose pull-based cursors
//     give the HTTP response genuine backpressure: a slow client suspends
//     upstream enumeration instead of buffering the full result.
//
// Request lifecycle: admission semaphore → cache lookup/compile → bind
// check → stream rows as NDJSON, append-encoded into one per-request
// buffer under a fixed flush contract: the first row leaves the moment it
// is encoded, later records coalesce up to flushBytes, and no byte waits
// longer than flushDelay even if the producer stalls. Per-request
// deadlines and row budgets ride the existing context and LIMIT pushdown
// plumbing. Shutdown is two-phase: Drain stops admitting work while
// in-flight streams finish, Abort cancels their contexts.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"gpml"
	"gpml/internal/gql"
	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/qcache"
)

// Config configures a Server. The zero value of every field has a usable
// default.
type Config struct {
	// Catalog names the graphs queries may target. Required.
	Catalog *gql.Catalog
	// DefaultGraph is used when a request names none. Defaults to the
	// catalog's first registered graph.
	DefaultGraph string
	// CacheSize caps the compiled-plan LRU (default 256 entries).
	CacheSize int
	// MaxConcurrent caps concurrently evaluating queries; further
	// requests wait in the admission semaphore until a slot frees or
	// their deadline expires (default 8).
	MaxConcurrent int
	// MaxQueueDepth bounds the admission queue: once this many requests
	// are already waiting for a slot, further ones fast-fail with 503 and
	// a Retry-After header instead of stacking goroutines until their
	// deadlines expire. 0 means unbounded (the pre-existing behavior).
	MaxQueueDepth int
	// StartRecovering makes the server boot not-ready: /healthz and
	// /query answer 503 "recovering" until SetReady is called. gpmld sets
	// it while a durable store replays its WAL, so load balancers keep
	// the instance out of rotation until the graph is complete.
	StartRecovering bool
	// Durability, when set, is surfaced under /stats (WAL position,
	// checkpoint cut, recovery summary). gpmld passes the durable store.
	Durability graph.DurabilitySource
	// DefaultTimeout bounds requests that set no timeout_ms; 0 means no
	// deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines; 0 means no clamp.
	MaxTimeout time.Duration
	// MaxRows clamps request row limits and applies to requests that set
	// none; 0 means unlimited.
	MaxRows int
}

// Server is the HTTP query service. Create with New, expose via Handler.
type Server struct {
	cfg   Config
	cache *qcache.Cache
	sem   chan struct{}
	mux   *http.ServeMux

	rootCtx    context.Context
	rootCancel context.CancelFunc
	draining   atomic.Bool
	ready      atomic.Bool

	queries atomic.Uint64 // requests admitted to /query
	rows    atomic.Uint64 // rows written to clients across all requests
	queued  atomic.Int32  // requests waiting in the admission queue
	rejects atomic.Uint64 // requests fast-failed by the queue bound
}

// New builds a Server over a catalog of graphs.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("server: Config.Catalog is required")
	}
	if cfg.DefaultGraph == "" {
		names := cfg.Catalog.Names()
		if len(names) == 0 {
			return nil, errors.New("server: catalog has no graphs")
		}
		cfg.DefaultGraph = names[0]
	}
	if _, err := cfg.Catalog.Graph(cfg.DefaultGraph); err != nil {
		return nil, fmt.Errorf("server: default graph: %w", err)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      qcache.New(cfg.CacheSize),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		mux:        http.NewServeMux(),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	s.ready.Store(!cfg.StartRecovering)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// SetReady flips a StartRecovering server into service once its store
// has finished replaying. Idempotent.
func (s *Server) SetReady() { s.ready.Store(true) }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the compiled-plan cache (stats endpoints, epoch hooks,
// tests).
func (s *Server) Cache() *qcache.Cache { return s.cache }

// Drain stops admitting new queries: /query returns 503 and /healthz
// flips unhealthy so load balancers rotate the instance out, while
// in-flight streams keep running. Call before http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Abort cancels every in-flight query's context. Call when the drain
// grace period expires; streams end with a cancellation record and their
// handlers return, letting Shutdown complete.
func (s *Server) Abort() { s.rootCancel() }

// OnEpochPublished drops epoch-tagged cache entries older than seq.
// Compiled plans are epoch-independent for ordinary publishes (join
// ordering happens at stream time against the pinned snapshot), so this
// is NOT a per-publish hook — calling it on every mutation would gut the
// cache for no benefit. It exists for store-identity changes: after a
// crash recovery or a store swap, call it with the new store's epoch
// (graph.StoreEpoch) so plans prepared against the departed store are
// re-resolved rather than served stale.
func (s *Server) OnEpochPublished(seq uint64) int { return s.cache.InvalidateBelow(seq) }

// queryRequest is the JSON body of /query and /explain.
type queryRequest struct {
	Query     string                     `json:"query"`
	Graph     string                     `json:"graph,omitempty"`
	Params    map[string]json.RawMessage `json:"params,omitempty"`
	GQL       bool                       `json:"gql,omitempty"`
	TimeoutMS int64                      `json:"timeout_ms,omitempty"`
	Limit     int                        `json:"limit,omitempty"`
}

// errorBody is the JSON error payload, both as a non-200 response body
// and as the terminal NDJSON record of a stream that failed mid-flight.
type errorBody struct {
	Message string `json:"message"`
	Kind    string `json:"kind"` // bad_request | not_found | compile | bind | deadline | canceled | limit | internal | unavailable
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`
	// Diagnostic is the caret-style source excerpt for positioned errors.
	Diagnostic string `json:"diagnostic,omitempty"`
}

func classify(err error) errorBody {
	var lim *gpml.LimitError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errorBody{Message: "deadline exceeded", Kind: "deadline"}
	case errors.Is(err, context.Canceled):
		return errorBody{Message: "canceled", Kind: "canceled"}
	case errors.As(err, &lim):
		return errorBody{Message: err.Error(), Kind: "limit"}
	}
	b := errorBody{Message: err.Error(), Kind: "internal"}
	var bind *gpml.BindError
	if errors.As(err, &bind) {
		b.Kind = "bind"
	}
	if line, col, ok := gpml.ErrorPosition(err); ok {
		if b.Kind == "internal" {
			b.Kind = "compile"
		}
		b.Line, b.Col = line, col
	}
	return b
}

// compileError is the 400 body of a statement that failed to compile: a
// rejection without a source position is a compile error too, not an
// internal one.
func compileError(src string, err error) errorBody {
	body := classify(err)
	if body.Kind == "internal" {
		body.Kind = "compile"
	}
	body.Diagnostic = gpml.Diagnostic(src, err)
	return body
}

func writeError(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]errorBody{"error": body})
}

// decodeParams converts the request's JSON parameter values to property
// values: string, bool, null, and numbers (integral JSON numbers become
// INT, others FLOAT). Arrays and objects are rejected.
func decodeParams(raw map[string]json.RawMessage) (map[string]gpml.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]gpml.Value, len(raw))
	for name, rv := range raw {
		dec := json.NewDecoder(strings.NewReader(string(rv)))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("parameter $%s: %w", name, err)
		}
		switch x := v.(type) {
		case nil:
			out[name] = gpml.Null
		case string:
			out[name] = gpml.Str(x)
		case bool:
			out[name] = gpml.Bool(x)
		case json.Number:
			if i, err := x.Int64(); err == nil {
				out[name] = gpml.Int(i)
			} else {
				f, err := x.Float64()
				if err != nil {
					return nil, fmt.Errorf("parameter $%s: %v is not a number", name, x)
				}
				out[name] = gpml.Float(f)
			}
		default:
			return nil, fmt.Errorf("parameter $%s: unsupported JSON type (want string, number, bool, or null)", name)
		}
	}
	return out, nil
}

// prepared is the cache entry: one compiled query per (mode, normalized
// text) pair, shared by every request that binds it.
type prepared struct {
	q *gpml.Query
}

// prepare resolves a compiled query through the plan cache. The key is
// the token-normalized text (whitespace, comments, literal spelling and
// keyword case collapse) prefixed with the host mode, which changes
// expression typing rules and therefore plan identity. Entries are
// tagged with the target store's current epoch so InvalidateBelow can
// drop plans compiled against a superseded store — in particular, plans
// cached before a crash-recovery swapped the store out from under the
// server. Stores without an epoch notion tag 0, which InvalidateBelow
// never touches.
func (s *Server) prepare(st graph.Store, src string, gqlMode bool) (*gpml.Query, bool, error) {
	mode := "core"
	if gqlMode {
		mode = "gql"
	}
	key, err := normalize.QueryKey(src)
	if err != nil {
		return nil, false, err
	}
	key = mode + "\x00" + key
	if v, ok := s.cache.Get(key); ok {
		return v.(prepared).q, true, nil
	}
	var opts []gpml.Option
	if gqlMode {
		opts = append(opts, gpml.GQLMode())
	}
	q, err := gpml.Compile(src, opts...)
	if err != nil {
		return nil, false, err
	}
	s.cache.PutEpoch(key, prepared{q: q}, graph.StoreEpoch(st))
	return q, false, nil
}

// maxBodyBytes caps a /query or /explain body; a larger one is a 413.
const maxBodyBytes = 1 << 20

// parseRequest decodes and validates the shared /query//explain body.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*queryRequest, graph.Store, map[string]gpml.Value, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errorBody{Message: "POST required", Kind: "bad_request"})
		return nil, nil, nil, false
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, errorBody{Message: "invalid request body: " + err.Error(), Kind: "bad_request"})
		return nil, nil, nil, false
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, errorBody{Message: "missing query", Kind: "bad_request"})
		return nil, nil, nil, false
	}
	name := req.Graph
	if name == "" {
		name = s.cfg.DefaultGraph
	}
	st, err := s.cfg.Catalog.Graph(name)
	if err != nil {
		writeError(w, http.StatusNotFound, errorBody{Message: err.Error(), Kind: "not_found"})
		return nil, nil, nil, false
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Message: err.Error(), Kind: "bad_request"})
		return nil, nil, nil, false
	}
	return &req, st, params, true
}

// requestContext derives the evaluation context: the client disconnect
// (via r.Context), the server Abort root, and the request deadline.
func (s *Server) requestContext(r *http.Request, req *queryRequest) (context.Context, context.CancelFunc) {
	ctx, cancel := mergeCancel(r.Context(), s.rootCtx)
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (d == 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d > 0 {
		tctx, tcancel := context.WithTimeout(ctx, d)
		return tctx, func() { tcancel(); cancel() }
	}
	return ctx, cancel
}

// mergeCancel returns a context following parent that is also cancelled
// when other is.
func mergeCancel(parent, other context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(other, cancel)
	return ctx, func() { stop(); cancel() }
}

// admit reserves an evaluation slot, enforcing the queue bound. On true
// the caller owns a slot and must release it with <-s.sem; on false a
// 503 has already been written.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}: // free slot: no queueing at all
		return true
	default:
	}
	if max := s.cfg.MaxQueueDepth; max > 0 {
		// Add-then-check keeps the bound exact under concurrent arrivals:
		// whichever request pushes the count past max is the one bounced.
		if n := s.queued.Add(1); int(n) > max {
			s.queued.Add(-1)
			s.rejects.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errorBody{Message: "admission queue full", Kind: "unavailable"})
			return false
		}
	} else {
		s.queued.Add(1)
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		writeError(w, http.StatusServiceUnavailable, errorBody{Message: "admission wait: " + ctx.Err().Error(), Kind: "unavailable"})
		return false
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errorBody{Message: "server is draining", Kind: "unavailable"})
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errorBody{Message: "server is recovering", Kind: "unavailable"})
		return
	}
	req, st, params, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req)
	defer cancel()
	defer recoverQuery(w, "/query", nil)

	// Admission: heavy work (compile included — a cache miss plans the
	// query) waits for a slot so a burst degrades to queueing, not to a
	// thundering herd of concurrent enumerations — and the queue itself
	// is bounded so a sustained overload fast-fails instead of parking
	// one goroutine per excess request until deadlines fire.
	if !s.admit(ctx, w) {
		return
	}
	defer func() { <-s.sem }()
	s.queries.Add(1)

	q, cached, err := s.prepare(st, req.Query, req.GQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, compileError(req.Query, err))
		return
	}

	limit := req.Limit
	if s.cfg.MaxRows > 0 && (limit == 0 || limit > s.cfg.MaxRows) {
		limit = s.cfg.MaxRows
	}
	opts := []gpml.Option{gpml.WithStore(st)}
	if limit > 0 {
		opts = append(opts, gpml.WithLimit(limit))
	}
	if params != nil {
		opts = append(opts, gpml.WithParams(params))
	}
	rows, err := q.Stream(ctx, nil, opts...)
	if err != nil {
		status := http.StatusBadRequest
		body := classify(err)
		if body.Kind == "deadline" || body.Kind == "canceled" {
			status = http.StatusServiceUnavailable
		}
		if d := gpml.Diagnostic(req.Query, err); d != "" {
			body.Diagnostic = d
		}
		writeError(w, status, body)
		return
	}
	// The stream runs on ctx: a deadline, a drain or a departed client
	// cancels it, and the cut surfaces through rows.Err.
	defer rows.Close()

	s.streamNDJSON(w, q.Columns(), rows, cached, limit)
}

// ndjsonHeader opens every stream: column order plus plan-cache
// provenance.
type ndjsonHeader struct {
	Columns []string `json:"columns"`
	Cached  bool     `json:"cached"`
}

// ndjsonTrailer ends every successful stream.
type ndjsonTrailer struct {
	Rows      int  `json:"rows"`
	Truncated bool `json:"truncated,omitempty"` // row budget cut the stream
}

// The stream's flush policy: the first row is written the moment it is
// encoded; after it records coalesce until flushBytes are pending, and a
// timer started by the first pending byte writes whatever has waited
// flushDelay, however long the producer takes over its next row.
const (
	flushBytes = 24 << 10
	flushDelay = 2 * time.Millisecond
)

// rowStream is what streamNDJSON needs of *gpml.Rows; tests substitute a
// scripted producer.
type rowStream interface {
	Next() bool
	Row() *gpml.Row
	Err() error
	Close() error
}

// ndjsonWriter append-encodes a stream's records into one buffer written
// under the flush policy. mu orders the handler's appends against the
// timer's flush; a Write blocked on a slow client holds mu, which suspends
// the pull loop and with it all upstream enumeration.
type ndjsonWriter struct {
	mu     sync.Mutex
	w      http.ResponseWriter
	total  *atomic.Uint64 // the server's row counter, bumped per flush
	buf    []byte
	rows   uint64      // row records pending in buf
	timer  *time.Timer // running while bytes are pending
	closed bool        // the handler has returned: w must not be touched
	wrote  bool        // bytes have reached w: the status is committed
	err    error       // first write error; the stream is dead after it
}

// flush writes the pending bytes and stops the timer (which calls it when
// bytes have waited flushDelay; the handler's last call is final). It
// reports whether the stream is still writable.
func (nw *ndjsonWriter) flush(final bool) bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.closed && nw.err == nil && len(nw.buf) > 0 {
		nw.wrote = true
		if _, nw.err = nw.w.Write(nw.buf); nw.err == nil {
			if f, ok := nw.w.(http.Flusher); ok {
				f.Flush()
			}
			nw.total.Add(nw.rows)
		}
	}
	nw.buf, nw.rows, nw.closed = nw.buf[:0], 0, nw.closed || final
	if nw.timer != nil {
		nw.timer.Stop()
	}
	return nw.err == nil
}

// record appends one record (rows of which are row records: 0 or 1) and
// applies the flush policy: written at once when now is set or the buffer
// is full, within flushDelay otherwise.
func (nw *ndjsonWriter) record(now bool, rows uint64, encode func(dst []byte) []byte) bool {
	ok, full := nw.add(now, rows, encode)
	if full {
		return nw.flush(false)
	}
	return ok
}

// add appends one record under mu, which a panicking encode releases.
func (nw *ndjsonWriter) add(now bool, rows uint64, encode func(dst []byte) []byte) (ok, full bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.buf) == 0 && !now {
		nw.timer = time.AfterFunc(flushDelay, func() { nw.flush(false) })
	}
	nw.buf, nw.rows = append(encode(nw.buf), '\n'), nw.rows+rows
	ok, full = nw.err == nil, now || len(nw.buf) >= flushBytes
	return ok, full
}

// abandon discards the pending bytes and closes the writer if none has
// reached w yet, reporting whether it did, so the caller may still send a
// different status.
func (nw *ndjsonWriter) abandon() bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.wrote {
		return false
	}
	nw.buf, nw.rows, nw.closed = nw.buf[:0], 0, true
	if nw.timer != nil {
		nw.timer.Stop()
	}
	return true
}

// recoverQuery, deferred by the /query, /explain and /stats handlers, turns a
// panic into an error the client can read and logs its stack under the
// handler's route, so one bad request cannot take the process down. Before the first byte (nw nil, or
// nothing flushed yet) the answer is a 500 JSON error. After it, the
// status is sent, so the stream ends with an NDJSON error record and the
// connection is closed instead of completing the response.
func recoverQuery(w http.ResponseWriter, route string, nw *ndjsonWriter) {
	p := recover()
	if p == nil {
		return
	}
	if p == http.ErrAbortHandler {
		panic(p) // already handled by the stream's own recoverQuery
	}
	log.Printf("server: panic serving %s: %v\n%s", route, p, debug.Stack())
	body := errorBody{Message: "internal error", Kind: "internal"}
	if nw == nil || nw.abandon() {
		writeError(w, http.StatusInternalServerError, body)
		return
	}
	nw.record(true, 0, jsonRecord(map[string]errorBody{"error": body}))
	panic(http.ErrAbortHandler)
}

// jsonRecord encodes a header, trailer or error record: one per stream.
func jsonRecord(v any) func(dst []byte) []byte {
	b, _ := json.Marshal(v) // the record types cannot fail to marshal
	return func(dst []byte) []byte { return append(dst, b...) }
}

// appendJSONString appends s as a JSON string literal, byte for byte what
// json.Encoder emits (since Go 1.22) with its default HTML escaping: \" \\
// \b \f \n \r \t, \u00XX for other control characters and < > &, \u2028
// and \u2029 escaped, each invalid UTF-8 byte replaced by \ufffd.
func appendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	for len(s) > 0 {
		n := 0 // the leading run that needs no escaping, copied in one piece
		for n < len(s) && s[n] >= 0x20 && s[n] < utf8.RuneSelf && s[n] != '"' && s[n] != '\\' && s[n] != '<' && s[n] != '>' && s[n] != '&' {
			n++
		}
		dst = append(dst, s[:n]...)
		if s = s[n:]; len(s) == 0 {
			break
		}
		r, size := utf8.DecodeRune(s)
		switch short := strings.IndexRune("\"\\\b\f\n\r\t", r); {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case short >= 0:
			dst = append(dst, '\\', `"\bfnrt`[short])
		case r < utf8.RuneSelf || r == '\u2028' || r == '\u2029':
			dst = fmt.Appendf(dst, `\u%04x`, r)
		default:
			dst = append(dst, s[:size]...)
		}
		s = s[size:]
	}
	return append(dst, '"')
}

// streamNDJSON writes header, one record per row, and a trailer (or an
// error record) under ndjsonWriter's flush policy. A failed write ends the
// stream at once: no further row is pulled and rows is closed.
func (s *Server) streamNDJSON(w http.ResponseWriter, cols []string, rows rowStream, cached bool, limit int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	nw := &ndjsonWriter{w: w, total: &s.rows}
	defer nw.flush(true)
	defer recoverQuery(w, "/query", nw)
	nw.record(false, 0, jsonRecord(ndjsonHeader{Columns: cols, Cached: cached}))
	n := 0
	var row *gpml.Row
	var cell []byte // scratch for one cell's text
	encodeRow := func(dst []byte) []byte {
		dst = append(dst, `{"row":[`...)
		for i, c := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			cell = row.AppendCell(cell[:0], c)
			dst = appendJSONString(dst, cell)
		}
		return append(dst, "]}"...)
	}
	for rows.Next() {
		row = rows.Row()
		if n++; !nw.record(n == 1, 1, encodeRow) {
			rows.Close() // client went away: stop upstream now
			return
		}
	}
	var last any = ndjsonTrailer{Rows: n, Truncated: limit > 0 && n == limit}
	if err := rows.Err(); err != nil {
		last = map[string]errorBody{"error": classify(err)}
	}
	nw.record(true, 0, jsonRecord(last))
}

// explainResponse is the /explain payload.
type explainResponse struct {
	Normalized string   `json:"normalized"`
	Columns    []string `json:"columns"`
	Params     []string `json:"params,omitempty"`
	Plan       []string `json:"plan"`
	Cached     bool     `json:"cached"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, st, _, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	defer recoverQuery(w, "/explain", nil)
	q, cached, err := s.prepare(st, req.Query, req.GQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, compileError(req.Query, err))
		return
	}
	resp := explainResponse{
		Normalized: q.Normalized(),
		Columns:    q.Columns(),
		Params:     q.Params(),
		Plan:       q.Explain(gpml.WithStore(st)),
		Cached:     cached,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// statsResponse is the /stats payload.
type statsResponse struct {
	Cache      qcache.Stats           `json:"cache"`
	HitRatio   float64                `json:"hit_ratio"`
	Queries    uint64                 `json:"queries"`
	Rows       uint64                 `json:"rows"`
	Graphs     []string               `json:"graphs"`
	Draining   bool                   `json:"draining"`
	Recovering bool                   `json:"recovering"`
	QueueDepth int32                  `json:"queue_depth"`
	Rejected   uint64                 `json:"rejected"`
	Durability *graph.DurabilityStats `json:"durability,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	defer recoverQuery(w, "/stats", nil)
	cs := s.cache.Stats()
	names := s.cfg.Catalog.Names()
	sort.Strings(names)
	resp := statsResponse{
		Cache:      cs,
		HitRatio:   cs.HitRatio(),
		Queries:    s.queries.Load(),
		Rows:       s.rows.Load(),
		Graphs:     names,
		Draining:   s.draining.Load(),
		Recovering: !s.ready.Load(),
		QueueDepth: s.queued.Load(),
		Rejected:   s.rejects.Load(),
	}
	if s.cfg.Durability != nil {
		ds := s.cfg.Durability.DurabilityStats()
		resp.Durability = &ds
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
		return
	}
	fmt.Fprintln(w, "ok")
}
