package main

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the served system sees, per workload. The
// bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression: the contract's largest
// everywhere, because this shared two-core guest loses 5–35 % of its CPU
// to other guests for minutes at a time, and a ten-run set with a third
// of its runs in such a spell spreads by 17–20 % whatever is measured.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"first_row_p50_ms", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.25},
	{"write_batch_p50_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayer is what the traced pass reports: one layer each, no bound.
var perLayer = []metricDef{
	{Name: "lexer.tokenize_us", Unit: "us", Better: "lower"},
	{Name: "lexer.tokens_per_query", Unit: "count", Better: "lower"},
	{Name: "parser.parse_us", Unit: "us", Better: "lower"},
	{Name: "normalize.normalize_us", Unit: "us", Better: "lower"},
	{Name: "normalize.querykey_us", Unit: "us", Better: "lower"},
	{Name: "plan.analyze_us", Unit: "us", Better: "lower"},
	{Name: "plan.orderjoin_us", Unit: "us", Better: "lower"},
	{Name: "automaton.compile_us", Unit: "us", Better: "lower"},
	{Name: "automaton.states", Unit: "count", Better: "lower"},
	{Name: "core.compile_us", Unit: "us", Better: "lower"},
	{Name: "core.compile_pieces_us", Unit: "us", Better: "lower"},
	{Name: "qcache.get_us", Unit: "us", Better: "lower"},
	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower"},
	{Name: "eval.open_us", Unit: "us", Better: "lower"},
	{Name: "eval.first_row_us", Unit: "us", Better: "lower"},
	{Name: "eval.drain_us", Unit: "us", Better: "lower"},
	{Name: "eval.enumerate_us", Unit: "us", Better: "lower"},
	{Name: "eval.raw_matches", Unit: "count", Better: "lower"},
	{Name: "eval.match_pattern_us", Unit: "us", Better: "lower"},
	{Name: "eval.collect_sort_us", Unit: "us", Better: "lower"},
	{Name: "eval.rows_per_raw_match", Unit: "ratio", Better: "higher"},
	{Name: "eval.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "eval.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "binding.reduce_us_per_1k", Unit: "us", Better: "lower"},
	{Name: "binding.key_us_per_1k", Unit: "us", Better: "lower"},
	{Name: "binding.dedup_us_per_1k", Unit: "us", Better: "lower"},
	{Name: "binding.sort_us_per_1k", Unit: "us", Better: "lower"},
	{Name: "graph.json_load_s", Unit: "s", Better: "lower"},
	{Name: "graph.snapshot_build_s", Unit: "s", Better: "lower"},
	{Name: "graph.store_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "graph.label_scan_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "graph.step_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.overlay_step_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.pin_us", Unit: "us", Better: "lower"},
	{Name: "graph.apply_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "graph.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "graph.compactions", Unit: "count", Better: "higher"},
	{Name: "graph.recover_load_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.recover_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_mut", Unit: "B", Better: "lower"},
	{Name: "wal.replay_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "gpml.row_materialize_us_per_row", Unit: "us", Better: "lower"},
	{Name: "server.overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "server.ndjson_us_per_row", Unit: "us", Better: "lower"},
	{Name: "server.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "server.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "write.batch_p98_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.writer_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.frontend_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.engine_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.driver_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// measured is one reported value. Samples is how many observations the
// value summarizes (0 for a count or a ratio read once).
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}
