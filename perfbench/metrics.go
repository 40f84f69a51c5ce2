package main

// metrics.go is the metric catalogue: every name, unit and direction in
// BENCHMARK.json (a self-test keeps the two equal), plus, for each
// per-layer metric, the end-to-end metric and workload it should move.
// BENCHMARK.json has no field for that mapping, so it lives here and is
// printed next to every value.

type metricDef struct {
	name, unit, better string
	// moves says which end-to-end metric the value should move, on which
	// workload, and where it should stay flat.
	moves string
}

// endToEnd metrics are reported by every workload. An operation is one
// solve on sparse-100k and one request on serve-*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "sparse-100k: median time to load the pool with graph.BuildCSR from the generated edge arrays; serve-*: median of server.New to the last warm-up response"},
	{"solve_s", "s", "lower", "sparse-100k: median of the timed solves, each rho + k-matching solve + verify, the first of each pool graph cold; serve-*: wall time of the whole request list"},
	{"throughput_rps", "1/s", "higher", "operations completed per second of the timed work"},
	{"p50_ms", "ms", "lower", "median operation latency, nearest rank"},
	{"p99_ms", "ms", "lower", "99th-percentile operation latency, nearest rank"},
	{"peak_rss_mb", "MiB", "lower", "peak resident set of the workload process"},
}

// perLayer metrics are reported by traced runs. "/op" is per request on
// serve-* and per solve on sparse-100k; a metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{"graph.build_csr_ms", "ms", "lower", "setup_s on sparse-100k (flat on serve-*)"},
	{"graph.bipartition_ms", "ms", "lower", "solve_s on sparse-100k"},
	{"graph.bipartitions_per_solve", "count", "lower", "solve_s on sparse-100k (2 today: rho and the partition each 2-colour)"},
	{"matching.hk_ms", "ms", "lower", "solve_s on sparse-100k (flat on serve-*)"},
	{"matching.hk_subgraph_ms", "ms", "lower", "solve_s on sparse-100k: the partition's second matching"},
	{"matching.csr_phases_per_solve", "count", "lower", "solve_s on sparse-100k"},
	{"cover.edge_cover_ms", "ms", "lower", "solve_s on sparse-100k"},
	{"cover.partition_ms", "ms", "lower", "solve_s on sparse-100k"},
	{"core.atuple_ms", "ms", "lower", "solve_s on sparse-100k"},
	{"core.verify_ms", "ms", "lower", "solve_s on sparse-100k"},
	{"par.tasks_per_solve", "count", "lower", "setup_s and solve_s on sparse-100k (0 on serve-*)"},
	{"par.tasks_inline_per_solve", "count", "lower", "setup_s and solve_s on sparse-100k (0 on serve-*)"},
	{"graph.parse_ms", "ms", "lower", "p50_ms and throughput_rps on serve-hit and serve-miss"},
	{"graph.canon_ms", "ms", "lower", "p50_ms and throughput_rps on serve-hit and serve-miss"},
	{"cover.rho_ms", "ms", "lower", "p50_ms on serve-miss; throughput_rps and p99_ms on serve-lp (flat on serve-hit)"},
	{"core.solve_any_ms", "ms", "lower", "p50_ms on serve-miss; throughput_rps and p99_ms on serve-lp (flat on serve-hit)"},
	{"core.game_value_ms", "ms", "lower", "p50_ms on serve-miss; throughput_rps and p99_ms on serve-lp (flat on serve-hit)"},
	{"core.family.k-matching", "ratio", "higher", "share of responses; explains p50_ms/p99_ms moves on serve-lp and serve-miss, unchanged unless a change says why"},
	{"core.family.perfect-matching", "ratio", "higher", "share of responses; explains p50_ms/p99_ms moves on serve-lp and serve-miss"},
	{"core.family.regular", "ratio", "higher", "share of responses; explains p50_ms/p99_ms moves on serve-lp and serve-miss"},
	{"core.family.lp-minimax", "ratio", "lower", "share of responses; explains p50_ms/p99_ms moves on serve-lp and serve-miss"},
	{"matching.blossom_searches_per_op", "count/op", "lower", "p50_ms on serve-miss"},
	{"matching.hk_phases_per_op", "count/op", "lower", "p50_ms on serve-miss"},
	{"lp.solves_per_op", "count/op", "lower", "throughput_rps and p99_ms on serve-lp (0 on serve-miss and sparse-100k)"},
	{"lp.pivots_per_op", "count/op", "lower", "throughput_rps and p99_ms on serve-lp (0 on serve-miss and sparse-100k)"},
	{"server.handler_ms_p50", "ms", "lower", "p50_ms on serve-hit"},
	{"server.transport_ms_p50", "ms", "lower", "p50_ms on serve-hit"},
	{"server.decode_ms", "ms", "lower", "throughput_rps on serve-hit"},
	{"server.encode_ms", "ms", "lower", "throughput_rps on serve-hit"},
	{"server.response_kb", "KiB", "lower", "throughput_rps on serve-hit"},
	{"server.cache.hit_ratio", "ratio", "higher", "1 on serve-hit and 0 on the others, by invariant"},
	{"server.cache.entries", "count", "lower", "peak_rss_mb on serve-miss: the cache never evicts"},
	{"broker.queue_wait_ms_p50", "ms", "lower", "p50_ms and p99_ms on serve-miss and serve-lp"},
	{"broker.run_ms_p50", "ms", "lower", "p50_ms and p99_ms on serve-miss and serve-lp"},
	{"broker.rejected", "count", "lower", "0 by invariant; a rejection is an error"},
	{"runtime.alloc_mb_per_op", "MiB/op", "lower", "p99_ms and peak_rss_mb on every workload"},
	{"runtime.gc_cycles_per_op", "count/op", "lower", "p99_ms and peak_rss_mb on every workload"},
	{"error_rate", "ratio", "lower", "(transport errors + non-200 + failed checks) / attempted; 0 or the run fails"},
	{"trace.coverage", "ratio", "higher", "sanity: layer self time / untraced end-to-end time of the same work"},
	{"trace.overhead_pct", "%", "lower", "sanity: traced replay vs untraced run of the same work"},
}
