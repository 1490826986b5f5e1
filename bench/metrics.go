package main

// metricSpec declares one metric the benchmark prints. This table is the
// source of truth: BENCHMARK.json must list the same names, units and
// directions (TestBenchmarkJSONMatchesSpecs).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of lttad sees, printed by every
// untraced run on every workload. How each workload defines a batch, a
// check and a pass is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"checks_per_s", "1/s", "higher"},
	{"batch_p50_ms", "ms", "lower"},
	{"batch_p90_ms", "ms", "lower"},
	{"pass_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics a traced run prints. A layer a
// workload does not exercise reads 0 with n=0.
var perLayer = []metricSpec{
	{"circuit.parse_ms", "ms", "lower"},
	{"registry.hash_us", "us", "lower"},
	{"core.prepare_ms", "ms", "lower"},
	{"delay.analysis_us", "us", "lower"},
	{"scoap.compute_us", "us", "lower"},
	{"circuit.stems_us", "us", "lower"},
	{"learn.precompute_ms", "ms", "lower"},
	{"circuit.cone_us", "us", "lower"},
	{"registry.misses", "count", "lower"},
	{"registry.prepares", "count", "lower"},
	{"registry.evictions", "count", "lower"},
	{"registry.hit_ratio", "ratio", "higher"},
	{"server.netlist_parses", "count", "lower"},
	{"core.fixpoint_us", "us", "lower"},
	{"core.gitd_us", "us", "lower"},
	{"core.stems_us", "us", "lower"},
	{"core.casean_ms", "ms", "lower"},
	{"constraint.propagations", "count", "lower"},
	{"core.check_us", "us", "lower"},
	{"core.backtracks", "count", "lower"},
	{"api.encode_us", "us", "lower"},
	{"client.decode_us", "us", "lower"},
	{"server.ttfb_ms", "ms", "lower"},
	{"server.batch_ms", "ms", "lower"},
	{"server.http_overhead_ms", "ms", "lower"},
	{"server.pool_busy_ratio", "ratio", "higher"},
	{"coord.dispatch_ms", "ms", "lower"},
	{"coord.merge_ms", "ms", "lower"},
	{"coord.fanout", "count", "lower"},
	{"coord.requeues", "count", "lower"},
	{"coord.hedges", "count", "lower"},
	{"coord.duplicates_dropped", "count", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"attribution.remainder_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, n int) {
	m[name] = metric{Value: value, Unit: unitOf(name), N: n}
}

// unitOf looks a declared metric's unit up; undeclared names are a bug.
func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	panic("bench: undeclared metric " + name)
}
