// Package obs is the engine's observability layer: lock-cheap
// fixed-bucket histograms, a Prometheus text-exposition registry, a
// Chrome trace_event timeline, structured-logging setup, and a
// core.Tracer implementation tying them to the check pipeline.
//
// The paper's whole argument is *where the time goes* — which checks
// fall through to case analysis, how many propagations and backtracks
// each stage burns (Table 1). Tracer is the engine's only telemetry
// sink: its snapshot answers "how much total" (the -stats line of the
// CLIs) and the distributional questions a serving deployment asks,
// through one Registry rendered as the Prometheus exposition:
// per-stage latency percentiles (ltta_stage_duration_seconds), how
// skewed the propagation cost is across checks
// (ltta_check_propagations). ClusterTrace is the one timeline
// recorder: ltta -trace-out, lttad -trace-dir on a worker and on a
// coordinator all write it, and ClusterTrace.Check is the one
// conversion of a finished check into spans, so a parallel sweep
// renders in Perfetto as overlapping check spans with their stages
// nested.
//
// Everything here is stdlib-only and safe for concurrent use; the
// histogram hot path is a bounded binary search plus two atomic adds,
// so one shared Tracer can sit behind every worker of a parallel
// RunAll without serialising them.
package obs
