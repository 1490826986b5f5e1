package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
)

// outcome is everything one workload run measured.
type outcome struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	tally
	Metrics     metricSet
	Tails       []string  // the percentile rule applied to each timing
	Attribution []attrRow // traced runs: the latency split into blocking steps
	AttrUnit    string
	TraceFile   string
}

type attrRow struct {
	Layer string
	Ms    float64
}

// attrStep is one blocking step of a request (or pass): its name and its
// length in ms on request i.
type attrStep struct {
	Layer string
	Of    func(i int) float64
}

func newOutcome(cfg config) *outcome {
	return &outcome{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Metrics: metricSet{}}
}

func (o *outcome) merge(t tally) {
	o.Attempted += t.Attempted
	o.Failed += t.Failed
	for _, p := range t.Problems {
		if len(o.Problems) < keptProblems {
			o.Problems = append(o.Problems, p)
		}
	}
}

// timing notes a timing's sample count, median and the highest
// percentile the sample supports, and returns that summary.
func (o *outcome) timing(label string, xs []float64) dist {
	d := summarize(xs)
	note := fmt.Sprintf("%s: n=%d p50=%.4g ms, highest supported percentile %s", label, d.N, d.P50, levelName(d.TailP))
	if d.TailP > 0.5 {
		note += fmt.Sprintf(" = %.4g ms", d.Tail)
	}
	o.Tails = append(o.Tails, note)
	return d
}

// batchTiming notes the batch latencies and records their median and
// p90 as batch_p50_ms and batch_p90_ms.
func (o *outcome) batchTiming(label string, xs []float64) {
	d := o.timing(label, xs)
	o.Metrics.set("batch_p50_ms", d.P50, d.N)
	o.Metrics.set("batch_p90_ms", percentile(sortedCopy(xs), 0.90), d.N)
	if d.TailP < 0.90 {
		o.Tails[len(o.Tails)-1] += fmt.Sprintf(" (batch_p90_ms below %d samples beyond it)", minBeyond)
	}
}

// addServed records the end-to-end metrics of a served window. Check
// latency (request sent → that check's line) is noted in the report but
// is no end-to-end metric: with one connection it is the batch latency
// cut short, and it moves with it.
func (o *outcome) addServed(s *servedSamples, passes []float64, rssMB float64) {
	o.merge(s.tally)
	o.Metrics.set("checks_per_s", float64(s.Checks)/s.Window.Seconds(), s.Checks)
	o.batchTiming("batch latency", s.BatchMs)
	o.timing("check latency", s.CheckMs)
	o.Metrics.set("pass_s", median(passes), len(passes))
	o.Metrics.set("rss_peak_mb", rssMB, 1)
}

// addTracedServed records the per-layer metrics of a traced served
// window and its attribution report.
func (o *outcome) addTracedServed(plain, traced *servedSamples, before, after []promSample, dep *deployment, lt []layerSample, poolWidth int) {
	o.merge(traced.tally)
	m := o.Metrics
	layerMetrics(m, lt)
	delta := func(name string) float64 { return counterDelta(before, after, name, nil) }
	hits, misses := delta("lttad_registry_hits_total"), delta("lttad_registry_misses_total")
	m.set("registry.misses", misses, 1)
	m.set("registry.prepares", delta("lttad_registry_prepares_total"), 1)
	m.set("registry.evictions", delta("lttad_registry_evictions_total"), 1)
	if hits+misses > 0 {
		m.set("registry.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	m.set("server.netlist_parses",
		delta("lttad_netlist_parses_total")+delta("lttad_coord_netlist_parses_total"), 1)
	engineMetrics(m, traced.StageUs, traced.CheckUs, traced.Propagations)
	m.set("client.decode_us", median(traced.DecodeUs), len(traced.DecodeUs))
	m.set("server.ttfb_ms", median(traced.TTFBMs), len(traced.TTFBMs))
	m.set("server.batch_ms", median(traced.ServerBatchMs), len(traced.ServerBatchMs))
	m.set("server.http_overhead_ms", median(traced.HTTPOverheadMs), len(traced.HTTPOverheadMs))
	m.set("server.pool_busy_ratio",
		traced.EngineUsTotal/(float64(traced.Window.Microseconds())*float64(poolWidth)), traced.Checks)
	if dep.coord != nil {
		var disp, merge []float64
		for _, p := range traced.PerBatch {
			if p.ProxySpans {
				disp = append(disp, p.Dispatch)
				merge = append(merge, p.Merge)
			}
		}
		m.set("coord.dispatch_ms", median(disp), len(disp))
		m.set("coord.merge_ms", median(merge), len(merge))
		if batches := delta("lttad_coord_batches_accepted_total"); batches > 0 {
			primary := counterDelta(before, after, "lttad_coord_shard_dispatches_total", obs.Labels{"kind": "primary"})
			m.set("coord.fanout", primary/batches, int(batches))
		}
		m.set("coord.requeues", delta("lttad_coord_requeued_checks_total"), 1)
		m.set("coord.hedges", delta("lttad_coord_hedged_checks_total"), 1)
		m.set("coord.duplicates_dropped", delta("lttad_coord_duplicate_results_dropped_total"), 1)
	}
	if len(traced.LateMs) > 0 && o.Workload == wlCold {
		m.set("loadgen.late_p99_ms", percentile(sortedCopy(traced.LateMs), 0.99), len(traced.LateMs))
	}
	m.set("trace.overhead_ratio", median(traced.BatchMs)/median(plain.BatchMs)-1, len(traced.BatchMs))
	attachOverlap(traced)
	o.attributeServed(traced, m["api.encode_us"].Value, poolWidth, dep.coord != nil)
}

// engineMetrics records the engine layers: per-stage time over the
// checks that ran the stage (µs; case analysis in ms), check wall time,
// and propagations per check.
func engineMetrics(m metricSet, stageUs [core.NumStages][]float64, checkUs, props []float64) {
	names := [core.NumStages]string{"core.fixpoint_us", "core.gitd_us", "core.stems_us", "core.casean_ms"}
	for st, xs := range stageUs {
		v := median(xs)
		if core.Stage(st) == core.StageCase {
			v /= 1e3
		}
		if len(xs) > 0 {
			m.set(names[st], v, len(xs))
		}
	}
	m.set("core.check_us", median(checkUs), len(checkUs))
	m.set("constraint.propagations", median(props), len(props))
}

// addBacktracks records the backtracks of one pass over the workload's
// distinct checks — an exact count for a given seed.
func (o *outcome) addBacktracks(refs refTable) {
	total := 0
	for _, r := range refs {
		total += max(r.Want.Backtracks, 0)
	}
	o.Metrics.set("core.backtracks", float64(total), len(refs))
}

// attributeServed splits request latency into the blocking steps
// batchParts measures. Engine and encode time run on a pool of width
// workers, so they block a request for their sum over the width.
func (o *outcome) attributeServed(s *servedSamples, encodeUs float64, width int, cluster bool) {
	var parts []batchParts
	for _, p := range s.PerBatch {
		if !cluster || p.ProxySpans {
			parts = append(parts, p)
		}
	}
	step := func(name string, f func(p batchParts) float64) attrStep {
		return attrStep{name, func(i int) float64 { return f(parts[i]) }}
	}
	w := float64(width)
	var steps []attrStep
	if o.Workload == wlCold {
		steps = append(steps,
			step("generator lateness (due → sent)", func(p batchParts) float64 { return p.LateMs }),
			step("upload round trip", func(p batchParts) float64 { return p.UploadMs }))
	}
	if cluster {
		steps = append(steps,
			step("coordinator dispatch (sent → first shard at a worker)", func(p batchParts) float64 { return p.Dispatch }),
			step("worker wait (first shard → first check starts)", func(p batchParts) float64 { return p.WorkerWait }))
	} else {
		steps = append(steps,
			step("start (sent → first check starts: HTTP, admission, pool wait)", func(p batchParts) float64 { return p.StartMs }))
	}
	for st := 0; st < core.NumStages; st++ {
		steps = append(steps, step(fmt.Sprintf("engine %s ÷ %d workers", core.Stage(st), width),
			func(p batchParts) float64 { return p.StageMs[st] / w }))
	}
	steps = append(steps,
		step(fmt.Sprintf("engine outside the stages ÷ %d workers", width), func(p batchParts) float64 { return p.OutsideMs / w }),
		step(fmt.Sprintf("encode ÷ %d workers", width), func(p batchParts) float64 { return float64(p.Checks) * encodeUs / 1e3 / w }),
		step(fmt.Sprintf("other batches' checks ÷ %d workers", width), func(p batchParts) float64 { return p.OthersMs / w }))
	if cluster {
		steps = append(steps,
			step("worker emit (last check ends → last worker done line)", func(p batchParts) float64 { return p.WorkerEmit }),
			step("coordinator merge (→ client done line)", func(p batchParts) float64 { return p.Merge }))
	} else {
		steps = append(steps, step("emit (last check ends → done line read)", func(p batchParts) float64 { return p.EmitMs }))
	}
	o.setAttribution("request", "requests", len(parts), func(i int) float64 { return parts[i].LatencyMs }, steps)
}

// setAttribution splits the typical latency into steps: it takes the
// requests (or passes) whose latency ranks between p45 and p55, at
// least the median one, and reports each step's mean over them beside
// their mean latency. Means over one slice add up, so the remainder is
// exactly the time no step measured; medians taken step by step would
// not add up. The remainder is also the attribution.remainder_ms metric.
func (o *outcome) setAttribution(unit, units string, n int, latency func(i int) float64, steps []attrStep) {
	if n == 0 {
		return
	}
	idx := make([]int, n)
	all := make([]float64, n)
	for i := range idx {
		idx[i], all[i] = i, latency(i)
	}
	sort.Slice(idx, func(a, b int) bool { return all[idx[a]] < all[idx[b]] })
	lo := n * 45 / 100
	slice := idx[lo:max(n*55/100, lo+1)]
	mean := func(f func(int) float64) float64 {
		sum := 0.0
		for _, i := range slice {
			sum += f(i)
		}
		return sum / float64(len(slice))
	}
	e2e := mean(latency)
	o.AttrUnit = fmt.Sprintf("per %s: means over the %d of %d %s between p45 and p55 of latency, ms", unit, len(slice), n, units)
	o.Attribution = []attrRow{{"end-to-end median (all " + units + ")", median(all)}, {"end-to-end (mean over the slice)", e2e}}
	rest := e2e
	for _, st := range steps {
		v := mean(st.Of)
		rest -= v
		o.Attribution = append(o.Attribution, attrRow{st.Layer, v})
	}
	o.Attribution = append(o.Attribution, attrRow{"remainder", rest})
	o.Metrics.set("attribution.remainder_ms", rest, len(slice))
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the result line: every end-to-end metric with the trace
// off, every per-layer one with it on. A layer the workload does not
// exercise reads 0.
func (o *outcome) result() result {
	specs := endToEnd
	if o.Trace {
		specs = perLayer
	}
	r := result{Correct: o.correct(), Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]resultMetric{}}
	for _, s := range specs {
		v := o.Metrics[s.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[s.Name] = resultMetric{v, s.Unit}
	}
	return r
}

// correct reports whether every operation answered correctly.
func (o *outcome) correct() bool { return o.Attempted > 0 && o.Failed == 0 }

// print writes the human-readable report and, as the last line, the
// result object.
func (o *outcome) print(w io.Writer) error {
	trace := "off"
	if o.Trace {
		trace = "on"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %s\n", o.Workload, o.Seed, o.Seconds, trace)
	row := func(s metricSpec) {
		m, ok := o.Metrics[s.Name]
		if !ok {
			fmt.Fprintf(w, "  %-26s %14s %-6s n=0 (layer not exercised)\n", s.Name, "0", s.Unit)
			return
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%d\n", s.Name, m.Value, s.Unit, m.N)
	}
	fmt.Fprintln(w, "end to end (untraced window):")
	for _, s := range endToEnd {
		row(s)
	}
	fmt.Fprintf(w, "  %-26s %14.6g %-6s (%d failed of %d attempted)\n", "fail_ratio",
		float64(o.Failed)/float64(max(o.Attempted, 1)), "ratio", o.Failed, o.Attempted)
	for _, t := range o.Tails {
		fmt.Fprintf(w, "  %s\n", t)
	}
	if o.Trace {
		fmt.Fprintln(w, "per layer (traced window):")
		for _, s := range perLayer {
			row(s)
		}
		fmt.Fprintf(w, "attribution (%s):\n", o.AttrUnit)
		for _, r := range o.Attribution {
			fmt.Fprintf(w, "  %-56s %12.4f\n", r.Layer, r.Ms)
		}
		fmt.Fprintf(w, "trace file: %s\n", o.TraceFile)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(o.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeServedTrace writes a traced served window as a Perfetto
// timeline: a span per request and per check at the client boundary
// (sent → its line), each check's engine run as its answer stamps it,
// and on a cluster a span per shard from its arrival at the worker's
// proxy to the worker's done line.
func (o *outcome) writeServedTrace(cfg config, s *servedSamples, inputs []*circuitInput) error {
	if len(s.Verified) == 0 {
		return nil
	}
	origin := s.Verified[0].Ex.Sent
	for _, v := range s.Verified {
		if v.Ex.Sent.Before(origin) {
			origin = v.Ex.Sent
		}
	}
	ct := obs.NewClusterTrace(origin)
	for _, v := range s.Verified {
		sent := v.Ex.Sent
		ct.Span("requests", "batch "+inputs[v.Ex.Req.Circ].Name, sent.UnixMicro(),
			v.DoneAt.Sub(sent).Microseconds(), map[string]any{"trace_id": v.TraceID, "checks": len(v.Answers),
				"server_us": v.Done.ElapsedUs})
		for _, a := range v.Answers {
			args := map[string]any{"trace_id": v.TraceID, "final": a.Res.Final, "engine_us": a.Res.ElapsedUs}
			if a.Res.Worker != "" {
				args["worker"] = a.Res.Worker
			}
			ct.Span("checks", fmt.Sprintf("check %s δ=%d", a.Res.Sink, a.Res.Delta), sent.UnixMicro(),
				a.Arrival.Sub(sent).Microseconds(), args)
			ct.Span("engine", fmt.Sprintf("run %s δ=%d", a.Res.Sink, a.Res.Delta), a.Res.StartUnixUs,
				a.Res.ElapsedUs, map[string]any{"trace_id": v.TraceID, "span_id": a.Res.SpanID, "stage_us": a.Res.StageUs})
		}
		for _, r := range s.Shards[v.TraceID] {
			if !r.Terminal.IsZero() {
				ct.Span("worker shards", "shard", r.Arrive.UnixMicro(), r.Terminal.Sub(r.Arrive).Microseconds(),
					map[string]any{"trace_id": v.TraceID})
			}
		}
	}
	return o.saveTrace(cfg, ct)
}
