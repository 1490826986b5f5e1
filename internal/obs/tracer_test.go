package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// withoutClocks copies a circuit report with every wall-clock field
// zeroed, leaving only what a deterministic run reproduces.
func withoutClocks(cr *core.CircuitReport) core.CircuitReport {
	out := *cr
	out.PerOutput = make([]*core.Report, len(cr.PerOutput))
	for i, r := range cr.PerOutput {
		rc := *r
		rc.Started, rc.Elapsed, rc.Stats.StageTime = time.Time{}, 0, [core.NumStages]time.Duration{}
		out.PerOutput[i] = &rc
	}
	return out
}

// TestNilTracerVsTracerEquivalence asserts tracing is purely
// observational: verdicts and counters with a Tracer installed are
// identical to the nil-tracer run, and the tracer totals agree with
// the report sums.
func TestNilTracerVsTracerEquivalence(t *testing.T) {
	suite := map[string]*gen.SuiteEntry{}
	for _, e := range gen.SubstituteSuite() {
		e := e
		suite[e.Name] = &e
	}
	for _, name := range []string{"c17", "c432", "c880"} {
		prep := core.Prepare(suite[name].Circuit)
		res, err := prep.NewVerifier(core.Default()).CircuitFloatingDelayCtx(context.Background(), core.Request{})
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []waveform.Time{res.Delay.Add(1), res.Delay} {
			plain := prep.NewVerifier(core.Default()).RunAll(context.Background(), core.Request{Delta: delta, Workers: 1})
			tr := obs.NewTracer()
			traced := prep.NewVerifier(core.Default()).RunAll(context.Background(), core.Request{Delta: delta, Workers: 1, Tracer: tr})
			if p, q := withoutClocks(plain), withoutClocks(traced); !reflect.DeepEqual(p, q) {
				t.Fatalf("%s δ=%s: tracer changed results:\n%+v\nvs\n%+v", name, delta, p, q)
			}
			s := tr.Snapshot()
			if s.TotalChecks() != int64(len(traced.PerOutput)) {
				t.Fatalf("%s: tracer saw %d checks, aggregate kept %d", name, s.TotalChecks(), len(traced.PerOutput))
			}
			if s.Propagations.Sum != traced.Propagations {
				t.Fatalf("%s: tracer propagations %d != aggregate %d", name, s.Propagations.Sum, traced.Propagations)
			}
			if int(s.Backtracks.Sum) != traced.Backtracks {
				t.Fatalf("%s: tracer backtracks %d != aggregate %d", name, s.Backtracks.Sum, traced.Backtracks)
			}
			var wantDec int64
			for _, r := range traced.PerOutput {
				wantDec += r.Stats.Decisions
			}
			if s.Decisions != wantDec {
				t.Fatalf("%s: tracer decisions %d != report sum %d", name, s.Decisions, wantDec)
			}
		}
	}
}

// TestTracerSharedAcrossWorkers drives ONE obs.Tracer through a
// parallel RunAll (run with -race in CI): the merged histogram counts
// must equal the serial sweep's check count — every check observed
// exactly once, no event lost or double-counted under concurrency.
func TestTracerSharedAcrossWorkers(t *testing.T) {
	c := gen.Industrial(3, 24, 10)
	// Fresh verifier per sweep off one Prepared; the sweeps' exact
	// propagation sums match because no check pays for the cones and
	// base snapshots the first sweep builds.
	prep := core.Prepare(c)
	v := prep.NewVerifier(core.Default())
	// δ = E+1, one past the circuit's exact delay of 410: every output
	// refutes, so neither sweep early-exits and serial/parallel run
	// identical check sets. Unlike δ = topological+1, which each cone's
	// base snapshot refutes without a fixpoint, refuting at E+1 takes
	// propagation work, so the sums below compare real counts.
	const delta = waveform.Time(411)

	serial := v.RunAll(context.Background(), core.Request{Delta: delta, Workers: 1})
	wantChecks := int64(len(serial.PerOutput))
	if wantChecks < 2 {
		t.Fatalf("industrial circuit has %d outputs; want a real sweep", wantChecks)
	}
	if serial.Final != core.NoViolation {
		t.Fatalf("serial sweep at δ=%s: %s, want every output refuted", delta, serial.Final)
	}

	tr := obs.NewTracer()
	par := prep.NewVerifier(core.Default()).RunAll(context.Background(), core.Request{Delta: delta, Workers: 4, Tracer: tr})
	if par.Final != serial.Final {
		t.Fatalf("parallel verdict %s != serial %s", par.Final, serial.Final)
	}

	if got := tr.Checks(); got != wantChecks {
		t.Fatalf("tracer observed %d checks, serial sweep ran %d", got, wantChecks)
	}
	s := tr.Snapshot()
	if got := s.TotalChecks(); got != wantChecks {
		t.Fatalf("snapshot counts %d checks, want %d", got, wantChecks)
	}
	for _, h := range []obs.HistSnapshot{s.CheckSeconds, s.Propagations, s.QueueHighWater} {
		if h.Count != uint64(wantChecks) {
			t.Fatalf("histogram observed %d checks, want %d", h.Count, wantChecks)
		}
	}
	// Stage histogram totals must cover exactly the stages the serial
	// sweep ran: every check runs the plain fixpoint once.
	if got := s.StageSeconds[core.StagePlain].Count; got != uint64(wantChecks) {
		t.Fatalf("fixpoint stage observed %d runs, want %d", got, wantChecks)
	}
	// Aggregate work must match the serial sweep's exact counters.
	var wantProps int64
	for _, rep := range serial.PerOutput {
		wantProps += rep.Propagations
	}
	if wantProps == 0 {
		t.Fatal("the serial sweep did no propagation work; the sums below would compare 0 with 0")
	}
	if s.Propagations.Sum != wantProps {
		t.Fatalf("propagation histogram sum %d, serial sweep did %d", s.Propagations.Sum, wantProps)
	}
}

// TestTracerShardMerge aggregates two shard tracers — the
// one-tracer-per-worker deployment style — and checks the merged
// snapshot equals a single shared tracer's view.
func TestTracerShardMerge(t *testing.T) {
	c := gen.CarrySkipAdder(16, 4, 10)
	v := core.NewVerifier(c, core.Default())
	delta := v.Topological().Add(1)

	shard1, shard2 := obs.NewTracer(), obs.NewTracer()
	v.RunAll(context.Background(), core.Request{Delta: delta, Workers: 2, Tracer: shard1})
	v.RunAll(context.Background(), core.Request{Delta: delta, Workers: 2, Tracer: shard2})

	merged := shard1.Snapshot()
	if err := merged.Merge(shard2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if want := shard1.Checks() + shard2.Checks(); merged.TotalChecks() != want {
		t.Fatalf("merged %d checks, want %d", merged.TotalChecks(), want)
	}
	if merged.CheckSeconds.Count != uint64(merged.TotalChecks()) {
		t.Fatalf("latency histogram %d observations for %d checks",
			merged.CheckSeconds.Count, merged.TotalChecks())
	}
}

// TestTracerExposition registers a tracer and checks the rendered
// exposition validates with one histogram per pipeline stage.
func TestTracerExposition(t *testing.T) {
	c := gen.C17(10)
	v := core.NewVerifier(c, core.Default())
	tr := obs.NewTracer()
	v.RunAll(context.Background(), core.Request{Delta: v.Topological().Add(1), Tracer: tr})

	reg := obs.NewRegistry()
	tr.MustRegister(reg, "ltta")
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	fams, err := obs.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("tracer exposition invalid: %v\n%s", err, buf.String())
	}
	var stageFam *obs.PromFamily
	for i := range fams {
		if fams[i].Name == "ltta_stage_duration_seconds" {
			stageFam = &fams[i]
		}
	}
	if stageFam == nil || stageFam.Type != "histogram" {
		t.Fatalf("no ltta_stage_duration_seconds histogram family:\n%s", buf.String())
	}
	stages := map[string]bool{}
	for _, s := range stageFam.Samples {
		stages[s.Labels["stage"]] = true
	}
	for st := core.Stage(0); st < core.NumStages; st++ {
		if !stages[st.String()] {
			t.Errorf("stage %s has no histogram series", st)
		}
	}
	if !strings.Contains(buf.String(), `ltta_checks_total{verdict="no_violation"}`) {
		t.Errorf("exposition missing per-verdict check counters:\n%s", buf.String())
	}
}

// TestTracerSummary pins the -stats totals line against the sweep's
// own reports, then smoke-tests the percentile dump after it.
func TestTracerSummary(t *testing.T) {
	c := gen.C17(10)
	v := core.NewVerifier(c, core.Default())
	tr := obs.NewTracer()
	cr := v.RunAll(context.Background(), core.Request{Delta: v.Topological().Add(1), Tracer: tr})
	var buf bytes.Buffer
	tr.WriteSummary(&buf)
	out := buf.String()

	var narrow int64
	for _, r := range cr.PerOutput {
		narrow += r.Stats.Narrowings
	}
	want := fmt.Sprintf("engine: checks %d (N %d, V 0, A 0, C 0, P 0); propagations %d, narrowings %d, backtracks 0, decisions 0, dominator rounds 0, stem splits 0; queue high-water <=",
		len(cr.PerOutput), len(cr.PerOutput), cr.Propagations, narrow)
	if !strings.HasPrefix(out, want) {
		t.Errorf("totals line:\n%s\nwant prefix:\n%s", out, want)
	}
	totals, _, _ := strings.Cut(out, "\n")
	if !strings.Contains(totals, "; cpu ") || !strings.HasSuffix(totals, "s") ||
		!strings.Contains(totals, "; fixpoint ") {
		t.Errorf("totals line lacks cpu or per-stage time: %s", totals)
	}
	for _, want := range []string{"stage fixpoint", "check latency", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
