package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// hardCase returns a check that takes tens of seconds undisturbed: the
// NOR-mapped 8x8 array multiplier's top output at a δ just inside the
// violable region, with an effectively unlimited backtrack budget (the
// Table-1 c6288 blow-up).
func hardCase(t testing.TB) (*Verifier, circuit.NetID, waveform.Time) {
	t.Helper()
	c, err := circuit.MapToNOR(gen.ArrayMultiplier(8, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := Default()
	opts.MaxBacktracks = 1 << 30
	v := NewVerifier(c, opts)
	pos := c.PrimaryOutputs()
	po := pos[len(pos)-1]
	// Build the sink's cone slice up front: first-call cone
	// construction costs ~10ms under -race, which would eat a short
	// deadline before the solve these tests are cancelling even starts.
	v.coneFor(po)
	return v, po, v.analysis.Arrival(po).Sub(60)
}

func TestRunDeadlineCancelsPromptly(t *testing.T) {
	v, po, delta := hardCase(t)
	start := time.Now()
	rep := v.Run(context.Background(), Request{
		Sink: po, Delta: delta,
		Deadline: time.Now().Add(10 * time.Millisecond),
	})
	elapsed := time.Since(start)
	if rep.Final != Cancelled {
		t.Fatalf("hard check under a 10ms deadline: got %s, want C", rep.Final)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
	if rep.Elapsed <= 0 || rep.Propagations == 0 {
		t.Fatalf("cancelled report should still carry counters: %+v", rep)
	}
}

func TestRunContextCancelDuringCheck(t *testing.T) {
	v, po, delta := hardCase(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep := v.Run(ctx, Request{Sink: po, Delta: delta})
	if rep.Final != Cancelled {
		t.Fatalf("got %s, want C", rep.Final)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	s, _ := c.NetByName("s")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep := v.Run(ctx, Request{Sink: s, Delta: 60})
	if rep.Final != Cancelled {
		t.Fatalf("pre-cancelled ctx: got %s, want C", rep.Final)
	}
	if rep.Propagations != 0 {
		t.Fatalf("pre-cancelled ctx must not start solving, did %d propagations", rep.Propagations)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("immediate cancel took %v", elapsed)
	}
}

func TestRunPropagationBudgetAbandons(t *testing.T) {
	v, po, delta := hardCase(t)
	const limit = 50_000
	rep := v.Run(context.Background(), Request{
		Sink: po, Delta: delta,
		Budgets: Budgets{MaxPropagations: limit},
	})
	if rep.Final != Abandoned {
		t.Fatalf("propagation budget: got %s, want A", rep.Final)
	}
	// The poll runs every few hundred propagations, so the overshoot is
	// bounded by one interval (plus stage-boundary slack).
	if rep.Propagations < limit || rep.Propagations > limit+10_000 {
		t.Fatalf("stopped at %d propagations, want just past %d", rep.Propagations, limit)
	}
}

func TestRunBacktrackBudgetViaRequest(t *testing.T) {
	v, po, delta := hardCase(t)
	rep := v.Run(context.Background(), Request{
		Sink: po, Delta: delta,
		Budgets: Budgets{MaxBacktracks: 50},
	})
	if rep.Final != Abandoned {
		t.Fatalf("backtrack budget: got %s, want A", rep.Final)
	}
	if rep.Backtracks != 51 {
		t.Fatalf("abandoned after %d backtracks, want budget+1 = 51", rep.Backtracks)
	}
}

// TestRunMatchesCheck pins that a check's answer depends only on the
// question: two fresh verifiers off one shared Prepared give identical
// verdicts, counters, and witnesses on the Figure-1 circuit, and the
// VerifyOnly request stops after the verify() stage. The comparison
// includes the work counters: the first check builds the base snapshot
// both solve from, and the build is charged to neither.
func TestRunMatchesCheck(t *testing.T) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	prep := Prepare(c)
	for _, delta := range []waveform.Time{61, 60} {
		first := prep.NewVerifier(Default()).Run(context.Background(), Request{Sink: s, Delta: delta})
		second := prep.NewVerifier(Default()).Run(context.Background(), Request{Sink: s, Delta: delta})
		if canonicalReport(first) != canonicalReport(second) {
			t.Fatalf("δ=%s:\n first:  %s\n second: %s", delta, canonicalReport(first), canonicalReport(second))
		}
	}
	v := prep.NewVerifier(Default())
	if got := v.Run(context.Background(), Request{Sink: s, Delta: 61, VerifyOnly: true}).Final; got != NoViolation {
		t.Fatalf("VerifyOnly Run(61) = %s", got)
	}
	if got := v.Run(context.Background(), Request{Sink: s, Delta: 60, VerifyOnly: true}).Final; got != PossibleViolation {
		t.Fatalf("VerifyOnly(60) = %s", got)
	}
}

// canonicalReport renders the deterministic fields of a report (wall
// clock excluded).
func canonicalReport(r *Report) string {
	return fmt.Sprintf("sink=%d δ=%s %s|%s|%s|%s final=%s bt=%d wit=%v@%s dom=%d domrounds=%d props=%d narrow=%d qhw=%d dec=%d splits=%d",
		r.Sink, r.Delta, r.BeforeGITD, r.AfterGITD, r.AfterStem, r.CaseAnalysis,
		r.Final, r.Backtracks, r.Witness, r.WitnessSettle,
		r.Dominators, r.DominatorRounds, r.Propagations,
		r.Stats.Narrowings, r.Stats.QueueHighWater, r.Stats.Decisions, r.Stats.StemSplits)
}

// canonicalCircuit renders the deterministic fields of a circuit
// aggregate, including every kept per-output report.
func canonicalCircuit(cr *CircuitReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "δ=%s %s|%s|%s|%s final=%s bt=%d wo=%d props=%d dom=%d domrounds=%d\n",
		cr.Delta, cr.BeforeGITD, cr.AfterGITD, cr.AfterStem, cr.CaseAnalysis,
		cr.Final, cr.Backtracks, cr.WitnessOutput,
		cr.Propagations, cr.Dominators, cr.DominatorRounds)
	for _, r := range cr.PerOutput {
		fmt.Fprintf(&b, "  %s\n", canonicalReport(r))
	}
	return b.String()
}

// TestRunAllParallelIdenticalToSerial asserts the headline determinism
// property: Run-based parallel sweeps produce aggregates identical to
// the serial sweep (Workers: 1), on both refutation sweeps and witness sweeps
// (where sibling cancellation must discard exactly the checks the
// serial sweep never starts). Run with -race in CI.
func TestRunAllParallelIdenticalToSerial(t *testing.T) {
	cases := []struct {
		name  string
		c     *circuit.Circuit
		delta func(v *Verifier) waveform.Time
	}{
		{"c17-refute", gen.C17(10), func(v *Verifier) waveform.Time { return 31 }},
		{"c17-witness", gen.C17(10), func(v *Verifier) waveform.Time { return 30 }},
		{"c880-refute", suiteCircuit(t, "c880"), func(v *Verifier) waveform.Time { return v.Topological().Add(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh verifier per sweep, sharing one Prepared: its
			// cones and base snapshots are built by the serial sweep
			// and charged to no check's work counters.
			prep := Prepare(tc.c)
			v := prep.NewVerifier(Default())
			delta := tc.delta(v)
			serial := canonicalCircuit(v.RunAll(context.Background(), Request{Delta: delta, Workers: 1}))
			for _, workers := range []int{0, 2, 4} {
				for rep := 0; rep < 3; rep++ {
					par := canonicalCircuit(prep.NewVerifier(Default()).RunAll(context.Background(), Request{Delta: delta, Workers: workers}))
					if par != serial {
						t.Fatalf("workers=%d differs from serial:\nserial:\n%s\nparallel:\n%s", workers, serial, par)
					}
				}
			}
		})
	}
}

func suiteCircuit(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	for _, e := range gen.SubstituteSuite() {
		if e.Name == name {
			return e.Circuit
		}
	}
	t.Fatalf("no suite circuit %s", name)
	return nil
}

// TestCircuitReportSumsWork pins the stats-merge fix: the aggregate
// must sum propagations, dominators, and dominator rounds across the
// kept per-output reports, serial and parallel alike. It checks at
// δ = D (530), where the checks propagate; above every output's
// topological arrival the base snapshot refutes them without work.
func TestCircuitReportSumsWork(t *testing.T) {
	c := suiteCircuit(t, "c432")
	prep := Prepare(c)
	for _, workers := range []int{1, 4} {
		v := prep.NewVerifier(Default())
		cr := v.RunAll(context.Background(), Request{Delta: 530, Workers: workers})
		var props int64
		var doms, rounds int
		for _, r := range cr.PerOutput {
			props += r.Propagations
			doms += r.Dominators
			rounds += r.DominatorRounds
		}
		if props == 0 {
			t.Fatal("expected some propagations")
		}
		if cr.Propagations != props || cr.Dominators != doms || cr.DominatorRounds != rounds {
			t.Fatalf("workers=%d: aggregate (%d,%d,%d) != sums (%d,%d,%d)",
				workers, cr.Propagations, cr.Dominators, cr.DominatorRounds, props, doms, rounds)
		}
	}
}

// TestRunAllDeadlineCancelsSweep checks the whole-circuit path honours
// deadlines and reports Cancelled.
func TestRunAllDeadlineCancelsSweep(t *testing.T) {
	v, _, delta := hardCase(t)
	for _, workers := range []int{1, 2} {
		start := time.Now()
		cr := v.RunAll(context.Background(), Request{
			Delta:    delta,
			Workers:  workers,
			Deadline: time.Now().Add(10 * time.Millisecond),
		})
		if cr.Final != Cancelled {
			t.Fatalf("workers=%d: got %s, want C", workers, cr.Final)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("workers=%d: sweep cancellation took %v", workers, elapsed)
		}
	}
}

// TestExactFloatingDelayCtxCancel checks the delay search returns its
// partial bracket plus an error on cancellation.
func TestExactFloatingDelayCtxCancel(t *testing.T) {
	v, po, _ := hardCase(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := v.ExactFloatingDelayCtx(ctx, po, Request{})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if res == nil || res.Exact {
		t.Fatalf("want an inexact partial result, got %+v", res)
	}
}

// TestCircuitFloatingDelayCtxPartial pins the documented contract: a
// cancelled circuit-wide delay sweep returns the partial bracket, not
// nil (a nil here crashed cmd/ltta -exact -timeout).
func TestCircuitFloatingDelayCtxPartial(t *testing.T) {
	v, _, _ := hardCase(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := v.CircuitFloatingDelayCtx(ctx, Request{})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if res == nil {
		t.Fatal("cancelled sweep must return the partial bracket, got nil")
	}
	if res.Exact {
		t.Fatalf("partial result claims exactness: %+v", res)
	}
}

// TestTraceWriterSmoke exercises both trace encodings end to end.
func TestTraceWriterSmoke(t *testing.T) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := NewVerifier(c, Default())
	var text, js strings.Builder
	tr := MultiTracer(NewTraceWriter(&text, c), NewJSONTraceWriter(&js, c), nil)
	rep := v.Run(context.Background(), Request{Sink: s, Delta: 60, Tracer: tr})
	if rep.Final != ViolationFound {
		t.Fatalf("got %s", rep.Final)
	}
	for _, want := range []string{"check", "stage", "check.done"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text trace missing %q:\n%s", want, text.String())
		}
	}
	if !strings.Contains(js.String(), `"ev":"check.done"`) {
		t.Fatalf("json trace missing check.done:\n%s", js.String())
	}
}

// TestMultiTracerNoAlloc: the server combines its engine tracer with
// each request's, usually nil, once per check, so MultiTracer returns
// nil or the single non-nil tracer as is, without allocating.
func TestMultiTracerNoAlloc(t *testing.T) {
	tr := NewTraceWriter(io.Discard, nil)
	if got := MultiTracer(nil, nil); got != nil {
		t.Fatalf("MultiTracer(nil, nil) = %v, want nil", got)
	}
	if got := MultiTracer(nil, tr, nil); got != Tracer(tr) {
		t.Fatalf("MultiTracer(nil, tr, nil) = %v, want tr itself", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = MultiTracer(tr, nil) }); allocs != 0 {
		t.Fatalf("MultiTracer(tr, nil) allocates %.1f objects, want 0", allocs)
	}
	var a, b strings.Builder
	both := MultiTracer(NewTraceWriter(&a, nil), nil, NewTraceWriter(&b, nil))
	both.Backtrack(7)
	if a.String() == "" || a.String() != b.String() {
		t.Fatalf("a MultiTracer of two tracers wrote %q and %q, want the same event in both", a.String(), b.String())
	}
}
