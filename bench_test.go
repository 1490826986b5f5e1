package repro_test

// One benchmark per table/figure of the paper's evaluation (see
// DESIGN.md §5 for the experiment index), plus the A1 ablations of the
// design choices. Expensive sub-benchmarks compute their workload and
// reference δ once, outside the timed loop.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// --- E1: Figure 1 / Example 2 -------------------------------------------

func BenchmarkFig1Example2Refute(b *testing.B) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := core.NewVerifier(c, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Run(context.Background(), core.Request{Sink: s, Delta: 61}).Final != core.NoViolation {
			b.Fatal("δ=61 must be refuted")
		}
	}
}

func BenchmarkFig1Example2Witness(b *testing.B) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := core.NewVerifier(c, core.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Run(context.Background(), core.Request{Sink: s, Delta: 60}).Final != core.ViolationFound {
			b.Fatal("δ=60 must be witnessed")
		}
	}
}

// --- E2: Figures 2–3 carry-skip dominators ------------------------------

func BenchmarkFig23CarrySkipDominators(b *testing.B) {
	c := gen.CarrySkipAdder(8, 4, 10)
	cout, _ := c.NetByName("cout")
	v := core.NewVerifier(c, core.Default())
	res, err := v.ExactFloatingDelayCtx(context.Background(), cout, core.Request{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Run(context.Background(), core.Request{Sink: cout, Delta: res.Delay.Add(1)}).Final != core.NoViolation {
			b.Fatal("δ+1 must be refuted")
		}
	}
}

// --- E4: Section-6 16-bit carry-skip adder ------------------------------

func BenchmarkCarrySkip16Exact(b *testing.B) {
	c := gen.CarrySkipAdder(16, 4, 10)
	cout, _ := c.NetByName("cout")
	v := core.NewVerifier(c, core.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := v.ExactFloatingDelayCtx(context.Background(), cout, core.Request{})
		if err != nil || !res.Exact {
			b.Fatalf("exact delay failed: %v %+v", err, res)
		}
	}
}

// --- E5: c1908 dominator anecdote ----------------------------------------

func BenchmarkC1908DominatorAnecdote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		an := harness.Anecdote()
		if an.WithDomVerdict != core.NoViolation {
			b.Fatal("dominators must prove the bound")
		}
	}
}

// --- E3: Table 1 ----------------------------------------------------------
//
// One sub-benchmark per suite circuit; each iteration regenerates the
// circuit's two Table-1 rows. The exact δ is discovered inside
// CircuitRows (that cost is part of what the table measures). The large
// c6288 stand-in runs with a reduced backtrack budget so a bench sweep
// stays tractable; cmd/table1 runs it in full.

var suiteOnce sync.Once
var suiteEntries []gen.SuiteEntry

func suite() []gen.SuiteEntry {
	suiteOnce.Do(func() { suiteEntries = gen.SubstituteSuite() })
	return suiteEntries
}

func benchTable1(b *testing.B, name string, budget int) {
	var entry gen.SuiteEntry
	for _, e := range suite() {
		if e.Name == name {
			entry = e
			break
		}
	}
	if entry.Circuit == nil {
		b.Fatalf("no suite entry %s", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := harness.CircuitRows(entry.Name, entry.Circuit, budget)
		if len(rows) != 2 {
			b.Fatal("expected two rows")
		}
	}
}

func BenchmarkTable1C17(b *testing.B)   { benchTable1(b, "c17", 200000) }
func BenchmarkTable1C432(b *testing.B)  { benchTable1(b, "c432", 200000) }
func BenchmarkTable1C499(b *testing.B)  { benchTable1(b, "c499", 200000) }
func BenchmarkTable1C880(b *testing.B)  { benchTable1(b, "c880", 200000) }
func BenchmarkTable1C1355(b *testing.B) { benchTable1(b, "c1355", 200000) }
func BenchmarkTable1C1908(b *testing.B) { benchTable1(b, "c1908", 200000) }
func BenchmarkTable1C2670(b *testing.B) { benchTable1(b, "c2670", 200000) }
func BenchmarkTable1C3540(b *testing.B) { benchTable1(b, "c3540", 200000) }
func BenchmarkTable1C5315(b *testing.B) { benchTable1(b, "c5315", 200000) }
func BenchmarkTable1C6288(b *testing.B) { benchTable1(b, "c6288", 500) }
func BenchmarkTable1C7552(b *testing.B) { benchTable1(b, "c7552", 200000) }

// --- A1: ablations of the design choices ---------------------------------

// ablationDelta computes the exact floating delay of the sink once so
// the ablated configurations all answer the same (δ+1) question.
func ablationDelta(b *testing.B, c *circuit.Circuit, sinkName string) (circuit.NetID, waveform.Time) {
	sink, ok := c.NetByName(sinkName)
	if !ok {
		b.Fatalf("no net %s", sinkName)
	}
	v := core.NewVerifier(c, core.Default())
	res, err := v.ExactFloatingDelayCtx(context.Background(), sink, core.Request{})
	if err != nil || !res.Exact {
		b.Fatalf("reference delay failed: %v %+v", err, res)
	}
	return sink, res.Delay.Add(1)
}

func benchAblation(b *testing.B, opts core.Options) {
	c := gen.CarrySkipAdder(12, 4, 10)
	sink, delta := ablationDelta(b, c, "cout")
	opts.MaxBacktracks = 1 << 20
	v := core.NewVerifier(c, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := v.Run(context.Background(), core.Request{Sink: sink, Delta: delta})
		if rep.Final != core.NoViolation {
			b.Fatalf("ablated config must still refute exactly, got %s", rep.Final)
		}
		bt := rep.Backtracks
		if bt < 0 {
			bt = 0 // refuted before the search started
		}
		b.ReportMetric(float64(bt), "backtracks/op")
	}
}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b, core.Default()) }

func BenchmarkAblationNoDominators(b *testing.B) {
	o := core.Default()
	o.UseDominators = false
	benchAblation(b, o)
}

func BenchmarkAblationNoLearning(b *testing.B) {
	o := core.Default()
	o.UseLearning = false
	benchAblation(b, o)
}

func BenchmarkAblationNoStemCorrelation(b *testing.B) {
	o := core.Default()
	o.UseStemCorrelation = false
	benchAblation(b, o)
}

func BenchmarkAblationPlainSearch(b *testing.B) {
	benchAblation(b, core.Options{}) // case analysis over bare narrowing
}

func BenchmarkAblationStaticDominatorsOnly(b *testing.B) {
	// Lemma-3 static dominators instead of the dynamic Theorem-3 ones:
	// cheaper to compute, weaker implications.
	o := core.Default()
	o.UseDominators = false
	o.UseStaticDominators = true
	benchAblation(b, o)
}

// --- E6: Run API overhead -------------------------------------------------
//
// The Run path with a nil tracer and no deadline must cost the same as
// the legacy Check (which is now a wrapper over it): observability that
// is off must be free. BenchmarkRunTraced measures the StatsTracer tax.

func benchRun(b *testing.B, req core.Request) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := core.NewVerifier(c, core.Default())
	req.Sink, req.Delta = s, 61
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Run(ctx, req).Final != core.NoViolation {
			b.Fatal("δ=61 must be refuted")
		}
	}
}

func BenchmarkRunNilTracer(b *testing.B) { benchRun(b, core.Request{}) }

func BenchmarkRunStatsTracer(b *testing.B) {
	benchRun(b, core.Request{Tracer: new(core.StatsTracer)})
}

func BenchmarkRunWithDeadline(b *testing.B) {
	benchRun(b, core.Request{Deadline: time.Now().Add(time.Hour)})
}

func BenchmarkRunAllParallelC880(b *testing.B) {
	var entry gen.SuiteEntry
	for _, e := range suite() {
		if e.Name == "c880" {
			entry = e
		}
	}
	v := core.NewVerifier(entry.Circuit, core.Default())
	delta := v.Topological().Add(1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.RunAll(ctx, core.Request{Delta: delta, Workers: 0}).Final != core.NoViolation {
			b.Fatal("δ=top+1 must be refuted")
		}
	}
}

// --- E7: cone-sliced solving ---------------------------------------------
//
// Whole-circuit vs fan-in-cone solving on a multi-output industrial
// block at δ = top+1 (every check refuted; the verdicts are asserted
// identical by TestConeDifferentialParallelRunAll and friends). The
// block's outputs see only a fraction of the netlist each, so the cone
// configuration should win on both time and allocations. One warmup
// sweep outside the timer pays the per-sink cone construction once —
// steady state is what a delay search or repeated sweep observes:
// warm-started (the default) and report-arena-backed, it runs
// allocation-free.

func benchIndustrialSweep(b *testing.B, cone bool) {
	c := gen.Industrial(7, 48, 10)
	opts := core.Default()
	opts.UseConeSlicing = cone
	v := core.NewVerifier(c, opts)
	delta := v.Topological().Add(1)
	ctx := context.Background()
	req := core.Request{Delta: delta, Workers: 1, Arena: new(core.ReportArena)}
	if v.RunAll(ctx, req).Final != core.NoViolation {
		b.Fatal("δ=top+1 must be refuted")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.RunAll(ctx, req).Final != core.NoViolation {
			b.Fatal("δ=top+1 must be refuted")
		}
	}
}

func BenchmarkIndustrialSweepWhole(b *testing.B) { benchIndustrialSweep(b, false) }
func BenchmarkIndustrialSweepCone(b *testing.B)  { benchIndustrialSweep(b, true) }

// flightBenchTracer reproduces the daemon's always-on emission path —
// the shared obs.Tracer histograms plus one flight record and one
// latency exemplar per finished check — so the Flight variant below
// prices the recorder exactly where the server pays for it.
type flightBenchTracer struct {
	*obs.Tracer
	c       *circuit.Circuit
	fr      *obs.FlightRecorder
	traceID string
}

func (t flightBenchTracer) CheckDone(rep *core.Report) {
	t.Tracer.CheckDone(rep)
	t.fr.Record(&obs.CheckRecord{
		TraceID:      t.traceID,
		Sink:         t.c.Net(rep.Sink).Name,
		Delta:        int64(rep.Delta),
		Verdict:      rep.Final.String(),
		ElapsedUs:    rep.Elapsed.Microseconds(),
		Propagations: rep.Propagations,
		Backtracks:   rep.Backtracks,
	})
	t.Tracer.CheckSeconds.SetExemplar(rep.Elapsed.Nanoseconds(), t.traceID)
}

// BenchmarkIndustrialSweepConeFlight is the cone sweep with the flight
// recorder and metrics tracer live, the configuration every daemon
// check actually runs in. Gated against the committed snapshot next to
// the no-tracer BenchmarkIndustrialSweepCone so the always-on recorder
// can never silently grow a tax on the hot path.
func BenchmarkIndustrialSweepConeFlight(b *testing.B) {
	c := gen.Industrial(7, 48, 10)
	opts := core.Default()
	opts.UseConeSlicing = true
	v := core.NewVerifier(c, opts)
	delta := v.Topological().Add(1)
	ctx := context.Background()
	tr := flightBenchTracer{
		Tracer:  obs.NewTracer(),
		c:       c,
		fr:      obs.NewFlightRecorder(256, 32),
		traceID: api.NewTraceID(),
	}
	req := core.Request{Delta: delta, Workers: 1, Arena: new(core.ReportArena), Tracer: tr}
	if v.RunAll(ctx, req).Final != core.NoViolation {
		b.Fatal("δ=top+1 must be refuted")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.RunAll(ctx, req).Final != core.NoViolation {
			b.Fatal("δ=top+1 must be refuted")
		}
	}
}

// --- substrate micro-benchmarks ------------------------------------------

func BenchmarkFixpointCarrySkip16(b *testing.B) {
	c := gen.CarrySkipAdder(16, 4, 10)
	cout, _ := c.NetByName("cout")
	v := core.NewVerifier(c, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := v.SystemAfterFixpoint(cout, 200)
		if sys.Inconsistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

// Scheduler-discipline comparison: FIFO (the paper's event queue) vs
// alternating topological sweeps, on the NOR-mapped multiplier.
func benchScheduler(b *testing.B, mode constraint.ScheduleMode) {
	c, err := circuit.MapToNOR(gen.ArrayMultiplier(6, 1), 10)
	if err != nil {
		b.Fatal(err)
	}
	po := c.PrimaryOutputs()[len(c.PrimaryOutputs())-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := constraint.New(c)
		sys.SetScheduleMode(mode)
		sys.Narrow(po, waveform.CheckOutput(300))
		sys.ScheduleAll()
		sys.Fixpoint()
		b.ReportMetric(float64(sys.Propagations), "propagations/op")
	}
}

func BenchmarkSchedulerFIFO(b *testing.B)  { benchScheduler(b, constraint.FIFO) }
func BenchmarkSchedulerSweep(b *testing.B) { benchScheduler(b, constraint.Sweep) }

func BenchmarkNORMapping(b *testing.B) {
	c := gen.ArrayMultiplier(8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.MapToNOR(c, 10); err != nil {
			b.Fatal(err)
		}
	}
}
