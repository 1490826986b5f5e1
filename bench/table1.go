package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// rowPin is the expected outcome of one Table-1 row: the stage columns
// (before GITD, after GITD, after stem correlation, case analysis,
// final), the exact backtrack count, and the witnessing output (-1 for
// none).
type rowPin struct {
	Stages        string
	Backtracks    int
	WitnessOutput int
}

// table1Pins holds the row pair (δ = D+1, δ = D) of every substitute
// circuit under core.Default() with the 200000-backtrack budget. The
// backtrack counts repeat exactly on every run; c6288's case analysis
// is about 95% of a pass.
var table1Pins = map[string][2]rowPin{
	"c17":   {{"N---N", 0, -1}, {"PPPVV", 0, 0}},
	"c432":  {{"N---N", 0, -1}, {"PPPVV", 0, 2}},
	"c499":  {{"N---N", 0, -1}, {"PPPVV", 0, 4}},
	"c880":  {{"N---N", 0, -1}, {"PPPVV", 0, 7}},
	"c1355": {{"N---N", 0, -1}, {"PPPVV", 0, 4}},
	"c1908": {{"PN--N", 0, -1}, {"PPPVV", 0, 7}},
	"c2670": {{"PPN-N", 0, -1}, {"PPPVV", 0, 10}},
	"c3540": {{"PN--N", 0, -1}, {"PPPVV", 0, 7}},
	"c5315": {{"PN--N", 0, -1}, {"PPPVV", 0, 8}},
	"c6288": {{"PPPNN", 4993, -1}, {"PPPVV", 28138, 15}},
	"c7552": {{"N---N", 0, -1}, {"PPPVV", 0, 11}},
}

// timeSuiteBuild times one build of the substitute suite: a set-up
// sample. The timed build starts from a collected heap and runs with the
// collector paused: a collection landing inside a build of a few
// milliseconds doubles it. The allocation itself is still timed. An
// untimed build just before it maps in the pages it will use: after a
// circuit the runtime has handed much of its heap back to the kernel,
// and a build then page-faulted 200–800 times, ran 40% slower and spread
// twice as wide on the reference host.
func timeSuiteBuild() time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	gen.SubstituteSuite()
	runtime.GC()
	start := time.Now()
	gen.SubstituteSuite()
	return time.Since(start)
}

// t1Circuit is one circuit's row pair as one pass ran it.
type t1Circuit struct {
	Name        string
	SetupDur    time.Duration // the suite build timed just before the circuit
	Start       time.Time
	Dur         time.Duration
	PrepareDur  time.Duration  // core.Prepare
	VerifierDur time.Duration  // NewVerifier: the learning table
	Reports     []*core.Report // every per-output check of both rows
	Backtracks  int
}

// t1Pass is one full pass over the suite. Dur is the sum of its
// circuits' times, without the suite builds and collections between
// them.
type t1Pass struct {
	Start    time.Time
	Dur      time.Duration
	Circuits []t1Circuit
}

// runTable1 runs the Table-1 protocol in-process and serially: for every
// substitute circuit, in a seeded order, a fresh core.Prepare and
// verifier, then core.Verifier.RunAll at δ = D+1 and δ = D. A pass
// starts while the window is open; the pass running at its end
// completes and counts, as an op in flight does in the served loops.
//
// The run holds the Go scheduler to one processor. The protocol is
// serial, so this charges the collector's work inline to the circuit
// that caused it, as the paper's CPU seconds would; with a second
// processor the concurrent collector made the same circuit 20–50%
// slower and its times twice as spread on the 2-vCPU reference host.
func runTable1(cfg config) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := newOutcome(cfg)
	suite := gen.SubstituteSuite()
	rng := rand.New(rand.NewSource(cfg.Seed))

	window := func() []t1Pass {
		var passes []t1Pass
		t0 := time.Now()
		for time.Since(t0) < time.Duration(cfg.Seconds)*time.Second {
			passes = append(passes, table1Pass(suite, rng.Perm(len(suite)), &out.tally))
		}
		return passes
	}
	plain := window()
	out.addTable1(plain)
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	out.Metrics.set("rss_peak_mb", rss, 1)
	if !cfg.Trace {
		return out, nil
	}

	traced := window()
	var inputs []*circuitInput
	for _, e := range suite {
		d := suiteDelay[e.Name]
		in, err := newInput(e.Name, e.Circuit, func(int64) []int64 { return []int64{d + 1, d} })
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	lt, err := timeLayers(inputs, false)
	if err != nil {
		return nil, err
	}
	out.addTracedTable1(plain, traced, lt)
	return out, out.writeTable1Trace(cfg, traced)
}

// table1Pass runs one pass, checking every row against its pin and
// replaying every witness. Before each circuit it times one suite build,
// so the set-up samples are spread over the whole window rather than
// taken in the first few milliseconds of the process, whose speed on a
// shared host can differ by half from the run's. Each circuit then
// starts from a collected heap, so the collections inside its time are
// the ones its own allocation causes.
func table1Pass(suite []gen.SuiteEntry, order []int, t *tally) t1Pass {
	pass := t1Pass{Start: time.Now()}
	for _, idx := range order {
		e := suite[idx]
		pins := table1Pins[e.Name]
		d := waveform.Time(suiteDelay[e.Name])
		setup := timeSuiteBuild()
		runtime.GC()
		tc := t1Circuit{Name: e.Name, SetupDur: setup, Start: time.Now()}
		p := core.Prepare(e.Circuit)
		tc.PrepareDur = time.Since(tc.Start)
		v := p.NewVerifier(core.Default())
		tc.VerifierDur = time.Since(tc.Start) - tc.PrepareDur
		rows := [2]*core.CircuitReport{
			v.RunAll(context.Background(), core.Request{Delta: d.Add(1), Workers: 1}),
			v.RunAll(context.Background(), core.Request{Delta: d, Workers: 1}),
		}
		tc.Dur = time.Since(tc.Start)
		for i, cr := range rows {
			t.Attempted++
			if err := checkRow(e.Circuit, cr, pins[i]); err != nil {
				t.fail(fmt.Errorf("table1 %s δ=%d: %w", e.Name, cr.Delta, err))
			}
			tc.Reports = append(tc.Reports, cr.PerOutput...)
			tc.Backtracks += max(cr.Backtracks, 0)
		}
		pass.Circuits = append(pass.Circuits, tc)
		pass.Dur += tc.Dur
	}
	return pass
}

// checkRow compares a row with its pin and replays its witness.
func checkRow(c *circuit.Circuit, cr *core.CircuitReport, pin rowPin) error {
	stages := cr.BeforeGITD.String() + cr.AfterGITD.String() + cr.AfterStem.String() +
		cr.CaseAnalysis.String() + cr.Final.String()
	if stages != pin.Stages || cr.Backtracks != pin.Backtracks || cr.WitnessOutput != pin.WitnessOutput {
		return fmt.Errorf("got %s, %d backtracks, witness output %d; pinned %s, %d, %d",
			stages, cr.Backtracks, cr.WitnessOutput, pin.Stages, pin.Backtracks, pin.WitnessOutput)
	}
	if cr.WitnessOutput < 0 {
		return nil
	}
	rep := cr.PerOutput[cr.WitnessOutput]
	res, err := sim.Run(c, rep.Witness)
	if err != nil {
		return fmt.Errorf("replaying witness: %w", err)
	}
	if settle := res.OutputSettle(rep.Sink); settle != rep.WitnessSettle || settle < cr.Delta {
		return fmt.Errorf("witness %s settles at %s, report claims %s", rep.Witness, settle, rep.WitnessSettle)
	}
	return nil
}

// addTable1 records the end-to-end metrics of a window of passes. The
// batch of table1 is a pass, the whole protocol: batch_p50_ms is the
// median pass, as pass_s is in seconds; a set-up is one suite build.
// Row pairs and checks are noted in the report, pooled over the passes,
// but are no end-to-end metric: a percentile over 11 circuits of very
// different size falls on one or two of them, and on the shared
// reference host one cold row pair of c499, timed as its fastest of
// three passes, read from 10.7 to 16.2 ms in three runs, while the
// median pass of ten runs spread (quartile distance ÷ median) by 0.07.
func (o *outcome) addTable1(passes []t1Pass) {
	var setupS, passMs, rowMs, checkMs []float64
	var window time.Duration
	for _, p := range passes {
		passMs = append(passMs, ms(p.Dur))
		window += p.Dur
		for _, c := range p.Circuits {
			setupS = append(setupS, c.SetupDur.Seconds())
			rowMs = append(rowMs, ms(c.Dur))
			for _, r := range c.Reports {
				checkMs = append(checkMs, ms(r.Elapsed))
			}
		}
	}
	o.Metrics.set("setup_s", median(setupS), len(setupS))
	o.Metrics.set("checks_per_s", float64(len(checkMs))/window.Seconds(), len(checkMs))
	o.batchTiming("batch (one pass over the suite)", passMs)
	o.timing("circuit row pair", rowMs)
	o.timing("check", checkMs)
	o.Metrics.set("pass_s", median(passMs)/1e3, len(passMs))
}

// addTracedTable1 records the per-layer metrics of the traced passes
// and splits the median pass into its serial layers.
func (o *outcome) addTracedTable1(plain, traced []t1Pass, lt []layerSample) {
	m := o.Metrics
	layerMetrics(m, lt)
	var stage [core.NumStages][]float64
	var checkUs, props []float64
	bt := map[int]bool{}
	type passParts struct {
		e2e, prep, learn, outside float64
		stages                    [core.NumStages]float64
	}
	var parts []passParts
	for _, p := range traced {
		pp := passParts{e2e: ms(p.Dur)}
		total := 0
		for _, c := range p.Circuits {
			pp.prep += ms(c.PrepareDur)
			pp.learn += ms(c.VerifierDur)
			total += c.Backtracks
			for _, r := range c.Reports {
				checkUs = append(checkUs, us(r.Elapsed))
				pp.outside += ms(r.Elapsed)
				props = append(props, float64(r.Propagations))
				ran := stagesRanReport(r)
				for st, d := range r.Stats.StageTime {
					pp.stages[st] += ms(d)
					pp.outside -= ms(d)
					if ran[st] {
						stage[st] = append(stage[st], us(d))
					}
				}
			}
		}
		bt[total] = true
		parts = append(parts, pp)
	}
	engineMetrics(m, stage, checkUs, props)
	if len(bt) != 1 {
		o.fail(fmt.Errorf("table1: backtracks per pass differ between passes: %v", bt))
	}
	for total := range bt {
		m.set("core.backtracks", float64(total), len(traced))
	}
	var plainPass, tracedPass []float64
	for _, p := range plain {
		plainPass = append(plainPass, p.Dur.Seconds())
	}
	for _, p := range traced {
		tracedPass = append(tracedPass, p.Dur.Seconds())
	}
	m.set("trace.overhead_ratio", median(tracedPass)/median(plainPass)-1, len(tracedPass))

	step := func(name string, f func(p passParts) float64) attrStep {
		return attrStep{name, func(i int) float64 { return f(parts[i]) }}
	}
	steps := []attrStep{
		step("core.Prepare", func(p passParts) float64 { return p.prep }),
		step("NewVerifier (learning table)", func(p passParts) float64 { return p.learn }),
	}
	for st := 0; st < core.NumStages; st++ {
		steps = append(steps, step("engine "+core.Stage(st).String(), func(p passParts) float64 { return p.stages[st] }))
	}
	steps = append(steps, step("engine outside the stages", func(p passParts) float64 { return p.outside }))
	o.setAttribution("pass", "passes", len(parts), func(i int) float64 { return parts[i].e2e }, steps)
}

// stagesRanReport reports which stages a report's check ran.
func stagesRanReport(r *core.Report) [core.NumStages]bool {
	return [core.NumStages]bool{
		r.BeforeGITD != core.StageSkipped,
		r.AfterGITD != core.StageSkipped,
		r.AfterStem != core.StageSkipped,
		r.CaseAnalysis != core.StageSkipped,
	}
}

// writeTable1Trace writes the traced passes as a Perfetto timeline: one
// span per pass, per circuit row pair and per check.
func (o *outcome) writeTable1Trace(cfg config, passes []t1Pass) error {
	if len(passes) == 0 {
		return nil
	}
	ct := obs.NewClusterTrace(passes[0].Start)
	for i, p := range passes {
		last := p.Circuits[len(p.Circuits)-1]
		ct.Span("table1", fmt.Sprintf("pass %d", i+1), p.Start.UnixMicro(),
			last.Start.Add(last.Dur).Sub(p.Start).Microseconds(), map[string]any{"circuit_us": p.Dur.Microseconds()})
		for _, c := range p.Circuits {
			ct.Span("circuits", c.Name, c.Start.UnixMicro(), c.Dur.Microseconds(),
				map[string]any{"backtracks": c.Backtracks})
			for _, r := range c.Reports {
				ct.Span("checks", fmt.Sprintf("check δ=%d", int64(r.Delta)), r.Started.UnixMicro(),
					r.Elapsed.Microseconds(), map[string]any{"circuit": c.Name, "final": r.Final.String(),
						"backtracks": r.Backtracks})
			}
		}
	}
	return o.saveTrace(cfg, ct)
}

// saveTrace writes the timeline and validates it with obs.ValidateTrace.
func (o *outcome) saveTrace(cfg config, ct *obs.ClusterTrace) error {
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return fmt.Errorf("creating trace dir: %w", err)
	}
	path := fmt.Sprintf("%s/%s-seed%d.trace.json", cfg.TraceDir, cfg.Workload, cfg.Seed)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := ct.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace file: %w", err)
	}
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	if _, err := obs.ValidateTrace(rf); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	o.TraceFile = path
	return nil
}
