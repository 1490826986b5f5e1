package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/dom"
	"repro/internal/waveform"
)

// Budgets bounds the work one check may perform. A zero field inherits
// the corresponding Options value; a negative field means unlimited.
// Budget exhaustion yields Abandoned (the paper's "A") — the check gave
// up, the question is still open — whereas a deadline or context
// cancellation yields Cancelled (see Request).
type Budgets struct {
	// MaxBacktracks bounds the case-analysis search.
	MaxBacktracks int
	// MaxStemSplits caps the stems correlated per check.
	MaxStemSplits int
	// MaxPropagations bounds total gate-constraint applications across
	// all stages of the check. Options has no counterpart; 0 here means
	// unlimited.
	MaxPropagations int64
}

// Request describes one unit of work for Verifier.Run: a single timing
// check (Sink, Delta), or — via RunAll — the whole-circuit sweep at
// Delta. The zero value of every optional field is the fast path:
// no deadline, no budgets beyond the verifier Options, no tracer.
type Request struct {
	// Sink is the net to check. RunAll ignores it.
	Sink circuit.NetID
	// Delta is the timing-check threshold δ.
	Delta waveform.Time

	// Deadline, when non-zero, is an absolute wall-clock bound on the
	// check; past it the check returns Cancelled within a poll interval
	// (sub-millisecond at engine propagation rates). The context passed
	// to Run is honoured the same way, so ctx deadlines/cancellation
	// and this field compose; whichever fires first wins.
	Deadline time.Time

	// Budgets bounds the check's work; zero fields inherit Options.
	Budgets Budgets

	// Tracer observes the pipeline. nil (the default) costs nothing.
	Tracer Tracer

	// VerifyOnly runs only the verify() procedure of Figure 4 —
	// fixpoint plus global implications, no stem correlation or case
	// analysis — and reports NoViolation or PossibleViolation.
	VerifyOnly bool

	// Workers fans RunAll's per-output checks over this many
	// goroutines; 0 means GOMAXPROCS, 1 forces the serial sweep. Run
	// ignores it (a single check is sequential).
	Workers int

	// PprofLabels tags each per-output goroutine of a parallel RunAll
	// with a pprof label ("ltta_po" = output name) so CPU profiles
	// attribute time to individual checks.
	PprofLabels bool

	// Arena, when non-nil, backs the returned reports with
	// caller-owned reusable storage; see ReportArena for the ownership
	// contract. nil (the default) allocates fresh reports the caller
	// owns outright.
	Arena *ReportArena
}

// runState threads the per-check cancellation, budget, and tracing
// state through the pipeline stages. The zero value (no context, no
// deadline, no budgets, no tracer) is the free path.
type runState struct {
	ctx         context.Context // nil when not cancellable
	deadline    time.Time
	hasDeadline bool
	maxProps    int64
	maxBack     int
	maxSplits   int
	tracer      Tracer

	cancelled bool // context cancelled or deadline exceeded
	exhausted bool // propagation budget exhausted

	// ws is the stage 2–4 scratch storage; it survives initRunState so
	// an arena-held run state keeps it across checks. domBuf, when
	// non-nil, is the arena slot backing the report's DominatorSet.
	ws     *workspace
	domBuf *dom.Dominators
}

// resolveBudget merges a request budget with the Options default:
// 0 inherits, negative means unlimited.
func resolveBudget(req, opt int) int {
	switch {
	case req < 0:
		return 0
	case req > 0:
		return req
	}
	return opt
}

func (v *Verifier) initRunState(rs *runState, ctx context.Context, req *Request) {
	*rs = runState{
		maxBack:   resolveBudget(req.Budgets.MaxBacktracks, v.opts.MaxBacktracks),
		maxSplits: resolveBudget(req.Budgets.MaxStemSplits, v.opts.MaxStemSplits),
		tracer:    req.Tracer,
		ws:        rs.ws,
	}
	if req.Budgets.MaxPropagations > 0 {
		rs.maxProps = req.Budgets.MaxPropagations
	}
	if ctx != nil && ctx.Done() != nil {
		rs.ctx = ctx
	}
	if !req.Deadline.IsZero() {
		rs.deadline = req.Deadline
		rs.hasDeadline = true
	}
}

// attach installs the stop poll on the constraint system when the
// request can actually stop early; otherwise the system keeps its
// zero-overhead nil stop function.
func (rs *runState) attach(sys *constraint.System) {
	if rs.ctx == nil && !rs.hasDeadline && rs.maxProps == 0 {
		return
	}
	sys.SetStopFunc(func() bool {
		if rs.maxProps > 0 && sys.Propagations >= rs.maxProps {
			rs.exhausted = true
			return true
		}
		if rs.ctx != nil {
			select {
			case <-rs.ctx.Done():
				rs.cancelled = true
				return true
			default:
			}
		}
		if rs.hasDeadline && !time.Now().Before(rs.deadline) {
			rs.cancelled = true
			return true
		}
		return false
	})
}

// stopVerdict translates an interrupted solver into the check verdict:
// Cancelled for deadline/context, Abandoned for budget exhaustion.
func (rs *runState) stopVerdict() Result {
	if rs.cancelled {
		return Cancelled
	}
	return Abandoned
}

// stoppedNow reports an already-expired request before any work starts
// (cancelled context or past deadline), so Run returns Cancelled
// immediately instead of after the first poll interval.
func (rs *runState) stoppedNow() bool {
	if rs.ctx != nil {
		select {
		case <-rs.ctx.Done():
			rs.cancelled = true
			return true
		default:
		}
	}
	if rs.hasDeadline && !time.Now().Before(rs.deadline) {
		rs.cancelled = true
		return true
	}
	return false
}

// Run executes the timing check described by req under ctx — the
// engine's single entry point. The pipeline is the paper's: plain
// fixpoint, global implications on timing dominators plus learning,
// stem correlation, then case analysis, stopping at the first stage
// that proves NoViolation. Cancellation (ctx or req.Deadline) returns
// a report with Final == Cancelled within a poll interval; budget
// exhaustion returns Abandoned.
//
// With Options.UseConeSlicing the check is solved on the sink's
// fan-in cone slice (cached per sink on the shared Prepared) and the
// report — sink, witness, dominator set, trace events — is translated
// back to original-circuit ids; see runCone. Sinks whose cone spans
// the whole circuit solve on the original system directly.
func (v *Verifier) Run(ctx context.Context, req Request) *Report {
	if req.Arena != nil {
		req.Arena.begin()
	}
	return v.dispatch(ctx, req)
}

// dispatch routes the check to its cone sub-verifier or the
// whole-circuit solver without restarting the request's arena — the
// serial sweep calls it once per output inside a single arena cycle.
func (v *Verifier) dispatch(ctx context.Context, req Request) *Report {
	if v.opts.UseConeSlicing && v.prep != nil {
		if cv := v.coneFor(req.Sink); cv != nil {
			return v.runCone(ctx, req, cv)
		}
	}
	return v.run(ctx, req)
}

// run solves the check on this verifier's own circuit (the whole
// circuit, or a cone slice when called from runCone).
func (v *Verifier) run(ctx context.Context, req Request) *Report {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	var rs *runState
	var rep *Report
	var domBuf *dom.Dominators
	if req.Arena != nil {
		rs = &req.Arena.rs
		rep, domBuf = req.Arena.report()
	} else {
		rs = new(runState)
		rep = new(Report)
	}
	v.initRunState(rs, ctx, &req)
	rs.domBuf = domBuf
	*rep = Report{
		Sink: req.Sink, Delta: req.Delta,
		AfterGITD: StageSkipped, AfterStem: StageSkipped, CaseAnalysis: StageSkipped,
		Backtracks: -1, Started: start,
	}
	if rs.tracer != nil {
		rs.tracer.CheckStart(req.Sink, req.Delta)
	}

	finish := func(sys *constraint.System, final Result) *Report {
		rep.Final = final
		if sys != nil {
			rep.Propagations = sys.Propagations
			rep.Stats.Narrowings = sys.Narrowings
			rep.Stats.QueueHighWater = sys.QueueHighWater()
		}
		rep.Elapsed = time.Since(start)
		if rs.tracer != nil {
			rs.tracer.CheckDone(rep)
		}
		return rep
	}

	if rs.stoppedNow() {
		return finish(nil, Cancelled)
	}

	// stage brackets a pipeline stage with tracing and timing.
	stage := func(st Stage, f func() Result) Result {
		if rs.tracer != nil {
			rs.tracer.StageEnter(st)
		}
		stageStart := time.Now()
		res := f()
		elapsed := time.Since(stageStart)
		rep.Stats.StageTime[st] = elapsed
		if rs.tracer != nil {
			rs.tracer.StageExit(st, res, elapsed)
		}
		return res
	}

	// Stage 1: plain constraint evaluation.
	var sys *constraint.System
	res := stage(StagePlain, func() Result {
		var res Result
		sys, res = v.plain(rs, req.Arena, req.Sink, req.Delta)
		return res
	})
	rep.BeforeGITD = res
	if res != PossibleViolation {
		return finish(sys, res)
	}

	// Stage 2: global implications (dominators + learning). The first
	// check that reads the learning table builds it here, inside the
	// stage; the build cannot be interrupted, so the deadline is polled
	// after it.
	gitd := func() Result {
		if v.opts.UseLearning {
			v.learnTable()
			if rs.stoppedNow() {
				return rs.stopVerdict()
			}
		}
		return v.evaluate(rs, sys, req.Sink, req.Delta, rep)
	}
	if req.VerifyOnly {
		if !v.opts.UseDominators && !v.opts.UseLearning {
			return finish(sys, PossibleViolation)
		}
		res = stage(StageGITD, gitd)
		rep.AfterGITD = res
		return finish(sys, res)
	}
	if v.opts.UseDominators || v.opts.UseLearning {
		res = stage(StageGITD, gitd)
		rep.AfterGITD = res
		if res != PossibleViolation {
			return finish(sys, res)
		}
	}

	// Stage 3: stem correlation.
	if v.opts.UseStemCorrelation {
		res = stage(StageStem, func() Result { return v.stemCorrelation(rs, sys, req.Sink, req.Delta, rep) })
		rep.AfterStem = res
		if res != PossibleViolation {
			return finish(sys, res)
		}
	}

	// Stage 4: case analysis.
	res = stage(StageCase, func() Result { return v.caseAnalysis(rs, sys, req.Sink, req.Delta, rep) })
	rep.CaseAnalysis = res
	return finish(sys, res)
}

// plain is stage 1, the greatest fixpoint with the sink narrowed to
// CheckOutput(δ), solved from the base snapshot (DESIGN.md §14): only
// the sink narrowing and static dominators propagate. A sink whose base
// domain has no transition at or after δ is refuted with no system
// (nil). The first check builds the base in its own system, then polls
// the deadline. Without a base the check solves from the initial
// domains with every gate scheduled.
func (v *Verifier) plain(rs *runState, a *ReportArena, sink circuit.NetID, delta waveform.Time) (*constraint.System, Result) {
	var sys *constraint.System
	if a != nil {
		sys = a.system(v.c)
	}
	snap := v.base.get(v.c, &sys)
	switch {
	case rs.stoppedNow():
		return nil, rs.stopVerdict()
	case snap != nil && !constraint.SnapshotDomain(snap, sink).HasTransitionAtOrAfter(delta):
		return nil, NoViolation
	case sys == nil:
		sys = constraint.NewFrom(v.c, snap)
	case snap == nil:
		sys.Reset()
	default:
		sys.Restore(snap)
	}
	rs.attach(sys)
	sys.Narrow(sink, waveform.CheckOutput(delta))
	if snap == nil {
		sys.ScheduleAll()
	}
	if v.opts.UseStaticDominators {
		doms := rs.workspace().dom.Static(v.c, v.levels, v.analysis, sink, delta)
		dom.NarrowDominators(sys, doms, delta)
	}
	if !sys.Fixpoint() {
		return sys, NoViolation
	}
	if sys.Stopped() {
		return sys, rs.stopVerdict()
	}
	return sys, PossibleViolation
}

// RunAll runs the timing check (o, req.Delta) for every primary output
// o under ctx and aggregates the verdicts as in Table 1. req.Sink is
// ignored. With req.Workers != 1 the per-output checks run through
// FirstWitness on req.Workers goroutines (0 = GOMAXPROCS); the
// aggregate is identical to the serial sweep's either way.
func (v *Verifier) RunAll(ctx context.Context, req Request) *CircuitReport {
	if ctx == nil {
		ctx = context.Background()
	}
	pos := v.c.PrimaryOutputs()
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pos) {
		workers = len(pos)
	}
	if workers <= 1 {
		if req.Arena != nil {
			req.Arena.begin()
		}
		return v.runAllSerial(ctx, req)
	}
	// Parallel checks cannot share one arena; allocate as if none were
	// passed (see ReportArena).
	req.Arena = nil
	tasks := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range tasks {
				f()
			}
		}()
	}
	submit := func(_ context.Context, f func()) bool {
		tasks <- f
		return true
	}
	reports := v.FirstWitness(ctx, req.Delta, submit, func(ctx context.Context, i int) *Report {
		r := req
		r.Sink = pos[i]
		if !req.PprofLabels {
			return v.Run(ctx, r)
		}
		var rep *Report
		pprof.Do(ctx, pprof.Labels("ltta_po", v.c.Net(pos[i]).Name), func(lctx context.Context) {
			rep = v.Run(lctx, r)
		})
		return rep
	})
	close(tasks)
	wg.Wait()
	return AggregateCircuit(req.Delta, reports)
}

func (v *Verifier) runAllSerial(ctx context.Context, req Request) *CircuitReport {
	pos := v.c.PrimaryOutputs()
	a := req.Arena
	var reports []*Report
	if a != nil {
		reports = a.sweep[:0]
	}
	for _, po := range pos {
		r := req
		r.Sink = po
		rep := v.dispatch(ctx, r)
		reports = append(reports, rep)
		if rep.Final == ViolationFound || rep.Final == Cancelled {
			break // a single witness decides the circuit check
		}
	}
	if a != nil {
		a.sweep = reports
		cr := aggregateCircuit(&a.cr, a.perOut, req.Delta, reports)
		a.perOut = cr.PerOutput
		return cr
	}
	return AggregateCircuit(req.Delta, reports)
}

// FirstWitness is the Table-1 whole-circuit check at delta on the
// caller's executor: RunAll runs it on its own goroutines, lttad on its
// worker pool. check(ctx, i) answers the check on the i-th primary
// output; submit hands a task to the executor and reports false when
// the executor refused it (the task will never run), which leaves that
// output a Cancelled report.
//
// Outputs are submitted in order. Once output i witnesses a violation,
// every check on a later output is cancelled and no later output is
// submitted; earlier outputs keep running, because a smaller witness
// index would supersede. The result is the serial prefix — every
// report up to and including the smallest witnessing output, or all of
// them — which is what the serial sweep returns, since checks are
// independent and deterministic. FirstWitness returns once every task
// it submitted has finished.
func (v *Verifier) FirstWitness(ctx context.Context, delta waveform.Time,
	submit func(context.Context, func()) bool, check func(ctx context.Context, i int) *Report) []*Report {
	pos := v.c.PrimaryOutputs()
	reports := make([]*Report, len(pos))

	var mu sync.Mutex
	witness := len(pos)                             // guarded by mu: smallest witnessing index so far
	cancels := make([]context.CancelFunc, len(pos)) // guarded by mu
	won := func() int {
		mu.Lock()
		defer mu.Unlock()
		return witness
	}

	var wg sync.WaitGroup
	for i := range pos {
		if i > won() {
			break // later outputs cannot change the aggregate
		}
		wg.Add(1)
		task := func() {
			defer wg.Done()
			mu.Lock()
			if i > witness {
				mu.Unlock()
				return // a smaller output witnessed while this one queued
			}
			cctx, cancel := context.WithCancel(ctx)
			cancels[i] = cancel
			mu.Unlock()

			rep := check(cctx, i)
			cancel()

			mu.Lock()
			defer mu.Unlock()
			cancels[i] = nil
			reports[i] = rep
			if rep.Final == ViolationFound && i < witness {
				witness = i
				for _, c := range cancels[i+1:] {
					if c != nil {
						c()
					}
				}
			}
		}
		if !submit(ctx, task) {
			wg.Done()
			reports[i] = AbortedReport(pos[i], delta, Cancelled)
		}
	}
	wg.Wait()
	if witness < len(pos) {
		return reports[:witness+1]
	}
	return reports
}

// AbortedReport is the terminal record of a check the engine never
// finished: Cancelled when the question was withdrawn before it reached
// the engine (what Run returns for a dead context), Abandoned when no
// engine could answer it (a served check that panicked, or that no
// worker could take).
func AbortedReport(sink circuit.NetID, delta waveform.Time, final Result) *Report {
	return &Report{
		Sink: sink, Delta: delta,
		BeforeGITD: PossibleViolation, AfterGITD: StageSkipped,
		AfterStem: StageSkipped, CaseAnalysis: StageSkipped,
		Backtracks: -1, Final: final,
	}
}

// AggregateCircuit merges per-output reports (in primary-output order)
// into the Table-1 aggregate. RunAll passes the serial prefix — every
// report up to and including the first witnessing output — so the
// serial and parallel sweeps are identical by construction; external
// sweep drivers (the lttad service) may pass the full per-output list
// when they check every output exhaustively, in which case the
// aggregate still reports the first witnessing output and sums the
// counters over everything that ran.
func AggregateCircuit(delta waveform.Time, reports []*Report) *CircuitReport {
	return aggregateCircuit(new(CircuitReport), nil, delta, reports)
}

// aggregateCircuit is AggregateCircuit into caller-provided storage:
// cr is overwritten and perOut[:0] becomes its PerOutput backing (nil
// allocates normally).
func aggregateCircuit(cr *CircuitReport, perOut []*Report, delta waveform.Time, reports []*Report) *CircuitReport {
	*cr = CircuitReport{Delta: delta, WitnessOutput: -1,
		BeforeGITD: NoViolation, AfterGITD: StageSkipped, AfterStem: StageSkipped,
		CaseAnalysis: StageSkipped, Final: NoViolation,
		PerOutput: perOut[:0]}
	anyAbandoned := false
	anyCancelled := false
	caRan := false
	caOpen := false // a CA run was interrupted before concluding
	for i, rep := range reports {
		cr.PerOutput = append(cr.PerOutput, rep)
		if rep.BeforeGITD != NoViolation {
			cr.BeforeGITD = PossibleViolation
		}
		cr.AfterGITD = mergeStage(cr.AfterGITD, rep.AfterGITD)
		cr.AfterStem = mergeStage(cr.AfterStem, rep.AfterStem)
		if rep.CaseAnalysis != StageSkipped {
			caRan = true
			if rep.CaseAnalysis == Cancelled {
				caOpen = true
			}
			if rep.Backtracks > 0 {
				cr.Backtracks += rep.Backtracks
			}
		}
		cr.Propagations += rep.Propagations
		cr.Dominators += rep.Dominators
		cr.DominatorRounds += rep.DominatorRounds
		switch rep.Final {
		case ViolationFound:
			if cr.WitnessOutput < 0 {
				cr.WitnessOutput = i
				cr.CaseAnalysis = ViolationFound
				cr.Final = ViolationFound
			}
		case Abandoned:
			anyAbandoned = true
		case Cancelled:
			anyCancelled = true
		}
	}
	if cr.Final != ViolationFound {
		switch {
		case anyCancelled:
			// A cancellation mid-case-analysis leaves that stage's question
			// open; CA runs that concluded on other outputs still merge N.
			switch {
			case caOpen:
				cr.CaseAnalysis = PossibleViolation
			case caRan:
				cr.CaseAnalysis = NoViolation
			}
			cr.Final = Cancelled
		case anyAbandoned:
			cr.CaseAnalysis = Abandoned
			cr.Final = Abandoned
		case caRan:
			cr.CaseAnalysis = NoViolation
		}
	}
	return cr
}
