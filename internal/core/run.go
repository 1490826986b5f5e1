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
		recordCheck(rep)
		if rs.tracer != nil {
			rs.tracer.CheckDone(rep)
		}
		return rep
	}

	if rs.stoppedNow() {
		return finish(nil, Cancelled)
	}

	// Warm-start: try the sink's memo (see warm.go). Static dominators
	// narrow δ-specific state before the fixpoint, which would poison a
	// seed recorded for a different δ, so they force the cold path.
	// TryLock keeps concurrent same-sink checks independent: the loser
	// solves cold and leaves the memo alone.
	// The memo consultation happens inside the TryLock branch so every
	// guarded-field read is lexically under the lock (the deferred
	// Unlock holds it for the rest of the check, covering the memo
	// writes in stage 1 below).
	var ws *warmState
	var seedSnap []int64
	warmRefuted, seeded := false, false
	if v.opts.UseWarmStart && !v.opts.UseStaticDominators {
		if w := v.warmFor(req.Sink); w.mu.TryLock() {
			ws = w
			defer w.mu.Unlock()
			switch {
			case w.inconsValid && req.Delta >= w.inconsDelta:
				// A stage-1 refutation at a smaller δ refutes this δ
				// outright.
				warmRefuted = true
			case w.snapValid && req.Delta >= w.snapDelta:
				seedSnap = w.snap
				seeded = true
			}
		}
	}

	var sys *constraint.System
	switch {
	case warmRefuted:
	case seeded:
		// Seed from the adjacent fixpoint: the snapshot is already a
		// fixpoint, so narrowing the sink re-schedules only its
		// adjacent constraints and propagation resumes from there.
		sys = ws.system(v.c)
		sys.Restore(seedSnap)
		rs.attach(sys)
		sys.Narrow(req.Sink, waveform.CheckOutput(req.Delta))
	default:
		// Cold solve (no seed, δ moved backwards, or warm-start off).
		// A memo holder still reuses the memo's system — Reset keeps
		// the arena allocations — so the sweep stays allocation-free.
		if ws != nil {
			sys = ws.system(v.c)
			sys.Reset()
		} else {
			sys = constraint.New(v.c)
		}
		rs.attach(sys)
		sys.Narrow(req.Sink, waveform.CheckOutput(req.Delta))
		sys.ScheduleAll()
		if v.opts.UseStaticDominators {
			doms := rs.workspace().dom.Static(v.c, v.order, v.analysis, req.Sink, req.Delta)
			dom.NarrowDominators(sys, doms, req.Delta)
		}
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

	// Stage 1: plain constraint evaluation. A completed fixpoint (or
	// refutation) feeds the sink's memo for the next δ; an interrupted
	// solve records nothing.
	res := stage(StagePlain, func() Result {
		if warmRefuted {
			return NoViolation
		}
		if !sys.Fixpoint() {
			if ws != nil {
				ws.noteRefuted(req.Delta)
			}
			return NoViolation
		}
		if sys.Stopped() {
			return rs.stopVerdict()
		}
		if ws != nil {
			ws.noteFixpoint(sys, req.Delta)
		}
		return PossibleViolation
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

// RunAll runs the timing check (o, req.Delta) for every primary output
// o under ctx and aggregates the verdicts as in Table 1. req.Sink is
// ignored. With req.Workers != 1 the per-output checks fan out over
// req.Workers goroutines (0 = GOMAXPROCS); the aggregate is
// deterministic either way — identical to the serial sweep — because
// checks are independent and deterministic, verdicts merge in
// primary-output order, and once a witness is found every check on a
// later output is cancelled and discarded exactly as the serial sweep
// never would have started it.
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
	return v.runAllParallel(ctx, req, workers)
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

// runAllParallel fans the per-output checks over workers goroutines.
// When a check witnesses a violation, all checks on later outputs are
// cancelled (their results cannot change the first-PO-wins aggregate);
// checks on earlier outputs keep running because a smaller witness
// index would supersede. The kept prefix of reports — up to and
// including the smallest witnessing output — is exactly the sequence
// the serial sweep produces.
func (v *Verifier) runAllParallel(ctx context.Context, req Request, workers int) *CircuitReport {
	pos := v.c.PrimaryOutputs()
	reports := make([]*Report, len(pos))

	var mu sync.Mutex
	witness := len(pos) // smallest witnessing index seen so far
	cancels := make([]context.CancelFunc, len(pos))

	// abandonAfter cancels every running check on an output after idx.
	abandonAfter := func(idx int) {
		for j := idx + 1; j < len(cancels); j++ {
			if cancels[j] != nil {
				cancels[j]()
			}
		}
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				if i > witness {
					mu.Unlock()
					continue // a smaller output already witnessed
				}
				cctx, cancel := context.WithCancel(ctx)
				cancels[i] = cancel
				mu.Unlock()

				r := req
				r.Sink = pos[i]
				var rep *Report
				if req.PprofLabels {
					pprof.Do(cctx, pprof.Labels("ltta_po", v.c.Net(pos[i]).Name), func(lctx context.Context) {
						rep = v.Run(lctx, r)
					})
				} else {
					rep = v.Run(cctx, r)
				}

				mu.Lock()
				cancels[i] = nil
				reports[i] = rep
				if rep.Final == ViolationFound && i < witness {
					witness = i
					abandonAfter(i)
				}
				mu.Unlock()
				cancel()
			}
		}()
	}
	for i := range pos {
		next <- i
	}
	close(next)
	wg.Wait()

	// Keep the serial prefix: everything up to the smallest witnessing
	// output (or everything when no witness). Reports after the witness
	// — completed or cancelled — are discarded, matching the serial
	// sweep that never runs them.
	kept := reports
	if witness < len(pos) {
		kept = reports[:witness+1]
	}
	return AggregateCircuit(req.Delta, kept)
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
