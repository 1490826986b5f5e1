package server

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// batch is one admitted submission executed on the worker's pool.
// The handler goroutine owns it: it prepares the circuit, fans checks
// out over the server's shared pool, and assembles the response (or
// streams events as they arrive).
type batch struct {
	*batchHead
	srv     *Server
	prep    *core.Prepared // registry-cached precompute; nil on the inline path
	opts    core.Options
	budgets core.Budgets
	rec     *obs.SpanRecorder // per-batch timeline when Config.TraceDir is set

	checkTimeout time.Duration

	countMu   sync.Mutex // guards checksRun against pool workers
	checksRun int
}

// run executes the batch. With em == nil the results are collected
// into resp; otherwise every check/sweep/rows record is additionally
// emitted as it becomes available.
func (b *batch) run(ctx context.Context, resp *Response, em *emitter) (int, timeline) {
	prep := b.prep
	if prep == nil { // inline path: the batch pays its own preparation
		prep = core.Prepare(b.c)
	}
	v := prep.NewVerifier(b.opts)

	switch {
	case b.req.Sweep == nil:
		resp.Results = b.runChecks(ctx, v, em)
	case b.req.Sweep.Table1:
		resp.Rows, resp.Sweeps = b.runTable1(ctx, v, em)
	default:
		for _, d := range b.req.Sweep.Deltas {
			sw := b.runSweep(ctx, v, waveform.Time(d), em)
			resp.Sweeps = append(resp.Sweeps, sw)
			em.emit(Event{Type: "sweep", Sweep: &sw})
		}
	}
	if b.rec == nil {
		return b.checksRun, nil
	}
	return b.checksRun, b.rec
}

// runOne executes one check on the server pool and logs its outcome
// with the batch-scoped logger (panics at Error, results at Debug).
func (b *batch) runOne(ctx context.Context, v *core.Verifier, req core.Request) (*core.Report, string) {
	if b.rec != nil {
		req.Tracer = b.rec
	}
	start := time.Now()
	rep, panicMsg := b.srv.runOne(ctx, v, req)
	lvl := slog.LevelDebug
	attrs := []slog.Attr{
		slog.String("sink", b.c.Net(rep.Sink).Name),
		slog.Int64("delta", int64(rep.Delta)),
		slog.String("verdict", rep.Final.String()),
		slog.Duration("elapsed", time.Since(start)),
	}
	if panicMsg != "" {
		lvl = slog.LevelError
		attrs = append(attrs, slog.String("panic", panicMsg))
	}
	b.log.LogAttrs(ctx, lvl, "check", attrs...)
	return rep, panicMsg
}

// emitCheck finalises one terminal check: it converts the report on
// the wire, stamps the distributed-trace fields, feeds the always-on
// flight recorder and the latency exemplar, and emits the "check"
// event — plus an in-band span summary when the submitter asked for
// tracing (req.Trace set). Trace stamping lives here, at the emission
// layer, so ResultFromReport stays a pure verdict conversion.
func (b *batch) emitCheck(em *emitter, i int, rep *core.Report, panicMsg string) CheckResult {
	res := ResultFromReport(b.c, i, rep)
	res.Error = panicMsg
	b.stampTrace(&res, rep)
	b.recordFlight(&res)
	em.emit(Event{Type: "check", Check: &res})
	if b.req.Trace != nil {
		em.emit(Event{Type: "spans", Spans: b.spanSummary(&res), TraceID: res.TraceID})
	}
	return res
}

// stampTrace attributes a terminal result to the batch's trace: a
// fresh span id, the wall-clock start (reconstructed for checks that
// never reached the engine), and per-stage durations in pipeline
// order. Zero stage time (cancelled before any stage ran) leaves
// StageUs nil.
func (b *batch) stampTrace(res *CheckResult, rep *core.Report) {
	res.TraceID = b.trace.TraceID
	res.SpanID = api.NewSpanID()
	started := rep.Started
	if started.IsZero() { // cancelled or panicked before the engine stamped it
		started = time.Now().Add(-rep.Elapsed)
	}
	res.StartUnixUs = started.UnixMicro()
	var total time.Duration
	for _, d := range rep.Stats.StageTime {
		total += d
	}
	if total > 0 {
		res.StageUs = make([]int64, core.NumStages)
		for st, d := range rep.Stats.StageTime {
			res.StageUs[st] = d.Microseconds()
		}
	}
}

// recordFlight stores the check in the server's flight recorder and
// pins it as the exemplar of its latency-histogram bucket.
func (b *batch) recordFlight(res *CheckResult) {
	rec := &obs.CheckRecord{
		TraceID: res.TraceID, SpanID: res.SpanID, Tenant: b.trace.Tenant,
		Batch: b.id, Sink: res.Sink, Delta: res.Delta,
		Verdict: res.Final, Error: res.Error,
		StartUnixUs: res.StartUnixUs, ElapsedUs: res.ElapsedUs, StageUs: res.StageUs,
		Propagations: res.Propagations, Backtracks: res.Backtracks,
	}
	if sh := b.req.Shard; sh != nil {
		rec.Worker, rec.Attempt, rec.Hedge = sh.Worker, sh.Attempt, sh.Hedge
	}
	b.srv.flight.Record(rec)
	b.srv.eng.CheckSeconds.SetExemplar(res.ElapsedUs*1000, res.TraceID)
}

// spanSummary packages a check's timings as the in-band span tree a
// coordinator folds into its cluster timeline: the check span plus
// stage sub-spans laid end to end from the check start.
func (b *batch) spanSummary(res *CheckResult) *api.SpanSummary {
	sum := &api.SpanSummary{
		Index: res.Index, TraceID: res.TraceID, SpanID: res.SpanID,
		Sink: res.Sink, Delta: res.Delta,
		StartUnixUs: res.StartUnixUs, DurUs: res.ElapsedUs, Verdict: res.Final,
	}
	if sh := b.req.Shard; sh != nil {
		sum.Worker, sum.Attempt = sh.Worker, sh.Attempt
	}
	var off int64
	for st, us := range res.StageUs {
		if us <= 0 {
			continue
		}
		sum.Spans = append(sum.Spans, api.Span{Name: core.Stage(st).String(), StartUs: off, DurUs: us})
		off += us
	}
	return sum
}

// baseRequest builds the core request template shared by the batch's
// checks: budgets, and the per-check deadline if any timeout applies.
func (b *batch) baseRequest() core.Request {
	req := core.Request{Budgets: b.budgets}
	return req
}

// withDeadline stamps the per-check deadline at submission time.
func (b *batch) withDeadline(req core.Request) core.Request {
	if b.checkTimeout > 0 {
		req.Deadline = time.Now().Add(b.checkTimeout)
	}
	return req
}

// runChecks executes an explicit batch: every check is independent,
// submitted to the pool in order, with results collected (and
// streamed) as they complete. A check whose submission the context
// cuts off still gets a terminal result: verdict C.
func (b *batch) runChecks(ctx context.Context, v *core.Verifier, em *emitter) []CheckResult {
	results := make([]CheckResult, len(b.checks))
	var wg sync.WaitGroup
	for i, rc := range b.checks {
		i, rc := i, rc
		req := b.baseRequest()
		req.Sink, req.Delta, req.VerifyOnly = rc.sink, rc.delta, rc.verifyOnly
		wg.Add(1)
		run := func() {
			defer wg.Done()
			rep, panicMsg := b.runOne(ctx, v, b.withDeadline(req))
			results[i] = b.emitCheck(em, i, rep, panicMsg)
		}
		if !b.srv.submit(ctx, run) {
			// Context over before a worker freed up: report the check as
			// cancelled without occupying the pool (v.Run on a dead
			// context returns Cancelled immediately; this is the same
			// answer without the queue round trip).
			wg.Done()
			results[i] = b.emitCheck(em, i, abortedReport(rc.sink, rc.delta, core.Cancelled), "")
		}
	}
	wg.Wait()
	b.checksRun += len(b.checks)
	return results
}

// abortedReport is the terminal record of a check the engine never
// finished: Cancelled when the caller withdrew the question before it
// reached a worker (exactly what core.Run returns for a dead context),
// Abandoned when it panicked or no worker could answer it.
func abortedReport(sink circuit.NetID, delta waveform.Time, final core.Result) *core.Report {
	return &core.Report{
		Sink: sink, Delta: delta,
		BeforeGITD: core.PossibleViolation, AfterGITD: core.StageSkipped,
		AfterStem: core.StageSkipped, CaseAnalysis: core.StageSkipped,
		Backtracks: -1, Final: final,
	}
}

// runSweep checks (o, δ) for every primary output o, exhaustively —
// every output gets exactly one terminal result (streamed as it
// lands) and the aggregate covers all of them. This is the serving
// analogue of core.RunAll without the first-witness early exit:
// batch clients want every answer, not just the circuit verdict.
func (b *batch) runSweep(ctx context.Context, v *core.Verifier, delta waveform.Time, em *emitter) SweepResult {
	pos := v.Circuit().PrimaryOutputs()
	reports := make([]*core.Report, len(pos))
	results := make([]CheckResult, len(pos))
	var wg sync.WaitGroup
	for i, po := range pos {
		i, po := i, po
		req := b.baseRequest()
		req.Sink, req.Delta = po, delta
		wg.Add(1)
		run := func() {
			defer wg.Done()
			rep, panicMsg := b.runOne(ctx, v, b.withDeadline(req))
			reports[i] = rep
			results[i] = b.emitCheck(em, i, rep, panicMsg)
		}
		if !b.srv.submit(ctx, run) {
			wg.Done()
			reports[i] = abortedReport(po, delta, core.Cancelled)
			results[i] = b.emitCheck(em, i, reports[i], "")
		}
	}
	wg.Wait()
	b.checksRun += len(pos)
	// The aggregate is rebuilt from the raw reports, but the per-output
	// entries keep the emitted results so the trace attribution (and
	// any panic message) stamped at emission survives into the JSON
	// document — document and stream clients see the same results.
	sw := SweepFromReport(b.c, core.AggregateCircuit(delta, reports))
	sw.PerOutput = results
	return sw
}

// runSweepFirstWins reproduces core.RunAll's protocol over the shared
// pool: per-output checks fan out, a witnessed violation on output i
// cancels every running check on a later output, and the aggregate is
// built from the serial prefix — every report up to and including the
// smallest witnessing output — so the result is identical (stage by
// stage, witness by witness) to RunAll on the same circuit.
func (b *batch) runSweepFirstWins(ctx context.Context, v *core.Verifier, delta waveform.Time, em *emitter) *core.CircuitReport {
	pos := v.Circuit().PrimaryOutputs()
	reports := make([]*core.Report, len(pos))

	var mu sync.Mutex
	witness := len(pos) // smallest witnessing index so far
	cancels := make([]context.CancelFunc, len(pos))
	var wg sync.WaitGroup

	for i, po := range pos {
		i, po := i, po
		req := b.baseRequest()
		req.Sink, req.Delta = po, delta
		wg.Add(1)
		run := func() {
			defer wg.Done()
			mu.Lock()
			if i > witness {
				mu.Unlock()
				return // a smaller output already witnessed; discarded anyway
			}
			cctx, cancel := context.WithCancel(ctx)
			cancels[i] = cancel
			mu.Unlock()
			defer cancel()

			rep, panicMsg := b.runOne(cctx, v, b.withDeadline(req))
			mu.Lock()
			cancels[i] = nil
			reports[i] = rep
			if rep.Final == core.ViolationFound && i < witness {
				witness = i
				for j := i + 1; j < len(cancels); j++ {
					if cancels[j] != nil {
						cancels[j]()
					}
				}
			}
			keep := i <= witness
			mu.Unlock()
			b.countCheck()
			if keep {
				b.emitCheck(em, i, rep, panicMsg)
			}
		}
		if !b.srv.submit(ctx, run) {
			wg.Done()
			mu.Lock()
			reports[i] = abortedReport(po, delta, core.Cancelled)
			keep := i <= witness
			mu.Unlock()
			b.countCheck()
			if keep {
				b.emitCheck(em, i, reports[i], "")
			}
		}
	}
	wg.Wait()

	kept := reports
	if witness < len(pos) {
		kept = reports[:witness+1]
	}
	return core.AggregateCircuit(delta, kept)
}

// countCheck tallies finished checks under the emitter-independent
// batch counter (pool workers race on it during first-wins sweeps).
func (b *batch) countCheck() {
	// checksRun is read only after wg.Wait(), but increments happen on
	// pool workers; keep them serialised.
	b.countMu.Lock()
	b.checksRun++
	b.countMu.Unlock()
}

// runTable1 reproduces harness.CircuitRowsParallel server-side: the
// exact circuit floating delay D (binary search per output, run as one
// sequential pool task), then the paper's row pair δ = D+1 and δ = D
// via first-witness-wins sweeps. Rows and per-δ aggregates are
// byte-identical to the in-process harness on the same netlist — the
// differential e2e suite enforces it.
func (b *batch) runTable1(ctx context.Context, v *core.Verifier, em *emitter) ([]Row, []SweepResult) {
	var (
		res *core.DelayResult
		err error
	)
	req := b.baseRequest()
	done := make(chan struct{})
	search := func() {
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				b.srv.panics.Add(1)
				err = badRequest("delay_search_panic", "delay search panicked: %v", p)
			}
		}()
		res, err = v.CircuitFloatingDelayCtx(ctx, req)
	}
	if !b.srv.submit(ctx, search) {
		em.emit(Event{Type: "error", Error: "cancelled before the delay search started"})
		return nil, nil
	}
	<-done
	if res != nil {
		b.checksRun += res.Checks
	}
	if err != nil && res == nil {
		em.emit(Event{Type: "error", Error: err.Error()})
		return nil, nil
	}

	var rows []Row
	var sweeps []SweepResult
	for _, r := range harness.RowPair(b.c.Name, v, res, func(d waveform.Time) *core.CircuitReport {
		cr := b.runSweepFirstWins(ctx, v, d, em)
		sweeps = append(sweeps, SweepFromReport(b.c, cr))
		return cr
	}) {
		rows = append(rows, r.Wire())
	}
	for i := range sweeps {
		em.emit(Event{Type: "sweep", Sweep: &sweeps[i]})
	}
	em.emit(Event{Type: "rows", Rows: rows})
	return rows, sweeps
}
