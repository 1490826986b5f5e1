package server

import (
	"context"
	"fmt"
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
// The handler goroutine owns it: it fans checks out over the server's
// shared pool against the registry's prepared state, and assembles the
// response (or streams events as they arrive).
type batch struct {
	*batchHead
	srv     *Server
	v       *core.Verifier // over the pinned entry's shared precompute
	budgets core.Budgets
	ct      *obs.ClusterTrace // per-batch timeline when Config.TraceDir is set

	checkTimeout time.Duration

	checksRun int // written by the handler goroutine only
}

// run executes the batch. With em == nil the results are collected
// into resp; otherwise every check/sweep/rows record is additionally
// emitted as it becomes available.
func (b *batch) run(ctx context.Context, resp *Response, em *emitter) (int, *obs.ClusterTrace) {
	switch {
	case b.req.Sweep == nil:
		resp.Results, _ = b.runChecks(ctx, b.v, b.checks, em)
	case b.req.Sweep.Table1:
		resp.Rows, resp.Sweeps = b.runTable1(ctx, b.v, em)
	default:
		for _, d := range b.req.Sweep.Deltas {
			sw := b.runSweep(ctx, b.v, waveform.Time(d), em)
			resp.Sweeps = append(resp.Sweeps, sw)
			em.emit(Event{Type: "sweep", Sweep: &sw})
		}
	}
	return b.checksRun, b.ct
}

// runOne executes one check on the calling pool worker under the
// server's engine tracer and logs its outcome with the batch-scoped
// logger (panics at Error, results at Debug). It isolates panics: a
// crashing check yields a synthetic Abandoned report (the engine gave
// up; claiming N would be unsound) plus the panic message, and the rest
// of the batch is unaffected.
func (b *batch) runOne(ctx context.Context, v *core.Verifier, req core.Request) (rep *core.Report, panicMsg string) {
	start := time.Now()
	defer func() {
		lvl := slog.LevelDebug
		if p := recover(); p != nil {
			b.srv.panics.Add(1)
			panicMsg = fmt.Sprintf("check panicked: %v", p)
			rep = core.AbortedReport(req.Sink, req.Delta, core.Abandoned)
			lvl = slog.LevelError
		}
		attrs := []slog.Attr{
			slog.String("sink", b.pin.Circuit().Net(rep.Sink).Name),
			slog.Int64("delta", int64(rep.Delta)),
			slog.String("verdict", rep.Final.String()),
			slog.Duration("elapsed", time.Since(start)),
		}
		if panicMsg != "" {
			attrs = append(attrs, slog.String("panic", panicMsg))
		}
		b.log.LogAttrs(ctx, lvl, "check", attrs...)
	}()
	req.Tracer = b.srv.eng
	rep = v.Run(ctx, req)
	b.srv.checksRun.Add(1)
	return rep, ""
}

// emitCheck finalises one terminal check: it converts the report on
// the wire, stamps the distributed-trace fields, feeds the always-on
// flight recorder, the latency exemplar and the batch timeline, and
// emits the "check" event — plus an in-band span summary when the
// submitter asked for tracing (req.Trace set). Trace stamping lives
// here, at the emission layer, so ResultFromReport stays a pure
// verdict conversion.
func (b *batch) emitCheck(em *emitter, i int, rep *core.Report, panicMsg string) CheckResult {
	res := ResultFromReport(b.pin.Circuit(), i, rep)
	res.Error = panicMsg
	b.stampTrace(&res, rep)
	b.recordFlight(&res)
	b.recordTimeline(rep, res.SpanID)
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

// recordTimeline puts a finished check on the batch timeline, when
// TraceDir asked for one. spanID is empty for the delay search's
// checks, which are never emitted.
func (b *batch) recordTimeline(rep *core.Report, spanID string) {
	if b.ct == nil {
		return
	}
	args := map[string]any{"trace_id": b.trace.TraceID, "batch": b.id}
	if spanID != "" {
		args["span_id"] = spanID
	}
	if sh := b.req.Shard; sh != nil {
		args["attempt"] = sh.Attempt
	}
	b.ct.Check("checks", b.pin.Circuit().Net(rep.Sink).Name, rep, args)
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
	// A stage ran when its verdict column is not "-"; one that ran in
	// under a microsecond still gets its (0 µs) span.
	ran := [core.NumStages]string{res.BeforeGITD, res.AfterGITD, res.AfterStem, res.CaseAnalysis}
	var off int64
	for st, us := range res.StageUs {
		if st >= len(ran) || ran[st] == core.StageSkipped.String() {
			continue
		}
		sum.Spans = append(sum.Spans, api.Span{Name: core.Stage(st).String(), StartUs: off, DurUs: us})
		off += us
	}
	return sum
}

// checkRequest is the core request of one check, built when a pool
// worker picks it up: the batch's budgets, and the per-check deadline
// if a timeout applies.
func (b *batch) checkRequest(sink circuit.NetID, delta waveform.Time) core.Request {
	req := core.Request{Sink: sink, Delta: delta, Budgets: b.budgets}
	if b.checkTimeout > 0 {
		req.Deadline = time.Now().Add(b.checkTimeout)
	}
	return req
}

// runChecks executes independent checks: each is submitted to the pool
// in order, with results collected (and streamed) as they complete. A
// check whose submission the context cuts off still gets a terminal
// result: verdict C. It returns the results and the reports behind
// them, in check order.
func (b *batch) runChecks(ctx context.Context, v *core.Verifier, checks []resolvedCheck, em *emitter) ([]CheckResult, []*core.Report) {
	results := make([]CheckResult, len(checks))
	reports := make([]*core.Report, len(checks))
	var wg sync.WaitGroup
	for i, rc := range checks {
		wg.Add(1)
		run := func() {
			defer wg.Done()
			req := b.checkRequest(rc.sink, rc.delta)
			req.VerifyOnly = rc.verifyOnly
			rep, panicMsg := b.runOne(ctx, v, req)
			reports[i], results[i] = rep, b.emitCheck(em, i, rep, panicMsg)
		}
		if !b.srv.submit(ctx, run) {
			// Context over before a worker freed up: report the check as
			// cancelled without occupying the pool (v.Run on a dead
			// context returns Cancelled immediately; this is the same
			// answer without the queue round trip).
			wg.Done()
			reports[i] = core.AbortedReport(rc.sink, rc.delta, core.Cancelled)
			results[i] = b.emitCheck(em, i, reports[i], "")
		}
	}
	wg.Wait()
	b.checksRun += len(checks)
	return results, reports
}

// runSweep checks (o, δ) for every primary output o, exhaustively,
// through runChecks — every output gets exactly one terminal result
// (streamed as it lands) and the aggregate covers all of them. This is
// the serving analogue of core.RunAll without the first-witness early
// exit: batch clients want every answer, not just the circuit verdict.
func (b *batch) runSweep(ctx context.Context, v *core.Verifier, delta waveform.Time, em *emitter) SweepResult {
	pos := v.Circuit().PrimaryOutputs()
	checks := make([]resolvedCheck, len(pos))
	for i, po := range pos {
		checks[i] = resolvedCheck{sink: po, delta: delta}
	}
	results, reports := b.runChecks(ctx, v, checks, em)
	// The per-output entries keep the emitted results so the trace
	// attribution (and any panic message) stamped at emission survives
	// into the JSON document — document and stream clients see the same
	// results.
	sw := SweepFromReport(b.pin.Circuit(), core.AggregateCircuit(delta, reports))
	sw.PerOutput = results
	return sw
}

// firstWitness is the whole-circuit check at δ behind a Table-1 row:
// core's FirstWitness on the server pool, so the aggregate is RunAll's
// by construction. Every check that runs is emitted as it lands; an
// output of the kept prefix that the pool refused gets its terminal C
// result once the sweep is over.
func (b *batch) firstWitness(ctx context.Context, v *core.Verifier, delta waveform.Time, em *emitter) *core.CircuitReport {
	pos := v.Circuit().PrimaryOutputs()
	ran := make([]bool, len(pos)) // entry i is written only by output i's task
	reports := v.FirstWitness(ctx, delta, b.srv.submit, func(ctx context.Context, i int) *core.Report {
		rep, panicMsg := b.runOne(ctx, v, b.checkRequest(pos[i], delta))
		ran[i] = true
		b.emitCheck(em, i, rep, panicMsg)
		return rep
	})
	for i, r := range ran {
		switch {
		case r:
			b.checksRun++
		case i < len(reports):
			b.emitCheck(em, i, reports[i], "")
		}
	}
	return core.AggregateCircuit(delta, reports)
}

// runTable1 reproduces harness.CircuitRowsParallel server-side: the
// exact circuit floating delay D (binary search per output, run as one
// sequential pool task), then the paper's row pair δ = D+1 and δ = D
// via first-witness sweeps. Rows and per-δ aggregates are
// byte-identical to the in-process harness on the same netlist — the
// differential e2e suite enforces it. The search's checks run under
// the server's engine tracer and count as checks run, like every
// other check, and land on the batch timeline.
func (b *batch) runTable1(ctx context.Context, v *core.Verifier, em *emitter) ([]Row, []SweepResult) {
	var (
		res *core.DelayResult
		err error
	)
	req := core.Request{Budgets: b.budgets, Tracer: b.srv.eng}
	if b.ct != nil {
		req.Tracer = core.MultiTracer(b.srv.eng, core.CheckDoneFunc(func(rep *core.Report) { b.recordTimeline(rep, "") }))
	}
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
		b.srv.checksRun.Add(int64(res.Checks))
	}
	if err != nil && res == nil {
		em.emit(Event{Type: "error", Error: err.Error()})
		return nil, nil
	}

	var rows []Row
	var sweeps []SweepResult
	for _, r := range harness.RowPair(b.pin.Circuit().Name, v, res, func(d waveform.Time) *core.CircuitReport {
		cr := b.firstWitness(ctx, v, d, em)
		sweeps = append(sweeps, SweepFromReport(b.pin.Circuit(), cr))
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
