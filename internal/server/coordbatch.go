package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// coordBatch is one admitted submission being executed across the
// cluster. The handler goroutine owns it: it expands the workload into
// units (one per client-facing check), shards them over the live
// workers by rendezvous hashing, merges the per-shard NDJSON streams,
// and re-establishes the single-daemon guarantee — exactly one
// terminal result per unit — through worker failures, requeues, and
// hedges. The state machine per unit is:
//
//	undelivered --worker result--------------------> delivered
//	undelivered --stream failed, attempts left-----> requeued (undelivered)
//	undelivered --straggling at HedgeAfter---------> racing two workers
//	undelivered --attempts exhausted---------------> delivered (A + error)
//	undelivered --batch context dead---------------> delivered (C)
//
// with the delivered flag (under mu) making the first transition win
// every race: late duplicates from hedges or requeue overlap are
// counted and dropped, never re-emitted.
type coordBatch struct {
	*batchHead
	co *Coordinator
	ct *obs.ClusterTrace // cluster timeline when CoordConfig.TraceDir is set

	ctx    context.Context // the batch context; checked by the C-requeue rule
	em     *emitter
	wg     sync.WaitGroup // every dispatchShard goroutine
	doneCh chan struct{}  // closed when remaining hits 0

	mu        sync.Mutex
	units     []*coordUnit // guarded by mu
	remaining int          // guarded by mu
}

// coordUnit is one client-facing check flowing through the merge
// machine.
type coordUnit struct {
	emitIndex int    // index stamped on the wire (batch position, or PO index within a sweep)
	deltaIdx  int    // sweep slot; 0 for explicit batches
	sink      string // sink net name (the shard key component)
	sinkID    circuit.NetID
	delta     waveform.Time
	spec      CheckSpec

	delivered bool         // guarded by coordBatch.mu
	attempts  int          // dispatches this unit has been part of (primary, requeue, and hedge all count); guarded by coordBatch.mu
	inFlight  int          // dispatches currently racing it; guarded by coordBatch.mu
	workers   []string     // every worker it has been dispatched to, in order; guarded by coordBatch.mu
	result    *CheckResult // guarded by coordBatch.mu

	// lastC holds a worker-reported Cancelled result that arrived while
	// the batch context was still alive — the *worker's* context died
	// (drain, kill), not the client's, so it is not terminal here. It
	// is delivered only if every requeue attempt is exhausted.
	lastC       *CheckResult // guarded by coordBatch.mu
	lastCWorker string       // guarded by coordBatch.mu
}

func (u *coordUnit) key(hash api.Hash) ShardKey {
	return ShardKey{Hash: string(hash), Sink: u.sink}
}

// tried reports whether the unit was ever dispatched to addr. Caller
// holds coordBatch.mu.
func (u *coordUnit) tried(addr string) bool {
	for _, w := range u.workers {
		if w == addr {
			return true
		}
	}
	return false
}

// run executes the batch against the cluster and fills resp
// (emitting events along the way when em is non-nil).
func (cb *coordBatch) run(ctx context.Context, resp *Response, em *emitter) (int, *obs.ClusterTrace) {
	start := time.Now()
	cb.em = em
	if cb.req.Sweep != nil && cb.req.Sweep.Table1 {
		return cb.finish(start, cb.runTable1Forward(ctx, em, resp))
	}

	// Unit workloads: a batch-scoped context so finishing the batch
	// (first-witness cancellation upstream, or simply every unit
	// delivered) tears down every worker stream still racing —
	// cluster-wide cancellation in one cancel call.
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cb.ctx = bctx
	cb.doneCh = make(chan struct{})
	cb.mu.Lock()
	cb.buildUnits()
	cb.remaining = len(cb.units)
	if cb.remaining == 0 {
		close(cb.doneCh)
	}
	cb.mu.Unlock()

	cb.dispatchAll(bctx)

	// The hedge pass runs at most once per batch, HedgeAfter into it.
	// It is a goroutine (not AfterFunc) so run() can wait for it below:
	// its launches must precede wg.Wait.
	hedgeDone := make(chan struct{})
	go func() {
		defer close(hedgeDone)
		if cb.co.cfg.HedgeAfter <= 0 {
			return
		}
		t := time.NewTimer(cb.co.cfg.HedgeAfter)
		defer t.Stop()
		select {
		case <-t.C:
			cb.hedgePass(bctx)
		case <-cb.doneCh:
		case <-bctx.Done():
		}
	}()

	<-cb.doneCh
	<-hedgeDone
	cancel() // cut hedge losers and any stream still open
	cb.wg.Wait()

	// Every dispatch goroutine has exited (wg.Wait above), but the
	// assembly still takes mu: the guarded fields are only ever read
	// under it, and a finished batch has no contention to pay.
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.req.Sweep == nil {
		resp.Results = make([]CheckResult, len(cb.units))
		for i, u := range cb.units {
			resp.Results[i] = *u.result
		}
	} else {
		cb.assembleSweeps(resp, em)
	}
	return cb.finish(start, len(cb.units))
}

// finish closes the batch's root span on the cluster timeline, if one
// is being recorded, and reports the checks merged.
func (cb *coordBatch) finish(start time.Time, checks int) (int, *obs.ClusterTrace) {
	if cb.ct != nil {
		cb.ct.Span("coordinator", "batch "+strconv.FormatInt(cb.id, 10),
			start.UnixMicro(), time.Since(start).Microseconds(),
			map[string]any{"trace_id": cb.trace.TraceID, "circuit": cb.c.Name})
	}
	return checks, cb.ct
}

// buildUnits expands the workload into units in client-facing order:
// explicit checks by batch position; sweeps delta-major, one unit per
// (delta, primary output) with emitIndex the PO index — exactly the
// index a single daemon stamps on its streamed sweep checks. Caller
// holds cb.mu.
func (cb *coordBatch) buildUnits() {
	c := cb.c
	if cb.req.Sweep == nil {
		cb.units = make([]*coordUnit, len(cb.checks))
		for i, rc := range cb.checks {
			cb.units[i] = &coordUnit{
				emitIndex: i, sink: c.Net(rc.sink).Name, sinkID: rc.sink, delta: rc.delta,
				spec: CheckSpec{Sink: c.Net(rc.sink).Name, Delta: int64(rc.delta), VerifyOnly: rc.verifyOnly},
			}
		}
		return
	}
	pos := c.PrimaryOutputs()
	for di, d := range cb.req.Sweep.Deltas {
		for pi, po := range pos {
			name := c.Net(po).Name
			cb.units = append(cb.units, &coordUnit{
				emitIndex: pi, deltaIdx: di, sink: name, sinkID: po, delta: waveform.Time(d),
				spec: CheckSpec{Sink: name, Delta: d},
			})
		}
	}
}

// dispatchAll performs the primary placement: one shard per owning
// worker, each dispatched as a single hash-addressed streaming batch.
func (cb *coordBatch) dispatchAll(ctx context.Context) {
	alive := cb.co.aliveWorkers(ctx)
	if len(alive) == 0 {
		cb.mu.Lock()
		for _, u := range cb.units {
			cb.deliverLocked(u, cb.syntheticResult(u, core.Abandoned, "no live workers"), "")
			cb.co.checkFailures.Add(1)
		}
		cb.mu.Unlock()
		return
	}
	router := NewShardRouter(alive)
	groups := make(map[string][]*coordUnit)
	cb.mu.Lock()
	for _, u := range cb.units {
		owner, _ := router.Assign(u.key(cb.hash))
		groups[owner] = append(groups[owner], u)
	}
	cb.mu.Unlock()
	addrs := make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		cb.launch(ctx, addr, groups[addr], "primary")
	}
}

// launch records the dispatch on every covered unit and starts the
// shard goroutine.
func (cb *coordBatch) launch(ctx context.Context, addr string, units []*coordUnit, kind string) {
	w := cb.co.byAddr[addr]
	cb.mu.Lock()
	for _, u := range units {
		u.attempts++
		u.inFlight++
		u.workers = append(u.workers, addr)
	}
	cb.mu.Unlock()
	switch kind {
	case "primary":
		cb.co.dispatchPrimary.Add(1)
	case "requeue":
		cb.co.dispatchRequeue.Add(1)
	case "hedge":
		cb.co.dispatchHedge.Add(1)
	}
	cb.log.LogAttrs(ctx, slog.LevelDebug, "shard dispatch",
		slog.String("worker", addr), slog.Int("checks", len(units)), slog.String("kind", kind))
	cb.wg.Add(1)
	go cb.dispatchShard(ctx, w, units, kind)
}

// dispatchShard runs one shard's stream against one worker and settles
// the aftermath: units this stream stranded (undelivered with no other
// dispatch racing them) flow into redispatch, and a retryable failure
// marks the worker dead for the probe loop to resurrect.
func (cb *coordBatch) dispatchShard(ctx context.Context, w *coordWorker, units []*coordUnit, kind string) {
	defer cb.wg.Done()
	dstart := time.Now()
	err := cb.streamShard(ctx, w, units, kind)
	if cb.ct != nil {
		args := map[string]any{"trace_id": cb.trace.TraceID, "worker": w.addr,
			"kind": kind, "checks": len(units)}
		if err != nil {
			args["error"] = err.Error()
		}
		cb.ct.Span("coordinator", "dispatch "+w.addr+" ("+kind+")",
			dstart.UnixMicro(), time.Since(dstart).Microseconds(), args)
	}
	var stranded []*coordUnit
	cb.mu.Lock()
	for _, u := range units {
		u.inFlight--
		if !u.delivered && u.inFlight == 0 {
			stranded = append(stranded, u)
		}
	}
	cb.mu.Unlock()
	if err != nil && ctx.Err() == nil && client.Retryable(err) {
		cb.co.markDead(ctx, w, err)
	}
	cb.redispatch(ctx, stranded, err)
}

// streamShard uploads the circuit if the worker needs it and streams
// the shard's checks, delivering each result as its event arrives. An
// unknown_hash answer (the worker evicted the circuit between our
// upload and the check) is retried once on the same worker after
// forgetting the stale belief.
func (cb *coordBatch) streamShard(ctx context.Context, w *coordWorker, units []*coordUnit, kind string) error {
	for try := 0; try < 2; try++ {
		if err := cb.co.ensureCircuit(ctx, w, cb.entry); err != nil {
			return err
		}
		specs := make([]CheckSpec, len(units))
		attempt := 0
		cb.mu.Lock()
		for i, u := range units {
			specs[i] = u.spec
			attempt = max(attempt, u.attempts)
		}
		cb.mu.Unlock()
		req := api.Request{
			V: api.Version, Checks: specs,
			Options: cb.req.Options, Budgets: cb.req.Budgets,
			CheckTimeoutMs: cb.req.CheckTimeoutMs,
			Shard: &api.ShardInfo{
				Coordinator: cb.co.cfg.Name, Batch: cb.id, Worker: w.addr,
				Attempt: attempt, Hedge: kind == "hedge",
			},
			// The worker joins the coordinator's trace (and answers with
			// in-band span summaries); ParentSpan identifies this dispatch.
			Trace: &api.TraceContext{TraceID: cb.trace.TraceID,
				ParentSpan: api.NewSpanID(), Tenant: cb.trace.Tenant},
		}
		err := w.cl.StreamByHash(ctx, cb.hash, req, func(ev Event) error {
			switch {
			case ev.Type == "check" && ev.Check != nil:
				cb.deliver(units, ev.Check, w.addr)
			case ev.Type == "spans" && ev.Spans != nil:
				cb.workerSpans(units, ev.Spans, w.addr)
			}
			return nil
		})
		var ae *client.APIError
		if errors.As(err, &ae) && ae.UnknownHash() {
			w.forget(cb.hash)
			continue
		}
		return err
	}
	return fmt.Errorf("worker %s keeps answering unknown_hash for %s", w.addr, cb.hash)
}

// workerSpans folds one worker's in-band span summary into the
// cluster timeline (one lane group per worker, so per-attempt overlap
// stays visible), and forwards it — re-indexed to the client-facing
// check position — when the client itself asked for tracing.
func (cb *coordBatch) workerSpans(shard []*coordUnit, sum *api.SpanSummary, worker string) {
	if sum.Index < 0 || sum.Index >= len(shard) {
		return
	}
	u := shard[sum.Index]
	if cb.ct != nil {
		cb.ct.Span("worker "+worker, "check "+sum.Sink, sum.StartUnixUs, sum.DurUs,
			map[string]any{"trace_id": sum.TraceID, "span_id": sum.SpanID,
				"verdict": sum.Verdict, "attempt": sum.Attempt})
	}
	if cb.req.Trace != nil { // the client itself asked for tracing
		fwd := *sum
		fwd.Index = u.emitIndex // immutable after buildUnits; shard index → client index
		if fwd.Worker == "" {
			fwd.Worker = worker
		}
		cb.em.emit(Event{Type: "spans", Spans: &fwd, TraceID: sum.TraceID})
	}
}

// deliver routes one worker result to its unit. It is the merge
// point of the exactly-once guarantee: the first terminal result for
// a unit wins, and everything after it is dropped under the same lock
// that emitted the winner.
func (cb *coordBatch) deliver(shard []*coordUnit, res *CheckResult, worker string) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if res.Index < 0 || res.Index >= len(shard) {
		return // malformed event; drop rather than corrupt a neighbour
	}
	u := shard[res.Index]
	if u.delivered {
		cb.co.duplicatesDropped.Add(1)
		return
	}
	if res.Final == "C" && cb.ctx.Err() == nil {
		// The worker's context died, not the batch's: record and
		// requeue (the stream-end settlement picks the unit up).
		keep := *res
		u.lastC, u.lastCWorker = &keep, worker
		return
	}
	cb.deliverLocked(u, res, worker)
}

// deliverLocked finalises a unit: stamp placement, emit, and count
// down. Caller holds cb.mu; emitting under it orders every check
// event strictly before the batch's done event.
func (cb *coordBatch) deliverLocked(u *coordUnit, res *CheckResult, worker string) {
	r := *res
	r.Index = u.emitIndex
	r.Worker = worker
	r.Attempt = u.attempts
	if r.TraceID == "" { // synthetic results are minted here, not on a worker
		r.TraceID = cb.trace.TraceID
	}
	if r.SpanID == "" {
		r.SpanID = api.NewSpanID()
	}
	u.result = &r
	u.delivered = true
	cb.remaining--
	cb.co.checksMerged.Add(1)
	cb.co.flight.Record(&obs.CheckRecord{
		TraceID: r.TraceID, SpanID: r.SpanID, Tenant: cb.trace.Tenant,
		Batch: cb.id, Sink: r.Sink, Delta: r.Delta,
		Verdict: r.Final, Error: r.Error,
		Worker: worker, Attempt: u.attempts,
		StartUnixUs: r.StartUnixUs, ElapsedUs: r.ElapsedUs, StageUs: r.StageUs,
		Propagations: r.Propagations, Backtracks: r.Backtracks,
	})
	cb.co.checkSeconds.Observe(r.ElapsedUs * 1_000)
	cb.co.checkSeconds.SetExemplar(r.ElapsedUs*1_000, r.TraceID)
	if cb.ct != nil {
		cb.ct.Span("merge", "merge "+r.Sink, time.Now().UnixMicro(), 0,
			map[string]any{"trace_id": r.TraceID, "worker": worker,
				"attempt": u.attempts, "verdict": r.Final})
	}
	cb.em.emit(Event{Type: "check", Check: &r})
	if cb.remaining == 0 {
		close(cb.doneCh)
	}
}

// syntheticResult is a coordinator-made terminal result (the unit
// never got a usable worker answer): the same shape a worker's
// panic-isolation (A) or cancellation (C) path produces.
func (cb *coordBatch) syntheticResult(u *coordUnit, final core.Result, errMsg string) *CheckResult {
	res := ResultFromReport(cb.c, u.emitIndex, core.AbortedReport(u.sinkID, u.delta, final))
	res.Error = errMsg
	return &res
}

// redispatch settles units stranded by a finished dispatch: cancelled
// terminals when the batch context is gone, abandoned terminals on
// non-retryable causes or exhausted attempts (a recorded worker C wins
// over a synthetic A there), and otherwise a requeue onto the
// highest-ranked live worker each unit has not tried yet.
func (cb *coordBatch) redispatch(ctx context.Context, units []*coordUnit, cause error) {
	if len(units) == 0 {
		return
	}
	if ctx.Err() != nil {
		cb.mu.Lock()
		for _, u := range units {
			if !u.delivered {
				cb.deliverLocked(u, cb.syntheticResult(u, core.Cancelled, ""), "")
			}
		}
		cb.mu.Unlock()
		return
	}
	causeMsg := ""
	if cause != nil {
		causeMsg = cause.Error()
	}
	if cause != nil && !client.Retryable(cause) {
		cb.mu.Lock()
		for _, u := range units {
			if !u.delivered {
				cb.deliverLocked(u, cb.syntheticResult(u, core.Abandoned, causeMsg), "")
				cb.co.checkFailures.Add(1)
			}
		}
		cb.mu.Unlock()
		return
	}

	var retry []*coordUnit
	cb.mu.Lock()
	for _, u := range units {
		switch {
		case u.delivered:
		case u.attempts >= cb.co.cfg.MaxAttempts:
			cb.co.checkFailures.Add(1)
			if u.lastC != nil {
				cb.deliverLocked(u, u.lastC, u.lastCWorker)
			} else {
				msg := "no dispatch attempts left"
				if causeMsg != "" {
					msg += ": " + causeMsg
				}
				cb.deliverLocked(u, cb.syntheticResult(u, core.Abandoned, msg), "")
			}
		default:
			retry = append(retry, u)
		}
	}
	cb.mu.Unlock()
	if len(retry) == 0 {
		return
	}
	cb.co.requeues.With(requeueReason(cause)).Add(int64(len(retry)))

	alive := cb.co.aliveWorkers(ctx)
	if len(alive) == 0 {
		cb.mu.Lock()
		for _, u := range retry {
			if !u.delivered {
				cb.deliverLocked(u, cb.syntheticResult(u, core.Abandoned, "no live workers left"), "")
				cb.co.checkFailures.Add(1)
			}
		}
		cb.mu.Unlock()
		return
	}
	router := NewShardRouter(alive)
	groups := make(map[string][]*coordUnit)
	cb.mu.Lock()
	for _, u := range retry {
		ranked := router.Ranked(u.key(cb.hash))
		target := ranked[0]
		for _, cand := range ranked {
			if !u.tried(cand) {
				target = cand
				break
			}
		}
		groups[target] = append(groups[target], u)
	}
	cb.mu.Unlock()
	cb.co.requeuedChecks.Add(int64(len(retry)))
	addrs := make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		cb.launch(ctx, addr, groups[addr], "requeue")
	}
}

// requeueReason classifies why a dispatch left its units behind, for
// the lttad_coord_requeues_total{reason=...} counter: "stranded" (the
// stream ended cleanly without the unit's result — a hedge loser's cut
// stream, or a worker that silently dropped it), "truncated_stream"
// (the connection died mid-stream, the kill-a-worker path),
// "backpressure" (the worker answered 429/503), "transport" for every
// other transport-level failure.
func requeueReason(cause error) string {
	if cause == nil {
		return "stranded"
	}
	var trunc *client.TruncatedStreamError
	if errors.As(cause, &trunc) {
		return "truncated_stream"
	}
	var ae *client.APIError
	if errors.As(cause, &ae) && ae.Temporary() {
		return "backpressure"
	}
	return "transport"
}

// hedgePass runs once, HedgeAfter into the batch: every unit still
// racing its primary dispatch is additionally dispatched to the
// highest-ranked live worker it has not tried, and the first terminal
// result wins at deliver (the loser is counted and dropped; the
// batch-scoped context cuts its stream when the batch completes).
func (cb *coordBatch) hedgePass(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	alive := cb.co.aliveWorkers(ctx)
	if len(alive) < 2 {
		return // a hedge on the same sole worker buys nothing
	}
	router := NewShardRouter(alive)
	groups := make(map[string][]*coordUnit)
	byAttempt := make(map[int]int64) // dispatch attempt the hedge becomes → checks
	hedged := 0
	cb.mu.Lock()
	for _, u := range cb.units {
		if u.delivered || u.inFlight == 0 || u.attempts >= cb.co.cfg.MaxAttempts {
			continue
		}
		target := ""
		for _, cand := range router.Ranked(u.key(cb.hash)) {
			if !u.tried(cand) {
				target = cand
				break
			}
		}
		if target == "" {
			continue
		}
		groups[target] = append(groups[target], u)
		byAttempt[u.attempts+1]++ // launch will bump attempts to this
		hedged++
	}
	cb.mu.Unlock()
	if hedged == 0 {
		return
	}
	cb.co.hedgedChecks.Add(int64(hedged))
	for attempt, n := range byAttempt {
		cb.co.hedges.With(strconv.Itoa(attempt)).Add(n)
	}
	addrs := make([]string, 0, len(groups))
	for addr := range groups {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		cb.launch(ctx, addr, groups[addr], "hedge")
	}
}

// assembleSweeps rebuilds the per-δ circuit aggregates from the
// delivered per-output results, through the exact aggregation path a
// single daemon uses: wire result → core.Report → core.AggregateCircuit
// → SweepFromReport. The round trip is lossless for every aggregated
// field, so coordinator sweeps are field-identical to single-daemon
// sweeps (the differential cluster suite pins this). Caller holds
// cb.mu.
func (cb *coordBatch) assembleSweeps(resp *Response, em *emitter) {
	c := cb.c
	npos := len(c.PrimaryOutputs())
	for di, d := range cb.req.Sweep.Deltas {
		reports := make([]*core.Report, npos)
		for pi := 0; pi < npos; pi++ {
			u := cb.units[di*npos+pi]
			rep, err := reportFromResult(c, u.result)
			if err != nil {
				// A worker answered something unparseable; account the
				// output as abandoned rather than failing the batch.
				cb.log.LogAttrs(cb.ctx, slog.LevelError, "unusable worker result",
					slog.String("sink", u.sink), slog.String("error", err.Error()))
				rep = core.AbortedReport(u.sinkID, u.delta, core.Abandoned)
			}
			reports[pi] = rep
		}
		sw := SweepFromReport(c, core.AggregateCircuit(waveform.Time(d), reports))
		// Report conversion never carries trace attribution or placement
		// (stamped at emission, not derivable from a core.Report), so
		// copy those from the delivered results into the per-output
		// entries — document clients see the same attribution stream
		// clients saw on the check events.
		for pi := 0; pi < npos && pi < len(sw.PerOutput); pi++ {
			if res := cb.units[di*npos+pi].result; res != nil {
				po := &sw.PerOutput[pi]
				po.TraceID, po.SpanID = res.TraceID, res.SpanID
				po.StartUnixUs, po.StageUs = res.StartUnixUs, res.StageUs
				po.Worker, po.Attempt = res.Worker, res.Attempt
			}
		}
		resp.Sweeps = append(resp.Sweeps, sw)
		em.emit(Event{Type: "sweep", Sweep: &sw})
	}
}

// runTable1Forward forwards a table1 sweep whole to one worker: the
// delay search is a sequential protocol (each probe depends on the
// last verdict), so sharding it would change it. The owner is the
// rendezvous choice for the circuit itself (empty sink), and the
// Ranked tail is the failover order.
func (cb *coordBatch) runTable1Forward(ctx context.Context, em *emitter, resp *Response) int {
	alive := cb.co.aliveWorkers(ctx)
	if len(alive) == 0 {
		em.emit(Event{Type: "error", Error: "no live workers"})
		return 0
	}
	router := NewShardRouter(alive)
	ranked := router.Ranked(ShardKey{Hash: string(cb.hash)})
	var lastErr error
	for attempt, addr := range ranked {
		if ctx.Err() != nil {
			break
		}
		w := cb.co.byAddr[addr]
		fstart := time.Now()
		wresp, err := cb.forwardTable1(ctx, w, attempt+1)
		if cb.ct != nil {
			args := map[string]any{"trace_id": cb.trace.TraceID, "worker": addr,
				"kind": "table1", "attempt": attempt + 1}
			if err != nil {
				args["error"] = err.Error()
			}
			cb.ct.Span("coordinator", "forward "+addr+" (table1)",
				fstart.UnixMicro(), time.Since(fstart).Microseconds(), args)
		}
		if err != nil {
			lastErr = err
			if ctx.Err() == nil && client.Retryable(err) {
				cb.co.markDead(ctx, w, err)
				cb.co.dispatchRequeue.Add(1)
				continue
			}
			break
		}
		cb.co.dispatchPrimary.Add(1)
		resp.Rows = wresp.Rows
		resp.Sweeps = wresp.Sweeps
		cb.co.checksMerged.Add(int64(wresp.Done.ChecksRun))
		for i := range resp.Sweeps {
			em.emit(Event{Type: "sweep", Sweep: &resp.Sweeps[i]})
		}
		if len(resp.Rows) > 0 {
			em.emit(Event{Type: "rows", Rows: resp.Rows})
		}
		return wresp.Done.ChecksRun
	}
	msg := "table1 sweep failed on every live worker"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	em.emit(Event{Type: "error", Error: msg})
	return 0
}

// forwardTable1 runs the whole table1 request on one worker as a
// buffered call, retrying once through the unknown_hash re-upload
// path like a sharded stream does.
func (cb *coordBatch) forwardTable1(ctx context.Context, w *coordWorker, attempt int) (*Response, error) {
	for try := 0; try < 2; try++ {
		if err := cb.co.ensureCircuit(ctx, w, cb.entry); err != nil {
			return nil, err
		}
		req := api.Request{
			V: api.Version, Sweep: cb.req.Sweep,
			Options: cb.req.Options, Budgets: cb.req.Budgets,
			CheckTimeoutMs: cb.req.CheckTimeoutMs,
			Shard: &api.ShardInfo{
				Coordinator: cb.co.cfg.Name, Batch: cb.id, Worker: w.addr, Attempt: attempt,
			},
			Trace: &api.TraceContext{TraceID: cb.trace.TraceID,
				ParentSpan: api.NewSpanID(), Tenant: cb.trace.Tenant},
		}
		wresp, err := w.cl.CheckByHash(ctx, cb.hash, req)
		var ae *client.APIError
		if errors.As(err, &ae) && ae.UnknownHash() {
			w.forget(cb.hash)
			continue
		}
		return wresp, err
	}
	return nil, fmt.Errorf("worker %s keeps answering unknown_hash for %s", w.addr, cb.hash)
}
