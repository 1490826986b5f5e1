package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/registry"
)

// frontEnd is the HTTP layer shared by the worker (Server) and the
// coordinator: the routes, request decoding and caps, bounded
// admission with 429/503 + Retry-After, the batch context, trace
// minting, NDJSON emission, per-batch timelines, the flight recorder,
// health and readiness, drain, and the admission metrics. Each
// admitted batch is handed to an executor — the local pool or shard
// dispatch — which is all that differs between the two tiers.
//
// Lifecycle: accepting → draining → stopped. Accepting, submissions
// are admitted up to QueueDepth concurrent batches (429 beyond).
// Draining (entered by BeginDrain/Shutdown), every new submission is
// rejected with 503 while in-flight batches run to completion; at the
// drain deadline the remaining checks are cancelled via context so
// each still produces exactly one terminal result (verdict C) and the
// batches finish. Stopped, the executor has released its resources.
type frontEnd struct {
	fc   frontConfig
	exec executor
	mux  *http.ServeMux
	log  *slog.Logger

	slots    chan struct{} // admission tokens, cap QueueDepth
	inflight sync.WaitGroup
	draining atomic.Bool

	baseCtx    context.Context // cancelled at the drain deadline
	baseCancel context.CancelFunc

	shutdownOnce sync.Once
	batchSeq     atomic.Int64 // batch ids for request-scoped log attrs and trace files

	reg          *obs.Registry       // the Prometheus exposition
	flight       *obs.FlightRecorder // always-on last-N/slowest-K record behind /debug/checks
	checkSeconds *obs.Histogram      // check latency; its exemplars are served on /debug/checks

	// admission counters behind both metrics endpoints
	accepted      atomic.Int64
	rejectedFull  atomic.Int64
	rejectedDrain atomic.Int64
	badRequests   atomic.Int64
	streams       atomic.Int64
	netlistParses atomic.Int64 // every netlist parse; warm hash checks stay at zero
}

// frontConfig is what the front end reads of Config or CoordConfig,
// plus the two facts that tell the tiers apart on the wire.
type frontConfig struct {
	queueDepth    int
	maxBody       int64
	maxChecks     int
	retryAfter    time.Duration
	batchTimeout  time.Duration
	traceDir      string
	flightLast    int
	flightSlowest int
	logger        *slog.Logger

	role   string // "server" or "coordinator", in drain messages
	prefix string // metric-name prefix of the admission series
}

// executor runs what the front end admits. There are two: the worker's
// registry plus local pool (Server) and the coordinator's circuit
// table plus shard dispatch (Coordinator).
type executor interface {
	// register stores an upload under its content address.
	register(up *UploadRequest) (registry.PutResult, error)
	// inline resolves the netlist an inline check request carries.
	inline(req *Request) (circuitRef, *apiError)
	// lookup resolves a hash-addressed check; false answers 404.
	lookup(h api.Hash) (circuitRef, bool)
	// open binds an admitted batch under its batch context. An error
	// is answered before any response byte is written.
	open(ctx context.Context, h *batchHead) (runner, *apiError)
	// status reports readiness and the workers count /healthz shows.
	status() (ready bool, workers int)
	// stop releases the executor once the drain has finished.
	stop()
}

// runner executes one opened batch: it fills resp's workload fields,
// emits events on em (nil for a buffered response), and returns the
// number of checks run plus the batch's timeline (nil unless
// TraceDir is set).
type runner interface {
	run(ctx context.Context, resp *Response, em *emitter) (checks int, tl *obs.ClusterTrace)
}

// circuitRef is a circuit resolved for one batch.
type circuitRef struct {
	c    *circuit.Circuit
	hash api.Hash // content address; empty on a worker's inline checks

	pin   *registry.Pin // worker, hash-addressed: holds the entry until the response is written
	entry *coordEntry   // coordinator: the table entry the batch shards
}

// batchHead is what the front end knows of an admitted batch; both
// executors' batch types embed it.
type batchHead struct {
	circuitRef
	req    *Request
	checks []resolvedCheck
	id     int64
	log    *slog.Logger      // request-scoped: carries the batch id and trace id
	trace  *api.TraceContext // completed trace context (id always set)
	attrs  []slog.Attr       // extra "batch accepted" attributes an executor's open adds
}

func newFrontEnd(fc frontConfig, exec executor, checkSeconds *obs.Histogram) *frontEnd {
	if fc.queueDepth <= 0 {
		fc.queueDepth = 64
	}
	if fc.maxBody <= 0 {
		fc.maxBody = 32 << 20
	}
	if fc.maxChecks <= 0 {
		fc.maxChecks = 100000
	}
	if fc.retryAfter <= 0 {
		fc.retryAfter = time.Second
	}
	if fc.logger == nil {
		fc.logger = obs.NopLogger()
	}
	fe := &frontEnd{
		fc: fc, exec: exec, mux: http.NewServeMux(), log: fc.logger,
		slots:        make(chan struct{}, fc.queueDepth),
		reg:          obs.NewRegistry(),
		flight:       obs.NewFlightRecorder(fc.flightLast, fc.flightSlowest),
		checkSeconds: checkSeconds,
	}
	fe.baseCtx, fe.baseCancel = context.WithCancel(context.Background())
	fe.registerMetrics()
	fe.mux.HandleFunc("/v1/check", fe.handleCheck)
	fe.mux.HandleFunc("PUT /v1/circuits", fe.handleCircuitPut)
	fe.mux.HandleFunc("POST /v1/circuits/{hash}/check", fe.handleCheckByHash)
	fe.mux.HandleFunc("/healthz", fe.handleHealthz)
	fe.mux.HandleFunc("/readyz", fe.handleReadyz)
	fe.mux.HandleFunc("/metrics", fe.handleMetricsProm)
	fe.mux.HandleFunc("GET /debug/checks", fe.handleDebugChecks)
	return fe
}

func (fe *frontEnd) ServeHTTP(w http.ResponseWriter, r *http.Request) { fe.mux.ServeHTTP(w, r) }

// registerMetrics wires the admission counters and queue gauges into
// the Prometheus registry under the tier's prefix.
func (fe *frontEnd) registerMetrics() {
	p := fe.fc.prefix
	fe.reg.CounterFunc(p+"batches_accepted_total",
		"Batches admitted past the bounded queue.", nil, fe.accepted.Load)
	fe.reg.CounterFunc(p+"batches_rejected_total",
		"Batches rejected by backpressure.", obs.Labels{"reason": "queue_full"}, fe.rejectedFull.Load)
	fe.reg.CounterFunc(p+"batches_rejected_total",
		"Batches rejected by backpressure.", obs.Labels{"reason": "draining"}, fe.rejectedDrain.Load)
	fe.reg.CounterFunc(p+"bad_requests_total",
		"Submissions rejected before admission (parse/validate).", nil, fe.badRequests.Load)
	fe.reg.CounterFunc(p+"streams_total",
		"Batches served as NDJSON streams.", nil, fe.streams.Load)
	fe.reg.CounterFunc(p+"netlist_parses_total",
		"Netlist parses performed (uploads and inline checks; registry cache hits never parse).",
		nil, fe.netlistParses.Load)
	fe.reg.GaugeFunc(p+"queued_batches",
		"Admitted batches currently holding a queue slot.", nil,
		func() float64 { return float64(len(fe.slots)) })
	fe.reg.GaugeFunc(p+"queue_depth",
		"Admission queue capacity.", nil,
		func() float64 { return float64(fe.fc.queueDepth) })
}

// BeginDrain moves the tier to draining: new submissions are rejected
// with 503 + Retry-After immediately; in-flight batches keep running.
// Idempotent.
func (fe *frontEnd) BeginDrain() { fe.draining.Store(true) }

// Shutdown drains the tier: it stops admitting work, waits for
// in-flight batches, and — if ctx expires first — cancels the
// remaining checks so every accepted check still reports exactly one
// terminal result (verdict C for the cancelled ones) and the batches
// finish promptly; a coordinator fans the cancellation out to every
// worker stream it holds open. It returns ctx.Err() when the drain
// deadline forced cancellation, nil on a clean drain; either way all
// accepted work has been answered and the executor (pool or probe
// loop) has stopped when it returns.
func (fe *frontEnd) Shutdown(ctx context.Context) error {
	fe.BeginDrain()
	var err error
	fe.shutdownOnce.Do(func() {
		done := make(chan struct{})
		go func() {
			fe.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
			fe.baseCancel()
			<-done
		}
		fe.baseCancel()
		fe.exec.stop()
	})
	return err
}

// writeError emits the structured error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: ErrorInfo{Code: e.code, Message: e.msg, Hash: e.hash}})
}

func (fe *frontEnd) retryAfterSeconds() string {
	return strconv.Itoa(max(int(fe.fc.retryAfter/time.Second), 1))
}

// rejectBadRequest tallies, logs, and answers a pre-admission error.
func (fe *frontEnd) rejectBadRequest(ctx context.Context, w http.ResponseWriter, e *apiError) {
	fe.badRequests.Add(1)
	fe.log.LogAttrs(ctx, slog.LevelInfo, "bad request",
		slog.String("code", e.code), slog.String("message", e.msg))
	writeError(w, e)
}

// rejectDraining answers a submission with 503 + Retry-After when the
// tier is draining, and reports whether it did.
func (fe *frontEnd) rejectDraining(w http.ResponseWriter, r *http.Request, what string) bool {
	if !fe.draining.Load() {
		return false
	}
	fe.rejectedDrain.Add(1)
	fe.log.LogAttrs(r.Context(), slog.LevelWarn, what+" rejected", slog.String("reason", "draining"))
	w.Header().Set("Retry-After", fe.retryAfterSeconds())
	writeError(w, &apiError{status: http.StatusServiceUnavailable, code: "draining",
		msg: fe.fc.role + " is draining; resubmit elsewhere"})
	return true
}

// handleCircuitPut is PUT /v1/circuits: canonicalize the upload, hash
// it, and register the parsed circuit under its content address. The
// call is idempotent — re-uploading a known circuit costs one hash and
// zero parses — and takes no admission slot: uploads are cheap
// bookkeeping next to check batches, and a table full of circuits
// admits no work by itself. A coordinator keeps the canonical form and
// uploads it to a worker the first time a shard routes there.
func (fe *frontEnd) handleCircuitPut(w http.ResponseWriter, r *http.Request) {
	if fe.rejectDraining(w, r, "upload") {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, fe.fc.maxBody)
	var up UploadRequest
	if apiErr := decodeBody(r.Body, &up); apiErr != nil {
		fe.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	if !api.AcceptsVersion(up.V) {
		fe.rejectBadRequest(r.Context(), w, unsupportedVersion(up.V))
		return
	}
	res, err := fe.exec.register(&up)
	if err != nil {
		fe.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	fe.log.LogAttrs(r.Context(), slog.LevelInfo, "circuit upload",
		slog.String("hash", string(res.Hash)), slog.Bool("created", res.Created),
		slog.String("circuit", res.Circuit.Name))
	w.Header().Set("Content-Type", "application/json")
	if res.Created {
		w.WriteHeader(http.StatusCreated)
	}
	_ = json.NewEncoder(w).Encode(UploadResponse{
		V: api.Version, Hash: res.Hash, Created: res.Created,
		Circuit: circuitInfo(res.Circuit, 0),
	})
}

// handleCheck is POST /v1/check: decode, resolve the inline netlist,
// admit, execute, respond (JSON document or NDJSON stream).
func (fe *frontEnd) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: "POST required"})
		return
	}
	if fe.rejectDraining(w, r, "batch") {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, fe.fc.maxBody)
	req, apiErr := decodeRequest(r.Body, false)
	if apiErr != nil {
		fe.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	ref, apiErr := fe.exec.inline(req)
	if apiErr != nil {
		fe.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	fe.admitAndRun(w, r, req, ref)
}

// handleCheckByHash is POST /v1/circuits/{hash}/check: run a batch
// against a previously uploaded circuit. The request carries no
// netlist — a warm worker entry serves the batch with zero parses and
// zero core.Prepare calls.
func (fe *frontEnd) handleCheckByHash(w http.ResponseWriter, r *http.Request) {
	if fe.rejectDraining(w, r, "batch") {
		return
	}
	h := api.Hash(r.PathValue("hash"))
	if !h.Valid() {
		fe.rejectBadRequest(r.Context(), w, badRequest("bad_hash",
			"malformed circuit hash %q (want sha256:<64 hex>)", string(h)))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, fe.fc.maxBody)
	req, apiErr := decodeRequest(r.Body, true)
	if apiErr != nil {
		fe.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	ref, ok := fe.exec.lookup(h)
	if !ok {
		fe.badRequests.Add(1)
		fe.log.LogAttrs(r.Context(), slog.LevelInfo, "unknown hash", slog.String("hash", string(h)))
		writeError(w, &apiError{status: http.StatusNotFound, code: "unknown_hash",
			msg:  "no circuit registered under this hash; PUT /v1/circuits and retry",
			hash: h})
		return
	}
	fe.admitAndRun(w, r, req, ref)
}

// admitAndRun is the admission + execution half shared by the inline
// and hash-addressed paths: resolve sinks, take a queue slot (or 429),
// build the batch context, mint the trace, and hand the batch to the
// executor. A worker's registry pin is released only after the
// response is written.
func (fe *frontEnd) admitAndRun(w http.ResponseWriter, r *http.Request, req *Request, ref circuitRef) {
	if ref.pin != nil {
		defer ref.pin.Release()
	}
	checks, apiErr := resolveChecks(ref.c, req.Checks)
	if apiErr != nil {
		fe.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	n := batchSize(ref.c, req, checks)
	if n > fe.fc.maxChecks {
		fe.rejectBadRequest(r.Context(), w, badRequest("too_many_checks",
			"batch expands to %d checks, cap is %d", n, fe.fc.maxChecks))
		return
	}

	// Admission: a slot per batch, non-blocking — the bounded queue.
	select {
	case fe.slots <- struct{}{}:
	default:
		fe.rejectedFull.Add(1)
		fe.log.LogAttrs(r.Context(), slog.LevelWarn, "batch rejected",
			slog.String("reason", "queue_full"), slog.Int("queueDepth", fe.fc.queueDepth))
		w.Header().Set("Retry-After", fe.retryAfterSeconds())
		writeError(w, &apiError{status: http.StatusTooManyRequests, code: "queue_full",
			msg: fmt.Sprintf("admission queue full (%d batches)", fe.fc.queueDepth)})
		return
	}
	fe.inflight.Add(1)
	fe.accepted.Add(1)
	defer func() {
		<-fe.slots
		fe.inflight.Done()
	}()

	// The batch context: the base context (cancelled at the drain
	// deadline) bounded by the batch timeouts. The client going away
	// also cancels everything it still has queued.
	ctx, cancel := context.WithCancel(fe.baseCtx)
	defer cancel()
	defer context.AfterFunc(r.Context(), cancel)()
	if d := minTimeout(fe.fc.batchTimeout, time.Duration(req.TimeoutMs)*time.Millisecond); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		defer cancelT()
	}

	// The admitting tier completes the trace context: an absent or
	// malformed client trace gets a freshly minted id here, and every
	// event, log line, and flight record of the batch carries it.
	id := fe.batchSeq.Add(1)
	trace := api.EnsureTrace(req.Trace)
	logger := fe.log.With(slog.Int64("batch", id), slog.String("trace_id", trace.TraceID))
	if trace.Tenant != "" {
		logger = logger.With(slog.String("tenant", trace.Tenant))
	}
	if sh := req.Shard; sh != nil && sh.Attempt > 0 {
		logger = logger.With(slog.Int("attempt", sh.Attempt))
	}
	h := &batchHead{circuitRef: ref, req: req, checks: checks, id: id, log: logger, trace: trace}
	run, apiErr := fe.exec.open(ctx, h)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}

	attrs := []slog.Attr{
		slog.String("circuit", ref.c.Name), slog.Int("checks", n), slog.Bool("stream", req.Stream),
	}
	if ref.hash != "" {
		attrs = append(attrs, slog.String("hash", string(ref.hash)))
	}
	attrs = append(attrs, h.attrs...)
	if sh := req.Shard; sh != nil {
		// Stamped by a coordinator: which cluster placement this batch
		// is (primary, requeue, or hedge dispatch).
		attrs = append(attrs,
			slog.String("coordinator", sh.Coordinator), slog.Int64("coordBatch", sh.Batch),
			slog.Int("attempt", sh.Attempt), slog.Bool("hedge", sh.Hedge))
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "batch accepted", attrs...)

	var em *emitter
	if req.Stream {
		fe.streams.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		em = &emitter{enc: json.NewEncoder(w), traceID: trace.TraceID}
		if fl, ok := w.(http.Flusher); ok {
			em.fl = fl
		}
	}
	start := time.Now()
	resp := &Response{V: api.Version, Circuit: circuitInfo(ref.c, n), TraceID: trace.TraceID}
	em.emit(Event{Type: "circuit", Circuit: &resp.Circuit})
	ran, tl := run.run(ctx, resp, em)
	resp.Done = DoneInfo{ChecksRun: ran, ElapsedUs: time.Since(start).Microseconds()}
	logger.LogAttrs(ctx, slog.LevelInfo, "batch done",
		slog.String("circuit", ref.c.Name), slog.Int("checks", ran),
		slog.Duration("elapsed", time.Since(start)))
	if tl != nil {
		fe.writeTrace(ctx, h, tl)
	}
	if em != nil {
		em.emit(Event{Type: "done", Done: &resp.Done})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// writeTrace dumps a batch's timeline to TraceDir/batch-<id>.trace.json.
func (fe *frontEnd) writeTrace(ctx context.Context, h *batchHead, tl *obs.ClusterTrace) {
	path := filepath.Join(fe.fc.traceDir, "batch-"+strconv.FormatInt(h.id, 10)+".trace.json")
	f, err := os.Create(path)
	if err == nil {
		err = tl.WriteTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		h.log.LogAttrs(ctx, slog.LevelWarn, "trace write failed",
			slog.String("path", path), slog.String("error", err.Error()))
		return
	}
	h.log.LogAttrs(ctx, slog.LevelInfo, "trace written",
		slog.String("path", path), slog.Int("events", tl.Len()))
}

// emitter serialises streamed events; nil for buffered responses.
// Events from concurrent checks interleave, so emission is locked.
// Every emitted event echoes the batch's trace id (unless the
// producer already stamped one).
type emitter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	fl      http.Flusher
	traceID string
}

func (e *emitter) emit(ev Event) {
	if e == nil {
		return
	}
	if ev.TraceID == "" {
		ev.TraceID = e.traceID
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.enc.Encode(ev)
	if e.fl != nil {
		e.fl.Flush()
	}
}

// batchSize is the number of checks a request expands to (-1 when a
// table1 sweep discovers them during the delay search).
func batchSize(c *circuit.Circuit, req *Request, checks []resolvedCheck) int {
	if req.Sweep == nil {
		return len(checks)
	}
	if req.Sweep.Table1 {
		return -1
	}
	return len(req.Sweep.Deltas) * len(c.PrimaryOutputs())
}

// minTimeout composes two optional timeouts: the smaller positive one.
func minTimeout(a, b time.Duration) time.Duration {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	}
	return min(a, b)
}

func (fe *frontEnd) health() Health {
	ready, workers := fe.exec.status()
	h := Health{Status: "ok", Workers: workers, Queued: len(fe.slots), Capacity: fe.fc.queueDepth}
	switch {
	case fe.draining.Load():
		h.Status = "draining"
	case !ready:
		h.Status = "starting"
	}
	return h
}

// handleHealthz is pure liveness: the process is up and serving HTTP,
// so it always answers 200 — the status field is informational.
// Restart-deciders probe here; load balancers probe /readyz.
func (fe *frontEnd) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(fe.health())
}

// handleReadyz is readiness: 503 while the executor is not ready
// ("starting": a worker before its warm-up canary, a coordinator with
// no live worker) and from the moment draining begins ("draining"),
// 200 in between — exactly the window in which a new submission would
// be admitted and served.
func (fe *frontEnd) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := fe.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", fe.retryAfterSeconds())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(h)
}

// handleMetricsProm is GET /metrics: the Prometheus text exposition —
// admission counters, the executor's series (engine histograms on a
// worker, shard/requeue/hedge counters on a coordinator), and
// runtime/metrics samples (heap, GC, goroutines).
func (fe *frontEnd) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fe.reg.WritePrometheus(w)
	obs.WriteRuntimeProm(w)
}

// debugChecksBody is the GET /debug/checks response: the flight
// recorder's snapshot plus the trace-id exemplars pinned on the check
// latency histogram (one per occupied bucket). Served identically by
// workers and coordinators, so a cluster operator can chase one trace
// id from the coordinator's merge records into the worker that ran
// the slow check.
type debugChecksBody struct {
	obs.FlightSnapshot
	LatencyExemplars []obs.BucketExemplar `json:"latencyExemplars,omitempty"`
}

func (fe *frontEnd) handleDebugChecks(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(debugChecksBody{
		FlightSnapshot:   fe.flight.Snapshot(),
		LatencyExemplars: fe.checkSeconds.Exemplars(),
	})
}
