package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/registry"
)

// CoordConfig sizes a coordinator. The zero value of every field
// selects a production-sane default; Workers is the only mandatory
// one.
type CoordConfig struct {
	// Workers lists the lttad worker base URLs the coordinator shards
	// batches over ("host:port" is normalized to "http://host:port").
	Workers []string
	// QueueDepth bounds admitted batches exactly like Server.Config
	// (default 64; 429 + Retry-After beyond).
	QueueDepth int
	// MaxBodyBytes caps the request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxChecks caps the checks one batch may expand to (default
	// 100000).
	MaxChecks int
	// RetryAfter is the Retry-After hint on 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
	// HedgeAfter is the straggler threshold: checks still unanswered
	// this long after their batch started are hedged onto the
	// next-ranked worker, first terminal result wins (default 2s;
	// negative disables hedging).
	HedgeAfter time.Duration
	// MaxAttempts caps dispatches per check across requeues (default
	// 3); beyond it the check reports verdict A with an error.
	MaxAttempts int
	// ProbeInterval is the /readyz health-probe period (default 2s;
	// negative disables the background loop — workers are then probed
	// only on demand).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// RegistryMaxCircuits bounds the coordinator's own circuit table
	// (canonical uploads kept for re-upload to workers; default 128,
	// LRU beyond).
	RegistryMaxCircuits int
	// Name is the instance name stamped into ShardInfo envelopes
	// (default "lttad-coord").
	Name string
	// TraceDir, when set, writes one Perfetto-loadable cluster timeline
	// per batch (batch-<id>.trace.json): routing decisions, per-attempt
	// worker dispatches, the workers' in-band check spans, and merge
	// lanes, all under the batch's trace id.
	TraceDir string
	// FlightLast and FlightSlowest size the always-on flight recorder
	// behind GET /debug/checks (defaults 256 and 32).
	FlightLast, FlightSlowest int
	// Logger receives the coordinator's structured logs (default:
	// discard).
	Logger *slog.Logger
}

func (cfg CoordConfig) withDefaults() CoordConfig {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.MaxChecks <= 0 {
		cfg.MaxChecks = 100000
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.RegistryMaxCircuits <= 0 {
		cfg.RegistryMaxCircuits = 128
	}
	if cfg.Name == "" {
		cfg.Name = "lttad-coord"
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	return cfg
}

// Coordinator is the cluster front end of lttad: it speaks the same
// wire protocol as a single daemon (PUT /v1/circuits, POST /v1/check,
// POST /v1/circuits/{hash}/check, NDJSON streaming) but runs no checks
// itself. A batch is sharded by (circuit-hash, sink) rendezvous
// hashing over the live workers — so each worker's prepared-state LRU
// and warm-start memos stay hot for its shard — and the per-shard
// result streams are merged back into one client-facing stream with an
// exactly-once terminal result per check: worker failures requeue the
// unfinished checks onto survivors, stragglers are hedged, and
// duplicate results from the races that creates are dropped at the
// merge point. See DESIGN.md §15.
type Coordinator struct {
	cfg CoordConfig
	mux *http.ServeMux

	pool    *client.Pool
	workers []*coordWorker
	byAddr  map[string]*coordWorker

	slots    chan struct{}
	inflight sync.WaitGroup
	draining atomic.Bool
	ready    atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	probeStop    context.CancelFunc
	probeDone    chan struct{}
	shutdownOnce sync.Once

	log      *slog.Logger
	batchSeq atomic.Int64
	reg      *obs.Registry

	flight       *obs.FlightRecorder // always-on merged-check record behind /debug/checks
	checkSeconds *obs.Histogram      // merged terminal results, worker-reported latency
	requeues     *obs.CounterVec     // lttad_coord_requeues_total by reason
	hedges       *obs.CounterVec     // lttad_coord_hedges_total by attempt

	mu       sync.Mutex
	circuits map[api.Hash]*coordEntry // guarded by mu
	useSeq   int64                    // guarded by mu

	// counters behind /metrics (lttad_coord_*)
	accepted          atomic.Int64
	rejectedFull      atomic.Int64
	rejectedDrain     atomic.Int64
	badRequests       atomic.Int64
	streams           atomic.Int64
	checksMerged      atomic.Int64
	dispatchPrimary   atomic.Int64
	dispatchRequeue   atomic.Int64
	dispatchHedge     atomic.Int64
	requeuedChecks    atomic.Int64
	hedgedChecks      atomic.Int64
	duplicatesDropped atomic.Int64
	workerFailures    atomic.Int64
	workerUploads     atomic.Int64
	checkFailures     atomic.Int64
	netlistParses     atomic.Int64
}

// coordWorker is the coordinator's view of one worker daemon: its
// client, its probed liveness, and which circuit hashes it is known to
// hold (so warm shards skip the upload round trip entirely).
type coordWorker struct {
	addr  string
	cl    *client.Client
	alive atomic.Bool

	mu       sync.Mutex
	uploaded map[api.Hash]bool // guarded by mu
}

// forget drops the local belief that the worker holds hash — called on
// an unknown_hash answer (the worker evicted or restarted) so the next
// dispatch re-uploads.
func (w *coordWorker) forget(h api.Hash) {
	w.mu.Lock()
	delete(w.uploaded, h)
	w.mu.Unlock()
}

func (w *coordWorker) knows(h api.Hash) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.uploaded[h]
}

func (w *coordWorker) remember(h api.Hash) {
	w.mu.Lock()
	w.uploaded[h] = true
	w.mu.Unlock()
}

// coordEntry is one registered circuit on the coordinator: the
// canonical upload (re-sent verbatim to any worker that needs it — its
// hash is reproducible by construction) and the parsed circuit used
// for sink resolution, sweep aggregation, and response echoes.
type coordEntry struct {
	hash    api.Hash
	canon   *api.UploadRequest
	c       *circuit.Circuit
	lastUse int64 // guarded by Coordinator.mu
}

// NewCoordinator builds a Coordinator over the configured workers and
// starts its health-probe loop.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		pool:     client.NewPool(cfg.Workers),
		byAddr:   make(map[string]*coordWorker),
		slots:    make(chan struct{}, cfg.QueueDepth),
		circuits: make(map[api.Hash]*coordEntry),
	}
	co.baseCtx, co.baseCancel = context.WithCancel(context.Background())
	co.log = cfg.Logger
	co.reg = obs.NewRegistry()
	co.flight = obs.NewFlightRecorder(cfg.FlightLast, cfg.FlightSlowest)
	co.checkSeconds = obs.NewHistogram(obs.ExpBuckets(1_000, 100_000_000_000, 5))
	for _, addr := range co.pool.Addrs() {
		w := &coordWorker{addr: addr, cl: co.pool.For(addr), uploaded: make(map[api.Hash]bool)}
		co.workers = append(co.workers, w)
		co.byAddr[addr] = w
	}
	co.registerCoordMetrics()
	co.mux.HandleFunc("/v1/check", co.handleCheck)
	co.mux.HandleFunc("PUT /v1/circuits", co.handleCircuitPut)
	co.mux.HandleFunc("POST /v1/circuits/{hash}/check", co.handleCheckByHash)
	co.mux.HandleFunc("/healthz", co.handleHealthz)
	co.mux.HandleFunc("/readyz", co.handleReadyz)
	co.mux.HandleFunc("/metrics", co.handleMetricsProm)
	co.mux.HandleFunc("/metrics.json", co.handleMetricsJSON)
	co.mux.HandleFunc("GET /debug/checks", co.handleDebugChecks)

	probeCtx, stop := context.WithCancel(co.baseCtx)
	co.probeStop = stop
	co.probeDone = make(chan struct{})
	go co.probeLoop(probeCtx)
	return co
}

func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.mux.ServeHTTP(w, r) }

// probeLoop keeps the live worker set fresh: every ProbeInterval each
// worker's /readyz is asked whether it would admit a batch. Dispatch
// failures mark workers dead immediately (the probe is the recovery
// path, not the detection path); a probe that succeeds resurrects a
// worker for future placements.
func (co *Coordinator) probeLoop(ctx context.Context) {
	defer close(co.probeDone)
	co.probeAll(ctx)
	if co.cfg.ProbeInterval < 0 {
		<-ctx.Done()
		return
	}
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			co.probeAll(ctx)
		}
	}
}

// probeAll probes every worker concurrently and refreshes liveness.
func (co *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range co.workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := co.pool.Probe(ctx, w.addr, co.cfg.ProbeTimeout)
			was := w.alive.Swap(err == nil)
			if was != (err == nil) {
				co.log.LogAttrs(ctx, slog.LevelInfo, "worker liveness changed",
					slog.String("worker", w.addr), slog.Bool("alive", err == nil))
			}
		}()
	}
	wg.Wait()
	if co.aliveCount() > 0 {
		co.ready.Store(true)
	}
}

func (co *Coordinator) aliveCount() int {
	n := 0
	for _, w := range co.workers {
		if w.alive.Load() {
			n++
		}
	}
	return n
}

// aliveWorkers returns the addresses currently believed live. When
// none are (cold start, or every worker just failed), one synchronous
// probe round runs first so a batch arriving right after startup —or
// right after a mass restart — still finds its cluster.
func (co *Coordinator) aliveWorkers(ctx context.Context) []string {
	collect := func() []string {
		var out []string
		for _, w := range co.workers {
			if w.alive.Load() {
				out = append(out, w.addr)
			}
		}
		return out
	}
	// Until a probe round has completed, the live set may be a partial
	// one from the start-up round still in flight.
	if co.ready.Load() {
		if ws := collect(); len(ws) > 0 {
			return ws
		}
	}
	co.probeAll(ctx)
	return collect()
}

// markDead records a dispatch-detected worker failure.
func (co *Coordinator) markDead(ctx context.Context, w *coordWorker, cause error) {
	if w.alive.Swap(false) {
		co.workerFailures.Add(1)
		co.log.LogAttrs(ctx, slog.LevelWarn, "worker failed",
			slog.String("worker", w.addr), slog.String("error", cause.Error()))
	}
}

// ensureCircuit makes sure worker w holds the entry's circuit,
// uploading the canonical form through the registry API if the
// coordinator does not already believe it resident. The worker's hash
// must echo ours — canonicalization is deterministic, so a mismatch
// means version skew, not bad luck.
func (co *Coordinator) ensureCircuit(ctx context.Context, w *coordWorker, e *coordEntry) error {
	if w.knows(e.hash) {
		return nil
	}
	up, err := w.cl.Upload(ctx, e.canon.Netlist, client.UploadOptions{
		Format: e.canon.Format, Name: e.canon.Name, DefaultDelay: e.canon.DefaultDelay,
		SDF: e.canon.SDF, Delays: e.canon.Delays,
	})
	if err != nil {
		return err
	}
	if up != e.hash {
		return fmt.Errorf("worker %s hashed the circuit as %s, coordinator as %s (version skew?)",
			w.addr, up, e.hash)
	}
	w.remember(e.hash)
	co.workerUploads.Add(1)
	return nil
}

// getEntry looks a registered circuit up and touches its LRU slot.
func (co *Coordinator) getEntry(h api.Hash) (*coordEntry, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	e, ok := co.circuits[h]
	if ok {
		co.useSeq++
		e.lastUse = co.useSeq
	}
	return e, ok
}

// putEntry registers a circuit (idempotent) and reports whether this
// call created it, evicting the least-recently-used entry beyond the
// capacity. Workers keep their own registries; evicting here only
// means a later check on the hash must re-upload through a client.
func (co *Coordinator) putEntry(hash api.Hash, canon *api.UploadRequest, build func() (*circuit.Circuit, error)) (*coordEntry, bool, error) {
	co.mu.Lock()
	if e, ok := co.circuits[hash]; ok {
		co.useSeq++
		e.lastUse = co.useSeq
		co.mu.Unlock()
		return e, false, nil
	}
	co.mu.Unlock()
	// Parse outside the lock; concurrent identical uploads both parse
	// and the second insert loses gracefully (same content, same hash).
	c, err := build()
	if err != nil {
		return nil, false, err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if e, ok := co.circuits[hash]; ok {
		co.useSeq++
		e.lastUse = co.useSeq
		return e, false, nil
	}
	co.useSeq++
	e := &coordEntry{hash: hash, canon: canon, c: c, lastUse: co.useSeq}
	co.circuits[hash] = e
	for len(co.circuits) > co.cfg.RegistryMaxCircuits {
		var lru *coordEntry
		for _, cand := range co.circuits {
			if lru == nil || cand.lastUse < lru.lastUse {
				lru = cand
			}
		}
		delete(co.circuits, lru.hash)
	}
	return e, true, nil
}

func (co *Coordinator) circuitCount() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.circuits)
}

// BeginDrain moves the coordinator to draining: new submissions are
// rejected with 503 + Retry-After; in-flight batches keep merging.
// Idempotent.
func (co *Coordinator) BeginDrain() { co.draining.Store(true) }

// Shutdown drains the coordinator: it stops admitting batches, waits
// for the in-flight ones, and — if ctx expires first — cancels them so
// every check still reports exactly one terminal result (verdict C for
// those cut off), with the cancellation fanned out to every worker
// stream the batches hold open. The probe loop has exited when it
// returns.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.BeginDrain()
	var err error
	co.shutdownOnce.Do(func() {
		done := make(chan struct{})
		go func() {
			co.inflight.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
			co.baseCancel()
			<-done
		}
		co.baseCancel()
		co.probeStop()
	})
	<-co.probeDone
	return err
}

// rejectDraining answers a submission arriving during drain.
func (co *Coordinator) rejectDraining(ctx context.Context, w http.ResponseWriter, what string) {
	co.rejectedDrain.Add(1)
	co.log.LogAttrs(ctx, slog.LevelWarn, what+" rejected", slog.String("reason", "draining"))
	w.Header().Set("Retry-After", co.retryAfterSeconds())
	writeError(w, &apiError{status: http.StatusServiceUnavailable, code: "draining",
		msg: "coordinator is draining; resubmit elsewhere"})
}

func (co *Coordinator) retryAfterSeconds() string {
	secs := int(co.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func (co *Coordinator) rejectBadRequest(ctx context.Context, w http.ResponseWriter, e *apiError) {
	co.badRequests.Add(1)
	co.log.LogAttrs(ctx, slog.LevelInfo, "bad request",
		slog.String("code", e.code), slog.String("message", e.msg))
	writeError(w, e)
}

// handleCircuitPut is PUT /v1/circuits on the coordinator: hash and
// parse exactly like a worker would (shared canonicalization, so the
// address is identical cluster-wide), keep the canonical form for
// worker uploads, and echo the address. Workers receive the circuit
// lazily, the first time a shard routes to them.
func (co *Coordinator) handleCircuitPut(w http.ResponseWriter, r *http.Request) {
	if co.draining.Load() {
		co.rejectDraining(r.Context(), w, "upload")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes)
	var up UploadRequest
	if apiErr := decodeBody(r.Body, &up); apiErr != nil {
		co.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	if !api.AcceptsVersion(up.V) {
		co.rejectBadRequest(r.Context(), w, unsupportedVersion(up.V))
		return
	}
	hash, canon, err := registry.HashUpload(&up)
	if err != nil {
		co.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	entry, created, err := co.putEntry(hash, canon, func() (*circuit.Circuit, error) {
		co.netlistParses.Add(1)
		return buildUploadCircuit(canon)
	})
	if err != nil {
		co.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	co.log.LogAttrs(r.Context(), slog.LevelInfo, "circuit upload",
		slog.String("hash", string(hash)), slog.Bool("created", created),
		slog.String("circuit", entry.c.Name))
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	_ = json.NewEncoder(w).Encode(UploadResponse{
		V: api.Version, Hash: hash, Created: created,
		Circuit: circuitInfo(entry.c, 0),
	})
}

// handleCheck is the coordinator's inline POST /v1/check: the netlist
// rides in the body, is hashed into the coordinator's table exactly
// like an upload, and the batch then runs on the sharded path — so
// inline and hash-addressed submissions are served by the same merge
// machine and are result-identical.
func (co *Coordinator) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: "POST required"})
		return
	}
	if co.draining.Load() {
		co.rejectDraining(r.Context(), w, "batch")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes)
	req, apiErr := decodeRequest(r.Body, false)
	if apiErr != nil {
		co.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	hash, canon, err := registry.HashUpload(&api.UploadRequest{
		Netlist: req.Netlist, Format: req.Format, Name: req.Name, DefaultDelay: req.DefaultDelay,
	})
	if err != nil {
		co.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	entry, _, err := co.putEntry(hash, canon, func() (*circuit.Circuit, error) {
		co.netlistParses.Add(1)
		return buildUploadCircuit(canon)
	})
	if err != nil {
		co.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	co.admitAndRun(w, r, req, entry)
}

// handleCheckByHash is POST /v1/circuits/{hash}/check on the
// coordinator.
func (co *Coordinator) handleCheckByHash(w http.ResponseWriter, r *http.Request) {
	if co.draining.Load() {
		co.rejectDraining(r.Context(), w, "batch")
		return
	}
	h := api.Hash(r.PathValue("hash"))
	if !h.Valid() {
		co.rejectBadRequest(r.Context(), w, badRequest("bad_hash",
			"malformed circuit hash %q (want sha256:<64 hex>)", string(h)))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, co.cfg.MaxBodyBytes)
	req, apiErr := decodeRequest(r.Body, true)
	if apiErr != nil {
		co.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	entry, ok := co.getEntry(h)
	if !ok {
		co.badRequests.Add(1)
		co.log.LogAttrs(r.Context(), slog.LevelInfo, "unknown hash", slog.String("hash", string(h)))
		writeError(w, &apiError{status: http.StatusNotFound, code: "unknown_hash",
			msg:  "no circuit registered under this hash; PUT /v1/circuits and retry",
			hash: h})
		return
	}
	co.admitAndRun(w, r, req, entry)
}

// admitAndRun is the coordinator's admission + execution half: resolve
// sinks, take a queue slot (or 429), build the batch context, and run
// the shard/merge state machine.
func (co *Coordinator) admitAndRun(w http.ResponseWriter, r *http.Request, req *Request, entry *coordEntry) {
	checks, apiErr := resolveChecks(entry.c, req.Checks)
	if apiErr != nil {
		co.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	if n := batchSize(entry.c, req, checks); n > co.cfg.MaxChecks {
		co.rejectBadRequest(r.Context(), w, badRequest("too_many_checks",
			"batch expands to %d checks, cap is %d", n, co.cfg.MaxChecks))
		return
	}

	select {
	case co.slots <- struct{}{}:
	default:
		co.rejectedFull.Add(1)
		co.log.LogAttrs(r.Context(), slog.LevelWarn, "batch rejected",
			slog.String("reason", "queue_full"), slog.Int("queueDepth", co.cfg.QueueDepth))
		w.Header().Set("Retry-After", co.retryAfterSeconds())
		writeError(w, &apiError{status: http.StatusTooManyRequests, code: "queue_full",
			msg: fmt.Sprintf("admission queue full (%d batches)", co.cfg.QueueDepth)})
		return
	}
	co.inflight.Add(1)
	co.accepted.Add(1)
	defer func() {
		<-co.slots
		co.inflight.Done()
	}()

	ctx := co.baseCtx
	if reqCtx := r.Context(); reqCtx != nil {
		var stop context.CancelFunc
		ctx, stop = mergeCancel(ctx, reqCtx)
		defer stop()
	}
	if d := time.Duration(req.TimeoutMs) * time.Millisecond; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	id := co.batchSeq.Add(1)
	trace := api.EnsureTrace(req.Trace)
	logger := co.log.With(slog.Int64("batch", id), slog.String("trace_id", trace.TraceID))
	if trace.Tenant != "" {
		logger = logger.With(slog.String("tenant", trace.Tenant))
	}
	cb := &coordBatch{
		co: co, entry: entry, req: req, checks: checks, id: id,
		log: logger, trace: trace, clientTraced: req.Trace != nil,
	}
	if co.cfg.TraceDir != "" {
		cb.ct = obs.NewClusterTrace(time.Now())
	}
	cb.log.LogAttrs(ctx, slog.LevelInfo, "batch accepted",
		slog.String("circuit", entry.c.Name), slog.String("hash", string(entry.hash)),
		slog.Int("checks", batchSize(entry.c, req, checks)), slog.Bool("stream", req.Stream))
	if req.Stream {
		co.streams.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		em := &emitter{enc: json.NewEncoder(w), traceID: trace.TraceID}
		if fl, ok := w.(http.Flusher); ok {
			em.fl = fl
		}
		resp := cb.run(ctx, em)
		em.emit(Event{Type: "done", Done: &resp.Done})
		return
	}
	resp := cb.run(ctx, nil)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (co *Coordinator) health() Health {
	h := Health{Status: "ok", Workers: co.aliveCount(),
		Queued: len(co.slots), Capacity: co.cfg.QueueDepth}
	switch {
	case co.draining.Load():
		h.Status = "draining"
	case !co.ready.Load():
		h.Status = "starting"
	}
	return h
}

// handleHealthz is pure liveness, exactly like the worker's.
func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(co.health())
}

// handleReadyz is readiness: 503 until the first probe round finds a
// live worker, and from the moment draining begins — a coordinator
// with no cluster behind it must not join a load balancer.
func (co *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := co.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", co.retryAfterSeconds())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(h)
}

// registerCoordMetrics wires the shard/requeue/hedge counters into the
// Prometheus registry (mirrored in /metrics.json below).
func (co *Coordinator) registerCoordMetrics() {
	co.reg.GaugeFunc("lttad_coord_workers",
		"Workers configured behind the coordinator.", nil,
		func() float64 { return float64(len(co.workers)) })
	co.reg.GaugeFunc("lttad_coord_workers_alive",
		"Workers currently probed (or assumed) live.", nil,
		func() float64 { return float64(co.aliveCount()) })
	co.reg.GaugeFunc("lttad_coord_circuits",
		"Circuits registered on the coordinator.", nil,
		func() float64 { return float64(co.circuitCount()) })
	co.reg.CounterFunc("lttad_coord_batches_accepted_total",
		"Batches admitted past the bounded queue.", nil, co.accepted.Load)
	co.reg.CounterFunc("lttad_coord_batches_rejected_total",
		"Batches rejected by backpressure.", obs.Labels{"reason": "queue_full"}, co.rejectedFull.Load)
	co.reg.CounterFunc("lttad_coord_batches_rejected_total",
		"Batches rejected by backpressure.", obs.Labels{"reason": "draining"}, co.rejectedDrain.Load)
	co.reg.CounterFunc("lttad_coord_bad_requests_total",
		"Submissions rejected before admission (parse/validate).", nil, co.badRequests.Load)
	co.reg.CounterFunc("lttad_coord_streams_total",
		"Batches served as NDJSON streams.", nil, co.streams.Load)
	co.reg.CounterFunc("lttad_coord_checks_total",
		"Terminal check results merged into client responses.", nil, co.checksMerged.Load)
	co.reg.CounterFunc("lttad_coord_shard_dispatches_total",
		"Shard dispatches to workers by kind.", obs.Labels{"kind": "primary"}, co.dispatchPrimary.Load)
	co.reg.CounterFunc("lttad_coord_shard_dispatches_total",
		"Shard dispatches to workers by kind.", obs.Labels{"kind": "requeue"}, co.dispatchRequeue.Load)
	co.reg.CounterFunc("lttad_coord_shard_dispatches_total",
		"Shard dispatches to workers by kind.", obs.Labels{"kind": "hedge"}, co.dispatchHedge.Load)
	co.reg.CounterFunc("lttad_coord_requeued_checks_total",
		"Checks requeued off a failed worker onto survivors.", nil, co.requeuedChecks.Load)
	co.reg.CounterFunc("lttad_coord_hedged_checks_total",
		"Straggler checks hedged onto a second worker.", nil, co.hedgedChecks.Load)
	co.requeues = co.reg.CounterVec("lttad_coord_requeues_total",
		"Checks requeued, by why the previous dispatch failed.", "reason")
	co.hedges = co.reg.CounterVec("lttad_coord_hedges_total",
		"Straggler checks hedged, by the dispatch attempt the hedge became.", "attempt")
	co.reg.Histogram("lttad_coord_check_duration_seconds",
		"Worker-reported latency of terminal check results merged by this coordinator.",
		nil, co.checkSeconds, 1e-9)
	co.reg.CounterFunc("lttad_coord_duplicate_results_dropped_total",
		"Worker results dropped because the check already had its terminal result.",
		nil, co.duplicatesDropped.Load)
	co.reg.CounterFunc("lttad_coord_worker_failures_total",
		"Dispatch-detected worker failures (alive→dead transitions).", nil, co.workerFailures.Load)
	co.reg.CounterFunc("lttad_coord_worker_uploads_total",
		"Circuit uploads pushed to workers.", nil, co.workerUploads.Load)
	co.reg.CounterFunc("lttad_coord_check_failures_total",
		"Checks that exhausted every dispatch attempt and reported verdict A.",
		nil, co.checkFailures.Load)
	co.reg.CounterFunc("lttad_coord_netlist_parses_total",
		"Netlist parses performed by the coordinator (uploads and inline checks).",
		nil, co.netlistParses.Load)
}

// handleMetricsProm is GET /metrics: the coordinator's Prometheus text
// exposition (lttad_coord_* plus runtime samples).
func (co *Coordinator) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	co.reg.WritePrometheus(w)
	obs.WriteRuntimeProm(w)
}

// handleDebugChecks is GET /debug/checks on the coordinator: the
// merged-result flight recorder plus the merge-latency exemplars, the
// cluster-level half of the introspection a worker's endpoint serves.
func (co *Coordinator) handleDebugChecks(w http.ResponseWriter, _ *http.Request) {
	writeDebugChecks(w, co.flight, co.checkSeconds.Exemplars())
}

// handleMetricsJSON mirrors the same counters as a structured
// document, the coordinator's /metrics.json.
func (co *Coordinator) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	m := Metrics{
		Server: map[string]int64{
			"coordWorkers":            int64(len(co.workers)),
			"coordWorkersAlive":       int64(co.aliveCount()),
			"coordCircuits":           int64(co.circuitCount()),
			"acceptedBatches":         co.accepted.Load(),
			"rejectedFull":            co.rejectedFull.Load(),
			"rejectedDraining":        co.rejectedDrain.Load(),
			"badRequests":             co.badRequests.Load(),
			"streams":                 co.streams.Load(),
			"queuedBatches":           int64(len(co.slots)),
			"queueDepth":              int64(co.cfg.QueueDepth),
			"checksMerged":            co.checksMerged.Load(),
			"shardDispatchesPrimary":  co.dispatchPrimary.Load(),
			"shardDispatchesRequeue":  co.dispatchRequeue.Load(),
			"shardDispatchesHedge":    co.dispatchHedge.Load(),
			"requeuedChecks":          co.requeuedChecks.Load(),
			"hedgedChecks":            co.hedgedChecks.Load(),
			"duplicateResultsDropped": co.duplicatesDropped.Load(),
			"workerFailures":          co.workerFailures.Load(),
			"workerUploads":           co.workerUploads.Load(),
			"checkFailures":           co.checkFailures.Load(),
			"netlistParses":           co.netlistParses.Load(),
		},
		Engine: map[string]int64{},
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}
