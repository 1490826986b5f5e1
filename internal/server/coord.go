package server

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
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
	// RegistryMaxCircuits bounds the coordinator's circuit registry
	// (parsed circuits with the canonical uploads re-sent to workers;
	// default 128, LRU beyond). The coordinator prepares nothing, so
	// no byte cap applies.
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
	if cfg.Name == "" {
		cfg.Name = "lttad-coord"
	}
	return cfg
}

// Coordinator is the cluster tier of lttad: the shared HTTP front end
// (same wire protocol as a single daemon — PUT /v1/circuits, POST
// /v1/check, POST /v1/circuits/{hash}/check, NDJSON streaming — and
// the same circuit registry, whose entries' canonical uploads it
// re-sends to workers) over shard dispatch instead of a local pool. A
// batch is sharded by (circuit-hash, sink) rendezvous hashing over the
// live workers — so each worker's prepared-state LRU, cones and base
// snapshots stay hot for its shard — and the per-shard result streams
// are merged back into one client-facing stream with an exactly-once
// terminal result per check: worker failures requeue the unfinished
// checks onto survivors, stragglers are hedged, and duplicate results
// from the races that creates are dropped at the merge point. See
// DESIGN.md §15.
type Coordinator struct {
	*frontEnd
	cfg CoordConfig

	pool    *client.Pool
	workers []*coordWorker
	byAddr  map[string]*coordWorker

	probed    atomic.Bool // a probe round has completed
	probeStop context.CancelFunc
	probeDone chan struct{}

	requeues *obs.CounterVec // lttad_coord_requeues_total by reason
	hedges   *obs.CounterVec // lttad_coord_hedges_total by attempt

	// counters behind /metrics (lttad_coord_*)
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

// NewCoordinator builds a Coordinator over the configured workers and
// starts its health-probe loop.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:    cfg,
		pool:   client.NewPool(cfg.Workers),
		byAddr: make(map[string]*coordWorker),
	}
	co.frontEnd = newFrontEnd(frontConfig{
		queueDepth: cfg.QueueDepth, maxBody: cfg.MaxBodyBytes, maxChecks: cfg.MaxChecks,
		retryAfter: cfg.RetryAfter, traceDir: cfg.TraceDir,
		flightLast: cfg.FlightLast, flightSlowest: cfg.FlightSlowest, logger: cfg.Logger,
		registry: registry.Config{MaxCircuits: cfg.RegistryMaxCircuits}, registerInline: true,
		role: "coordinator", prefix: "lttad_coord_",
	}, co, obs.NewHistogram(obs.ExpBuckets(1_000, 100_000_000_000, 5)))
	for _, addr := range co.pool.Addrs() {
		w := &coordWorker{addr: addr, cl: co.pool.For(addr), uploaded: make(map[api.Hash]bool)}
		co.workers = append(co.workers, w)
		co.byAddr[addr] = w
	}
	co.registerCoordMetrics()

	probeCtx, stop := context.WithCancel(co.baseCtx)
	co.probeStop = stop
	co.probeDone = make(chan struct{})
	go co.probeLoop(probeCtx)
	return co
}

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
	co.probed.Store(true)
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
	if co.probed.Load() {
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

// ensureCircuit makes sure worker w holds the pinned circuit,
// uploading the entry's canonical form through the registry API if the
// coordinator does not already believe it resident. The worker's hash
// must echo ours — canonicalization is deterministic, so a mismatch
// means version skew, not bad luck.
func (co *Coordinator) ensureCircuit(ctx context.Context, w *coordWorker, pin *registry.Pin) error {
	h, canon := pin.Hash(), pin.Upload()
	if w.knows(h) {
		return nil
	}
	up, err := w.cl.Upload(ctx, canon.Netlist, client.UploadOptions{
		Format: canon.Format, Name: canon.Name, DefaultDelay: canon.DefaultDelay,
		SDF: canon.SDF, Delays: canon.Delays,
	})
	if err != nil {
		return err
	}
	if up != h {
		return fmt.Errorf("worker %s hashed the circuit as %s, coordinator as %s (version skew?)",
			w.addr, up, h)
	}
	w.remember(h)
	co.workerUploads.Add(1)
	return nil
}

func (co *Coordinator) open(_ context.Context, h *batchHead) (runner, *apiError) {
	cb := &coordBatch{batchHead: h, co: co}
	if co.cfg.TraceDir != "" {
		cb.ct = obs.NewClusterTrace(time.Now())
	}
	return cb, nil
}

// status is ready once a probe round has completed and at least one
// worker is alive: a coordinator with no cluster behind it must not
// join a load balancer.
func (co *Coordinator) status() (bool, int) {
	n := co.aliveCount()
	return co.probed.Load() && n > 0, n
}

// stop ends the probe loop; it has exited when stop returns.
func (co *Coordinator) stop() {
	co.probeStop()
	<-co.probeDone
}

// registerCoordMetrics wires the shard/requeue/hedge counters into the
// Prometheus registry.
func (co *Coordinator) registerCoordMetrics() {
	co.reg.GaugeFunc("lttad_coord_workers",
		"Workers configured behind the coordinator.", nil,
		func() float64 { return float64(len(co.workers)) })
	co.reg.GaugeFunc("lttad_coord_workers_alive",
		"Workers currently probed (or assumed) live.", nil,
		func() float64 { return float64(co.aliveCount()) })
	co.reg.GaugeFunc("lttad_coord_circuits",
		"Circuits registered on the coordinator.", nil,
		func() float64 { return float64(co.circuits.Circuits()) })
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
}
