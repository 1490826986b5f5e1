package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Config sizes the service. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Workers is the shared check-execution pool size (default:
	// GOMAXPROCS). Every check of every in-flight batch runs on this
	// pool, so it is the server's hard CPU bound.
	Workers int
	// QueueDepth bounds admitted batches — in flight plus waiting for
	// workers (default 64). A submission beyond it is rejected with
	// 429 + Retry-After instead of queueing unboundedly.
	QueueDepth int
	// MaxBodyBytes caps the request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxChecks caps the checks one batch may expand to (default
	// 100000).
	MaxChecks int
	// CheckTimeout caps each check's wall clock server-side, composing
	// with the client's checkTimeoutMs (smaller wins; 0 = none).
	CheckTimeout time.Duration
	// BatchTimeout caps each batch the same way (0 = none).
	BatchTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
	// Logger receives the server's structured logs (default: discard).
	Logger *slog.Logger
	// TraceDir, when non-empty, writes a Chrome trace_event timeline
	// per batch to TraceDir/batch-<id>.trace.json (Perfetto-loadable).
	TraceDir string
	// FlightLast and FlightSlowest size the always-on flight recorder
	// behind GET /debug/checks: the last N completed checks and the K
	// slowest (defaults 256 and 32).
	FlightLast    int
	FlightSlowest int
	// RegistryMaxCircuits bounds the content-addressed circuit registry
	// behind PUT /v1/circuits (default 128 circuits; LRU beyond).
	RegistryMaxCircuits int
	// RegistryMaxBytes bounds the registry's estimated resident bytes —
	// circuits plus cached prepared state (default 1 GiB; negative =
	// unlimited).
	RegistryMaxBytes int64
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Server is the lttad worker: the shared HTTP front end over a local
// check-execution pool, which runs every batch against its pinned
// circuit's prepared state (cached in the registry for uploads). Create with New, serve with any
// http.Server (it implements http.Handler), stop with Shutdown.
type Server struct {
	*frontEnd
	cfg Config

	tasks     chan func()
	workersWG sync.WaitGroup
	ready     atomic.Bool // flips once the warm-up Prepare canary completes

	eng *obs.Tracer // engine telemetry behind /metrics, stamped on every check

	checksRun atomic.Int64
	panics    atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		tasks: make(chan func()),
		eng:   obs.NewTracer(),
	}
	s.frontEnd = newFrontEnd(frontConfig{
		queueDepth: cfg.QueueDepth, maxBody: cfg.MaxBodyBytes, maxChecks: cfg.MaxChecks,
		retryAfter: cfg.RetryAfter, batchTimeout: cfg.BatchTimeout, traceDir: cfg.TraceDir,
		flightLast: cfg.FlightLast, flightSlowest: cfg.FlightSlowest, logger: cfg.Logger,
		registry: registry.Config{MaxCircuits: cfg.RegistryMaxCircuits, MaxResidentBytes: cfg.RegistryMaxBytes},
		role:     "server", prefix: "lttad_",
	}, s, s.eng.CheckSeconds)
	s.eng.MustRegister(s.reg, "ltta")
	s.registerWorkerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	go s.warmup()
	return s
}

// warmup runs a tiny Prepare+check canary so /readyz only reports
// ready once the engine demonstrably works in this process — the
// first real batch then pays no first-use cost and a broken build
// never joins a load balancer.
func (s *Server) warmup() {
	c := gen.C17(10)
	v := core.Prepare(c).NewVerifier(core.Default())
	cr := v.RunAll(s.baseCtx, core.Request{Delta: v.Topological().Add(1)})
	s.ready.Store(true)
	s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "ready",
		slog.String("canary", c.Name), slog.String("verdict", cr.Final.String()),
		slog.Int("workers", s.cfg.Workers), slog.Int("queueDepth", s.fc.queueDepth))
}

// registerWorkerMetrics wires the pool and registry series into the
// Prometheus registry next to the admission counters and the engine
// histograms.
func (s *Server) registerWorkerMetrics() {
	s.reg.CounterFunc("lttad_checks_run_total",
		"Checks executed on the pool.", nil, s.checksRun.Load)
	s.reg.CounterFunc("lttad_check_panics_total",
		"Checks that panicked and were isolated.", nil, s.panics.Load)
	s.reg.GaugeFunc("lttad_workers",
		"Check-execution pool size.", nil,
		func() float64 { return float64(s.cfg.Workers) })
	s.reg.CounterFunc("lttad_registry_hits_total",
		"Hash-addressed checks that found their prepared state resident.", nil, s.circuits.Hits)
	s.reg.CounterFunc("lttad_registry_misses_total",
		"Hash-addressed checks that arrived cold (led or joined a preparation).", nil, s.circuits.Misses)
	s.reg.CounterFunc("lttad_registry_unknown_total",
		"Checks against hashes no circuit is registered under (404).", nil, s.circuits.Unknown)
	s.reg.CounterFunc("lttad_registry_prepares_total",
		"core.Prepare executions inside the registry.", nil, s.circuits.Prepares)
	s.reg.CounterFunc("lttad_registry_singleflight_coalesced_total",
		"Cold checks that coalesced onto an in-flight preparation instead of running their own.",
		nil, s.circuits.Coalesced)
	s.reg.CounterFunc("lttad_registry_evictions_total",
		"Registry entries evicted by capacity pressure.",
		obs.Labels{"mode": "immediate"}, s.circuits.Evictions)
	s.reg.CounterFunc("lttad_registry_evictions_total",
		"Registry entries evicted by capacity pressure.",
		obs.Labels{"mode": "deferred"}, s.circuits.DeferredEvictions)
	s.reg.CounterFunc("lttad_registry_uploads_total",
		"Circuit uploads by outcome.", obs.Labels{"result": "created"}, s.circuits.UploadsCreated)
	s.reg.CounterFunc("lttad_registry_uploads_total",
		"Circuit uploads by outcome.", obs.Labels{"result": "existing"}, s.circuits.UploadsExisting)
	s.reg.GaugeFunc("lttad_registry_circuits",
		"Circuits currently registered (acquirable).", nil,
		func() float64 { return float64(s.circuits.Circuits()) })
	s.reg.GaugeFunc("lttad_registry_resident_bytes",
		"Estimated bytes held by registered circuits and prepared state.", nil,
		func() float64 { return float64(s.circuits.ResidentBytes()) })
}

// worker executes pool tasks; each task does its own panic isolation.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for f := range s.tasks {
		f()
	}
}

// submit runs f on the pool, or synchronously reports a cancelled
// submission when ctx ends before a worker frees up. The returned
// value says whether f was (or will be) executed.
func (s *Server) submit(ctx context.Context, f func()) bool {
	select {
	case s.tasks <- f:
		return true
	case <-ctx.Done():
		return false
	}
}

// open resolves the batch's prepared state — after admission, under
// the batch context, so cold preparations respect the queue bound and
// the drain deadline — and builds the pool batch.
func (s *Server) open(ctx context.Context, h *batchHead) (runner, *apiError) {
	prep, wasHit, err := h.pin.Prepared(ctx)
	if err != nil {
		return nil, &apiError{status: http.StatusInternalServerError,
			code: "prepare_failed", msg: err.Error(), hash: h.pin.Hash()}
	}
	h.attrs = append(h.attrs, slog.Bool("cacheHit", wasHit))
	b := &batch{batchHead: h, srv: s,
		v: prep.NewVerifier(engineOptions(h.req.Options)), budgets: engineBudgets(h.req.Budgets),
		checkTimeout: minTimeout(s.cfg.CheckTimeout, time.Duration(h.req.CheckTimeoutMs)*time.Millisecond),
	}
	if s.cfg.TraceDir != "" {
		b.ct = obs.NewClusterTrace(time.Now())
	}
	return b, nil
}

func (s *Server) status() (bool, int) { return s.ready.Load(), s.cfg.Workers }

func (s *Server) stop() {
	close(s.tasks)
	s.workersWG.Wait()
}
