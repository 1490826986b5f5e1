// Command lttad serves batch timing checks over HTTP/JSON: POST a
// netlist plus a batch of (sink, δ) checks or a δ-sweep to /v1/check
// and the daemon prepares the circuit once, fans the checks out over
// a bounded worker pool, and answers with per-check verdicts,
// witnesses, and engine statistics (NDJSON streaming on request).
//
// Circuits can also be uploaded once into the content-addressed
// registry (PUT /v1/circuits → stable sha256 hash) and then checked
// repeatedly via POST /v1/circuits/{hash}/check: warm checks reuse the
// cached prepared state — zero parses, zero core.Prepare calls — and
// concurrent cold checks on one hash coalesce onto a single
// preparation. -registry-size and -registry-bytes bound the cache (LRU
// beyond; entries pinned by running batches are never freed under
// them, see DESIGN.md §13).
//
// With -coordinator the daemon runs no checks itself: it shards each
// batch by (circuit, sink) rendezvous hashing over the listed worker
// daemons, uploads circuits to workers on demand, merges the per-shard
// NDJSON streams into one client-facing stream, requeues the checks of
// a failed worker onto survivors, and hedges stragglers after
// -hedge-after (see DESIGN.md §15 and the README's Clustering
// section). The wire protocol is identical either way — clients cannot
// tell a coordinator from a single daemon except by the placement
// metadata stamped on results.
//
// Usage:
//
//	lttad [-addr :8090] [-workers N] [-queue N]
//	      [-check-timeout D] [-batch-timeout D] [-drain-timeout D]
//	      [-max-body BYTES] [-max-checks N] [-debug-addr A]
//	      [-registry-size N] [-registry-bytes BYTES]
//	lttad -coordinator host1:8090,host2:8090,host3:8090
//	      [-hedge-after D] [-max-attempts N] [-probe-interval D] ...
//
// -workers, -check-timeout, -batch-timeout and -registry-bytes belong
// to a worker; -hedge-after, -max-attempts and -probe-interval to a
// coordinator; every other flag applies to both. Setting a flag
// explicitly for the role that ignores it exits 2 with a message
// naming the flag.
//
// Overload and lifecycle semantics (see DESIGN.md §10):
//
//   - admission is bounded: at most -queue batches are in flight or
//     waiting; beyond that, submissions get 429 + Retry-After
//   - SIGTERM/SIGINT drains gracefully: new submissions get 503,
//     in-flight batches finish, and past -drain-timeout the remaining
//     checks are cancelled (each still answers, with verdict C)
//   - /healthz is pure liveness (always 200 while serving); /readyz is
//     readiness (503 while starting or draining, and on a coordinator
//     whenever no worker is alive) — point load balancers at /readyz
//     and restart-deciders at /healthz
//   - /metrics is the Prometheus text exposition (server counters,
//     per-stage latency histograms, runtime samples) and the only
//     metrics endpoint; -debug-addr serves /debug/pprof alone
//   - logs are structured (log/slog): -log-format text|json and
//     -log-level debug|info|warn|error; at debug every check logs its
//     sink, δ, verdict, and duration under the batch id
//   - -trace-dir DIR writes a Perfetto-loadable trace_event timeline
//     per batch to DIR/batch-<id>.trace.json; on a coordinator the
//     timeline is cluster-wide — routing, per-attempt worker dispatch,
//     the workers' in-band check spans, and merge lanes, all under the
//     batch's distributed trace id
//   - GET /debug/checks (workers and coordinators alike) returns the
//     always-on flight recorder: the last -flight-last completed checks
//     and the -flight-slowest slowest ones with stage durations,
//     verdicts, placement, and trace ids, plus per-bucket latency
//     exemplars — introspection with zero configuration and O(1) cost
//     per check
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on the default mux
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// options are lttad's parsed flags.
type options struct {
	addr, debugAddr, logFormat, logLevel, traceDir, coordinator string

	queue, maxChecks, flightLast, flightSlowest, registrySize int
	maxBody                                                   int64
	drainTimeout                                              time.Duration

	// worker only
	workers                    int
	checkTimeout, batchTimeout time.Duration
	registryBytes              int64

	// coordinator only
	maxAttempts               int
	hedgeAfter, probeInterval time.Duration
}

// Flags that only one role reads: setting one for the other role is
// an error, not a silent no-op.
var (
	workerOnlyFlags = []string{"workers", "check-timeout", "batch-timeout", "registry-bytes"}
	coordOnlyFlags  = []string{"hedge-after", "max-attempts", "probe-interval"}
)

// parseFlags parses the command line into options. Usage and errors go
// to errOut; a flag explicitly set for the role that ignores it is an
// error naming the flag.
func parseFlags(args []string, errOut io.Writer) (*options, error) {
	fs := flag.NewFlagSet("lttad", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "worker: check-execution pool size (0 = all CPUs)")
	fs.IntVar(&o.queue, "queue", 64, "admission queue depth (concurrent batches before 429)")
	fs.DurationVar(&o.checkTimeout, "check-timeout", 0, "worker: server-side wall-clock cap per check (0 = none)")
	fs.DurationVar(&o.batchTimeout, "batch-timeout", 0, "worker: server-side wall-clock cap per batch (0 = none)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "graceful-drain bound on SIGTERM/SIGINT")
	fs.Int64Var(&o.maxBody, "max-body", 32<<20, "request body byte cap")
	fs.IntVar(&o.maxChecks, "max-checks", 100000, "per-batch check-count cap")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/pprof on this address")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, or error")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write a trace_event timeline per batch to this directory")
	fs.IntVar(&o.flightLast, "flight-last", 0, "flight recorder: recent checks kept for /debug/checks (0 = default 256)")
	fs.IntVar(&o.flightSlowest, "flight-slowest", 0, "flight recorder: slowest checks kept for /debug/checks (0 = default 32)")
	fs.IntVar(&o.registrySize, "registry-size", 0, "circuit-registry (or coordinator circuit-table) capacity in circuits (0 = default 128)")
	fs.Int64Var(&o.registryBytes, "registry-bytes", 0, "worker: circuit-registry resident-byte cap (0 = default 1 GiB, negative = unlimited)")
	fs.StringVar(&o.coordinator, "coordinator", "", "run as a cluster coordinator over this comma-separated worker list (addr[,addr...]) instead of executing checks")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 2*time.Second, "coordinator: hedge straggling checks onto a second worker after this long (negative = never)")
	fs.IntVar(&o.maxAttempts, "max-attempts", 3, "coordinator: dispatch attempts per check across requeues and hedges")
	fs.DurationVar(&o.probeInterval, "probe-interval", 2*time.Second, "coordinator: worker /readyz probe period (negative = on-demand only)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	role, ignored := "worker", coordOnlyFlags
	if o.coordinator != "" {
		role, ignored = "coordinator", workerOnlyFlags
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(ignored, f.Name) {
			err = fmt.Errorf("-%s does not apply to a %s", f.Name, role)
		}
	})
	if err != nil {
		fmt.Fprintln(errOut, "lttad:", err)
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lttad:", err)
		os.Exit(2)
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "lttad:", err)
			os.Exit(1)
		}
	}

	ctx := context.Background()
	// Both roles share the wire protocol and the drain lifecycle; the
	// coordinator just delegates the checks to its workers.
	var s interface {
		http.Handler
		BeginDrain()
		Shutdown(context.Context) error
	}
	if o.coordinator != "" {
		s = server.NewCoordinator(server.CoordConfig{
			Workers:             strings.Split(o.coordinator, ","),
			QueueDepth:          o.queue,
			MaxBodyBytes:        o.maxBody,
			MaxChecks:           o.maxChecks,
			HedgeAfter:          o.hedgeAfter,
			MaxAttempts:         o.maxAttempts,
			ProbeInterval:       o.probeInterval,
			RegistryMaxCircuits: o.registrySize,
			Logger:              logger,
			TraceDir:            o.traceDir,
			FlightLast:          o.flightLast,
			FlightSlowest:       o.flightSlowest,
		})
	} else {
		s = server.New(server.Config{
			Workers:      o.workers,
			QueueDepth:   o.queue,
			MaxBodyBytes: o.maxBody,
			MaxChecks:    o.maxChecks,
			CheckTimeout: o.checkTimeout,
			BatchTimeout: o.batchTimeout,
			Logger:       logger,
			TraceDir:     o.traceDir,

			FlightLast:    o.flightLast,
			FlightSlowest: o.flightSlowest,

			RegistryMaxCircuits: o.registrySize,
			RegistryMaxBytes:    o.registryBytes,
		})
	}
	httpSrv := &http.Server{Addr: o.addr, Handler: s}

	if o.debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.debugAddr, nil); err != nil {
				logger.LogAttrs(ctx, slog.LevelError, "debug server failed",
					slog.String("error", err.Error()))
			}
		}()
		logger.LogAttrs(ctx, slog.LevelInfo, "debug server up", slog.String("addr", o.debugAddr))
	}

	sigCtx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.LogAttrs(ctx, slog.LevelInfo, "serving",
		slog.String("addr", o.addr), slog.Int("workers", o.workers), slog.Int("queue", o.queue))

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "lttad:", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	logger.LogAttrs(ctx, slog.LevelInfo, "draining", slog.Duration("deadline", o.drainTimeout))
	dctx, cancel := context.WithTimeout(ctx, o.drainTimeout)
	defer cancel()
	// Reject new submissions at once, then drain the pool (cancelling
	// leftover checks at the deadline) while the HTTP server closes the
	// listener and waits for the in-flight responses those batches are
	// still writing.
	s.BeginDrain()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(dctx) }()
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.LogAttrs(ctx, slog.LevelWarn, "http shutdown", slog.String("error", err.Error()))
	}
	if err := <-drained; err != nil {
		logger.LogAttrs(ctx, slog.LevelWarn, "drain deadline hit, remaining checks cancelled",
			slog.String("error", err.Error()))
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "stopped")
}
