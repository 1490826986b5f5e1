package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/server"
)

// clusterWorker is one killable lttad worker daemon on a real TCP
// listener (httptest.Server's Close waits for in-flight handlers,
// which is exactly what a crash does not do).
type clusterWorker struct {
	addr string
	s    *server.Server
	hs   *http.Server
}

func startClusterWorker(t *testing.T, cfg server.Config) *clusterWorker {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg)
	hs := &http.Server{Handler: s}
	go func() { _ = hs.Serve(lis) }()
	w := &clusterWorker{addr: "http://" + lis.Addr().String(), s: s, hs: hs}
	// A coordinator started next must find the worker ready: its
	// start-up probe round is the only one when probing is off.
	waitReady(t, client.New(w.addr))
	return w
}

// kill cuts the worker off the network mid-flight: the listener and
// every open connection close immediately — from the coordinator's
// point of view, a crashed process. The engine pool keeps running its
// orphaned batch until stop reaps it.
func (w *clusterWorker) kill() { _ = w.hs.Close() }

// stop is the orderly teardown: network off, then the pool drained
// with an already-expired deadline so leftover checks cancel at once.
func (w *clusterWorker) stop() {
	_ = w.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = w.s.Shutdown(ctx)
}

// checkKey identifies one client-facing check in a stream: for sweeps
// Index is the primary-output index, so (delta, index) is unique
// across the whole batch.
type checkKey struct {
	delta int64
	index int
}

// streamCollector consumes a client-facing stream and enforces the
// exactly-once contract as it reads: a second terminal result for any
// (delta, index) aborts the stream with an error. trigger closes once
// `after` check events have arrived (mid-flight fault injection hangs
// off it).
type streamCollector struct {
	after   int
	trigger chan struct{}
	once    sync.Once

	mu     sync.Mutex
	finals map[checkKey]string
	info   *server.CircuitInfo
	done   bool
}

func newStreamCollector(after int) *streamCollector {
	return &streamCollector{after: after, trigger: make(chan struct{}), finals: map[checkKey]string{}}
}

func (sc *streamCollector) fn(ev server.Event) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch ev.Type {
	case "circuit":
		sc.info = ev.Circuit
	case "done":
		sc.done = true
	case "check":
		k := checkKey{delta: ev.Check.Delta, index: ev.Check.Index}
		if prev, dup := sc.finals[k]; dup {
			return fmt.Errorf("check (δ=%d, #%d) answered twice: %s then %s",
				k.delta, k.index, prev, ev.Check.Final)
		}
		sc.finals[k] = ev.Check.Final
		if sc.after > 0 && len(sc.finals) >= sc.after {
			sc.once.Do(func() { close(sc.trigger) })
		}
	}
	return nil
}

func (sc *streamCollector) snapshot() (map[checkKey]string, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[checkKey]string, len(sc.finals))
	for k, v := range sc.finals {
		out[k] = v
	}
	return out, sc.done
}

// sweepFinals flattens a buffered sweep response into the same
// (delta, index) → final map a streamCollector builds, for verdict
// comparisons against a single-daemon reference.
func sweepFinals(resp *server.Response) map[checkKey]string {
	out := map[checkKey]string{}
	for _, sw := range resp.Sweeps {
		for _, pr := range sw.PerOutput {
			out[checkKey{delta: pr.Delta, index: pr.Index}] = pr.Final
		}
	}
	return out
}

// zeroPlacement strips the coordinator's placement metadata (which
// worker answered, on which attempt) so responses compare
// field-identical against a single daemon's.
func zeroPlacement(resp *server.Response) {
	for i := range resp.Results {
		resp.Results[i].Worker, resp.Results[i].Attempt = "", 0
	}
	for i := range resp.Sweeps {
		for j := range resp.Sweeps[i].PerOutput {
			resp.Sweeps[i].PerOutput[j].Worker, resp.Sweeps[i].PerOutput[j].Attempt = "", 0
		}
	}
}

func suiteCircuit(t *testing.T, name string) gen.SuiteEntry {
	t.Helper()
	for _, e := range gen.SubstituteSuite() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("substitute suite has no circuit %q", name)
	return gen.SuiteEntry{}
}

// assertNoClusterGoroutines is a stdlib goroutine-leak check: after a
// full cluster teardown no goroutine may still be executing
// internal/server or internal/client code (the trailing dot keeps the
// _test package itself from matching). Shutdowns finish
// asynchronously, so the scan retries briefly before failing.
func assertNoClusterGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var offending string
	for {
		offending = ""
		buf := make([]byte, 1<<22)
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "repro/internal/server.") || strings.Contains(g, "repro/internal/client.") {
				offending = g
				break
			}
		}
		if offending == "" {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutine still running cluster code after full shutdown:\n%s", offending)
}

// TestClusterKillWorkerMidFlight is the fault-injection acceptance
// test (run under -race in CI): a δ-sweep sharded over three workers
// loses the worker owning the largest shard while the batch is in
// flight, and the coordinator must requeue that worker's checks onto
// the survivors so the client still sees exactly one terminal result
// per check — with the same verdicts a single daemon serves. The
// victim's shard submission is parked at its proxy until after the
// kill (TCP offers no other guarantee that a microsecond-fast worker
// still holds undelivered work when it dies — see faultSpec); the
// survivors trickle behind delay proxies so the kill demonstrably
// lands mid-batch. Hedging is disabled to isolate the requeue path;
// genuine mid-line stream truncation is TestClusterStreamCutRequeues.
func TestClusterKillWorkerMidFlight(t *testing.T) {
	ctx := context.Background()
	e := suiteCircuit(t, "c880")
	bench := circuit.BenchString(e.Circuit)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: e.Name})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(delay.New(local).Topological())
	deltas := []int64{top, top + 1, top + 2}
	wantChecks := len(deltas) * len(local.PrimaryOutputs())

	workers := make([]*clusterWorker, 3)
	proxies := make([]*faultProxy, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
		defer workers[i].stop()
		proxies[i] = newFaultProxy(t, workers[i].addr, faultSpec{delayPerLine: 20 * time.Millisecond})
		addrs[i] = proxies[i].addr
	}
	co := server.NewCoordinator(server.CoordConfig{
		Workers: addrs, QueueDepth: 4, HedgeAfter: -1, ProbeInterval: -1,
	})
	cts := httptest.NewServer(co)
	defer cts.Close()
	defer func() { _ = co.Shutdown(context.Background()) }()
	coordCl := client.New(cts.URL)

	ref := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
	defer ref.stop()
	refCl := client.New(ref.addr)

	hash, err := coordCl.Upload(ctx, bench, client.UploadOptions{Name: e.Name})
	if err != nil {
		t.Fatal(err)
	}

	// The victim is the worker owning the most sinks — guaranteed a
	// non-empty shard, so the kill demonstrably strands checks.
	router := server.NewShardRouter(addrs)
	owned := map[string]int{}
	for _, po := range local.PrimaryOutputs() {
		w, _ := router.Assign(server.ShardKey{Hash: string(hash), Sink: local.Net(po).Name})
		owned[w]++
	}
	victim := 0
	for i, a := range addrs {
		if owned[a] > owned[addrs[victim]] {
			victim = i
		}
	}
	if owned[addrs[victim]] == 0 {
		t.Fatal("rendezvous hashing assigned no sinks at all")
	}
	// Park the victim's shard submission until well after the kill;
	// the survivors' shards stream normally in the meantime.
	proxies[victim].setSpec(faultSpec{holdCheckRequest: time.Second})

	sc := newStreamCollector(5)
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- coordCl.StreamByHash(ctx, hash,
			server.Request{Sweep: &server.SweepSpec{Deltas: deltas}}, sc.fn)
	}()
	// Kill on the fifth merged event — or, should the survivors own a
	// degenerately small share of the sinks, after 500ms, when the
	// batch is dispatched and the victim's shard is parked either way.
	select {
	case <-sc.trigger:
	case err := <-streamErr:
		t.Fatalf("stream ended before the kill could interrupt it: %v", err)
	case <-time.After(500 * time.Millisecond):
	}
	workers[victim].kill()
	t.Logf("killed worker %d (%s) owning %d of %d sinks",
		victim, addrs[victim], owned[addrs[victim]], len(local.PrimaryOutputs()))

	select {
	case err := <-streamErr:
		if err != nil {
			t.Fatalf("stream failed after worker kill: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream did not finish after the kill")
	}
	finals, done := sc.snapshot()
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(finals) != wantChecks {
		t.Fatalf("answered %d checks, want %d", len(finals), wantChecks)
	}

	// Verdicts must match a single, unharmed daemon exactly, per check.
	refResp, err := uploadAndCheck(ctx, refCl, server.Request{
		Netlist: bench, Name: e.Name, Sweep: &server.SweepSpec{Deltas: deltas},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepFinals(refResp); !reflect.DeepEqual(finals, want) {
		t.Errorf("cluster verdicts diverge from single daemon:\n got %v\nwant %v", finals, want)
	}

	m := scrapeMetrics(t, coordCl)
	if m["lttad_coord_requeued_checks_total"] == 0 {
		t.Errorf("kill stranded no checks: %+v", m)
	}
	if m["lttad_coord_worker_failures_total"] == 0 {
		t.Errorf("kill was not detected as a worker failure: %+v", m)
	}
	if m["lttad_coord_check_failures_total"] != 0 {
		t.Errorf("%d checks exhausted their attempts; survivors should have absorbed the shard", m["lttad_coord_check_failures_total"])
	}
	if m["lttad_coord_checks_total"] != int64(wantChecks) {
		t.Errorf("merged %d terminal results, want %d", m["lttad_coord_checks_total"], wantChecks)
	}

	if err := co.Shutdown(context.Background()); err != nil {
		t.Errorf("coordinator shutdown: %v", err)
	}
	cts.Close()
	for _, w := range workers {
		w.stop()
	}
	ref.stop()
	assertNoClusterGoroutines(t)
}

// TestClusterDrainUnderLoad is the coordinator half of the §10 drain
// contract (run under -race in CI): a SIGTERM-equivalent Shutdown with
// an already-expired deadline lands mid-batch, and still every
// accepted check answers exactly once with a terminal verdict — the
// finished ones V/N, the cut-off ones C — while new submissions bounce
// with 503 draining.
func TestClusterDrainUnderLoad(t *testing.T) {
	ctx := context.Background()
	e := suiteCircuit(t, "c432")
	bench := circuit.BenchString(e.Circuit)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: e.Name})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(delay.New(local).Topological())
	var deltas []int64
	for d := top; d < top+10; d++ {
		deltas = append(deltas, d)
	}
	wantChecks := len(deltas) * len(local.PrimaryOutputs())

	workers := make([]*clusterWorker, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
		defer workers[i].stop()
		proxy := newFaultProxy(t, workers[i].addr, faultSpec{delayPerLine: 20 * time.Millisecond})
		addrs[i] = proxy.addr
	}
	co := server.NewCoordinator(server.CoordConfig{
		Workers: addrs, QueueDepth: 4, HedgeAfter: -1, ProbeInterval: -1,
	})
	cts := httptest.NewServer(co)
	defer cts.Close()
	coordCl := client.New(cts.URL)

	hash, err := coordCl.Upload(ctx, bench, client.UploadOptions{Name: e.Name})
	if err != nil {
		t.Fatal(err)
	}
	sc := newStreamCollector(5)
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- coordCl.StreamByHash(ctx, hash,
			server.Request{Sweep: &server.SweepSpec{Deltas: deltas}}, sc.fn)
	}()
	select {
	case <-sc.trigger:
	case err := <-streamErr:
		t.Fatalf("stream ended before shutdown could interrupt it: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no check events within 30s")
	}

	// The harshest SIGTERM: an already-expired drain deadline cancels
	// every in-flight merge at once. Each cut-off check must still
	// answer (verdict C) before the stream's done event.
	drainStart := time.Now()
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = co.Shutdown(dctx)
	if d := time.Since(drainStart); d > 10*time.Second {
		t.Fatalf("coordinator shutdown took %s with an expired deadline", d)
	}

	select {
	case err := <-streamErr:
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not finish after shutdown")
	}
	finals, done := sc.snapshot()
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(finals) != wantChecks {
		t.Fatalf("answered %d checks, want %d", len(finals), wantChecks)
	}
	terminal := map[string]int{}
	for k, final := range finals {
		switch final {
		case "V", "N", "C":
			terminal[final]++
		default:
			t.Fatalf("check (δ=%d, #%d) ended %q, want V, N, or C", k.delta, k.index, final)
		}
	}
	t.Logf("terminal results: %v (drain triggered after 5 of %d)", terminal, wantChecks)
	if terminal["N"] == 0 {
		t.Error("no check finished before the drain; the trigger fired too early")
	}
	if terminal["C"] == 0 {
		t.Error("no check was cancelled; the drain landed after the batch finished")
	}

	// Draining: new submissions bounce with 503 + Retry-After, /readyz
	// goes unready, /healthz stays live and says so.
	_, err = coordCl.CheckByHash(ctx, hash, server.Request{
		Checks: []server.CheckSpec{{Sink: local.Net(local.PrimaryOutputs()[0]).Name, Delta: top}},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != "draining" {
		t.Fatalf("draining submit: want 503 draining, got %v", err)
	}
	if !apiErr.Temporary() || apiErr.RetryAfter <= 0 {
		t.Fatalf("draining rejection must carry a Retry-After hint: %+v", apiErr)
	}
	if _, err := coordCl.Readyz(ctx); err == nil {
		t.Fatal("readyz must report draining")
	}
	if h, err := coordCl.Healthz(ctx); err != nil || h.Status != "draining" {
		t.Fatalf("healthz during drain: want 200 with status draining, got %+v, %v", h, err)
	}

	cts.Close()
	for _, w := range workers {
		w.stop()
	}
	assertNoClusterGoroutines(t)
}

// TestClusterDifferential proves the cluster observationally identical
// to a single daemon on the substitute-suite circuits: the table1
// protocol, a sharded δ-sweep (with witnesses replayed through the
// simulator), and an explicit batch must all come back field-identical
// — modulo wall clocks and placement metadata — from a coordinator
// over three workers, a standalone daemon, and the in-process harness.
// The warm path is counter-asserted: repeating a sweep must cost every
// worker zero parses and zero prepares.
func TestClusterDifferential(t *testing.T) {
	const budget = 200000 // == core.Default().MaxBacktracks, the server default
	ctx := context.Background()

	workers := make([]*clusterWorker, 3)
	workerCls := make([]*client.Client, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startClusterWorker(t, server.Config{Workers: 4, QueueDepth: 8})
		defer workers[i].stop()
		addrs[i] = workers[i].addr
		workerCls[i] = client.New(workers[i].addr)
	}
	co := server.NewCoordinator(server.CoordConfig{Workers: addrs, QueueDepth: 8, HedgeAfter: -1})
	cts := httptest.NewServer(co)
	defer cts.Close()
	defer func() { _ = co.Shutdown(context.Background()) }()
	coordCl := client.New(cts.URL)

	single := startClusterWorker(t, server.Config{Workers: 4, QueueDepth: 8})
	defer single.stop()
	singleCl := client.New(single.addr)

	for _, name := range []string{"c17", "c432", "c880", "c6288"} {
		e := suiteCircuit(t, name)
		t.Run(name, func(t *testing.T) {
			if name == "c6288" && os.Getenv("LTTAD_E2E_FULL") == "" {
				t.Skip("set LTTAD_E2E_FULL=1 to include the c6288 multiplier")
			}
			bench := circuit.BenchString(e.Circuit)
			local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: name})
			if err != nil {
				t.Fatal(err)
			}
			top := int64(delay.New(local).Topological())

			// Table1: the sequential delay-search protocol, forwarded
			// whole to one worker — rows against the in-process harness,
			// the full response against the standalone daemon.
			tableReq := server.Request{Netlist: bench, Name: name, Sweep: &server.SweepSpec{Table1: true}}
			coordTable, err := uploadAndCheck(ctx, coordCl, tableReq)
			if err != nil {
				t.Fatalf("coordinator table1: %v", err)
			}
			singleTable, err := uploadAndCheck(ctx, singleCl, tableReq)
			if err != nil {
				t.Fatalf("single-daemon table1: %v", err)
			}
			wantRows := make([]server.Row, 0, 2)
			for _, r := range harness.CircuitRowsParallel(name, local, budget, 4) {
				wantRows = append(wantRows, rowFromTable1(r))
			}
			zeroResponseClocks(coordTable)
			zeroResponseClocks(singleTable)
			// Table1's first-witness-wins sweeps cancel the losers, so
			// whether a check on a later output started before the
			// witness landed is a scheduling race — the checks-run tally
			// is legitimately nondeterministic on this path (rows,
			// sweeps, and witnesses are not).
			coordTable.Done.ChecksRun, singleTable.Done.ChecksRun = 0, 0
			if !reflect.DeepEqual(coordTable.Rows, wantRows) {
				t.Errorf("coordinator rows diverge from harness:\n got %+v\nwant %+v", coordTable.Rows, wantRows)
			}
			if !reflect.DeepEqual(coordTable, singleTable) {
				t.Errorf("coordinator table1 diverges from single daemon:\n got %+v\nwant %+v", coordTable, singleTable)
			}

			// A sharded δ-sweep: δ=1 forces violations (witnesses cross
			// the wire, the merge, and the aggregation), δ=top forces
			// refutations. Field-identity after zeroing clocks only —
			// sweep aggregates carry no placement.
			sweepReq := server.Request{Netlist: bench, Name: name,
				Sweep: &server.SweepSpec{Deltas: []int64{1, top}}}
			coordSweep, err := uploadAndCheck(ctx, coordCl, sweepReq)
			if err != nil {
				t.Fatalf("coordinator sweep: %v", err)
			}
			singleSweep, err := uploadAndCheck(ctx, singleCl, sweepReq)
			if err != nil {
				t.Fatalf("single-daemon sweep: %v", err)
			}
			zeroResponseClocks(coordSweep)
			zeroResponseClocks(singleSweep)
			zeroPlacement(coordSweep)
			zeroPlacement(singleSweep)
			if !reflect.DeepEqual(coordSweep, singleSweep) {
				t.Errorf("coordinator sweep diverges from single daemon:\n got %+v\nwant %+v", coordSweep, singleSweep)
			}

			// Every violation witness the cluster served must replay
			// through the simulator and certify its violation.
			replayed := 0
			for _, sw := range coordSweep.Sweeps {
				for _, pr := range sw.PerOutput {
					if pr.Final != "V" {
						continue
					}
					replayWitness(t, local, pr)
					replayed++
				}
			}
			if replayed == 0 {
				t.Error("sharded sweep served no violation witnesses; δ=1 must witness")
			}

			// An explicit batch: per-check field-identity modulo clocks
			// and the placement metadata the coordinator stamps.
			var specs []server.CheckSpec
			for _, po := range local.PrimaryOutputs() {
				poName := local.Net(po).Name
				specs = append(specs, server.CheckSpec{Sink: poName, Delta: top},
					server.CheckSpec{Sink: poName, Delta: top + 1})
			}
			batchReq := server.Request{Netlist: bench, Name: name, Checks: specs}
			coordBatch, err := uploadAndCheck(ctx, coordCl, batchReq)
			if err != nil {
				t.Fatalf("coordinator batch: %v", err)
			}
			singleBatch, err := uploadAndCheck(ctx, singleCl, batchReq)
			if err != nil {
				t.Fatalf("single-daemon batch: %v", err)
			}
			for i, r := range coordBatch.Results {
				if r.Worker == "" || r.Attempt != 1 {
					t.Errorf("result %d missing placement metadata: worker=%q attempt=%d", i, r.Worker, r.Attempt)
				}
			}
			zeroResponseClocks(coordBatch)
			zeroResponseClocks(singleBatch)
			zeroPlacement(coordBatch)
			zeroPlacement(singleBatch)
			if !reflect.DeepEqual(coordBatch, singleBatch) {
				t.Errorf("coordinator batch diverges from single daemon:\n got %+v\nwant %+v", coordBatch, singleBatch)
			}

			// Warm path: repeating the sweep costs every worker zero
			// parses and zero prepares (the circuit is resident
			// cluster-wide), and the coordinator re-uploads nothing.
			type workerWork struct{ parses, prepares int64 }
			before := make([]workerWork, len(workerCls))
			for i, cl := range workerCls {
				m := scrapeMetrics(t, cl)
				before[i] = workerWork{m["lttad_netlist_parses_total"], m["lttad_registry_prepares_total"]}
			}
			coordBefore := scrapeMetrics(t, coordCl)
			if _, err := uploadAndCheck(ctx, coordCl, sweepReq); err != nil {
				t.Fatalf("warm repeat sweep: %v", err)
			}
			for i, cl := range workerCls {
				m := scrapeMetrics(t, cl)
				if m["lttad_netlist_parses_total"] != before[i].parses {
					t.Errorf("worker %d parsed on the warm path: %d → %d",
						i, before[i].parses, m["lttad_netlist_parses_total"])
				}
				if m["lttad_registry_prepares_total"] != before[i].prepares {
					t.Errorf("worker %d prepared on the warm path: %d → %d",
						i, before[i].prepares, m["lttad_registry_prepares_total"])
				}
			}
			coordAfter := scrapeMetrics(t, coordCl)
			if coordAfter["lttad_coord_worker_uploads_total"] != coordBefore["lttad_coord_worker_uploads_total"] {
				t.Errorf("warm repeat re-uploaded circuits: %d → %d",
					coordBefore["lttad_coord_worker_uploads_total"], coordAfter["lttad_coord_worker_uploads_total"])
			}
		})
	}
}

// TestCoordMetricsExposition scrapes a live coordinator's /metrics and
// validates it with the in-repo exposition parser, then pins the
// counters one sharded batch must move.
func TestCoordMetricsExposition(t *testing.T) {
	ctx := context.Background()
	workers := make([]*clusterWorker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		workers[i] = startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
		defer workers[i].stop()
		addrs[i] = workers[i].addr
	}
	co := server.NewCoordinator(server.CoordConfig{Workers: addrs, QueueDepth: 4})
	cts := httptest.NewServer(co)
	defer cts.Close()
	defer func() { _ = co.Shutdown(context.Background()) }()
	coordCl := client.New(cts.URL)

	bench := circuit.BenchString(gen.C17(10))
	if _, err := uploadAndCheck(ctx, coordCl, server.Request{Netlist: bench, Name: "c17",
		Sweep: &server.SweepSpec{Deltas: []int64{40, 51}}}); err != nil {
		t.Fatal(err)
	}

	text, err := coordCl.MetricsProm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateProm(bytes.NewReader(text)); err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v\n%s", err, text)
	}
	fams, err := obs.ParseProm(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			sums[f.Name] += smp.Value
		}
	}
	for name, want := range map[string]float64{
		"lttad_coord_workers":                2,
		"lttad_coord_queue_depth":            4,
		"lttad_coord_batches_accepted_total": 1,
		"lttad_coord_checks_total":           4, // 2 POs × 2 deltas
		"lttad_coord_netlist_parses_total":   1,
		"lttad_coord_check_failures_total":   0,
	} {
		if got, ok := sums[name]; !ok || got != want {
			t.Errorf("exposition %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if sums["lttad_coord_shard_dispatches_total"] < 1 {
		t.Errorf("no shard dispatches recorded:\n%s", text)
	}
	if sums["lttad_coord_worker_uploads_total"] < 1 {
		t.Errorf("no worker uploads recorded:\n%s", text)
	}
}

// TestCoordPromFileScrape validates the coordinator counters of an
// exposition scraped from a live cluster — CI starts three workers and
// a coordinator binary, posts one two-check inline batch, curls the
// coordinator's /metrics, and points COORD_PROM_FILE here. Skips when
// unset.
func TestCoordPromFileScrape(t *testing.T) {
	path := os.Getenv("COORD_PROM_FILE")
	if path == "" {
		t.Skip("COORD_PROM_FILE not set (CI-only scrape validation)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams, err := obs.ParseProm(f)
	if err != nil {
		t.Fatalf("scraped exposition invalid: %v", err)
	}
	sums := map[string]float64{}
	for _, fam := range fams {
		for _, smp := range fam.Samples {
			sums[fam.Name] += smp.Value
		}
	}
	for name, want := range map[string]float64{
		"lttad_coord_workers":                3,
		"lttad_coord_workers_alive":          3,
		"lttad_coord_batches_accepted_total": 1,
		"lttad_coord_checks_total":           2,
		"lttad_coord_netlist_parses_total":   1,
		"lttad_coord_check_failures_total":   0,
	} {
		if got, ok := sums[name]; !ok || got != want {
			t.Errorf("scrape %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if sums["lttad_coord_shard_dispatches_total"] < 1 {
		t.Error("scrape records no shard dispatches")
	}
}
