package server_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/delay"
	"repro/internal/server"
)

// faultSpec describes what a faultProxy does to NDJSON response
// bodies flowing worker → coordinator. Zero value: pass through.
type faultSpec struct {
	// cutAfterLines > 0 aborts the response after forwarding that many
	// lines — no chunked terminator, exactly the wire signature of a
	// worker crashing mid-stream.
	cutAfterLines int
	// delayPerLine sleeps before releasing each line, simulating a
	// slow worker (and guaranteeing streams are still in flight when a
	// test injects its fault).
	delayPerLine time.Duration
	// duplicateEvery > 0 forwards every Nth line twice, simulating an
	// at-least-once transport replaying events.
	duplicateEvery int
	// holdCheckRequest parks check submissions this long before
	// forwarding them upstream. TCP makes this the only way to
	// guarantee a worker kill strands a shard: a fast worker writes its
	// whole response into the socket buffer within microseconds, after
	// which killing it cuts nothing — the shard must still be on the
	// coordinator's side of the wire when the kill lands.
	holdCheckRequest time.Duration
	// once disarms the proxy at the first response it faults, so
	// retries after the fault pass through clean.
	once bool
}

// faultProxy is a line-oriented fault injector in front of one worker:
// a reverse proxy that forwards everything verbatim except NDJSON
// bodies, which stream through a faultReader. Health probes and
// registry traffic (plain JSON) are never touched, so a "crashed"
// worker still resurrects through the coordinator's probe path.
type faultProxy struct {
	addr string
	hs   *http.Server

	mu    sync.Mutex
	spec  faultSpec
	armed bool
}

func newFaultProxy(t *testing.T, target string, spec faultSpec) *faultProxy {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{spec: spec, armed: true}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.FlushInterval = -1 // forward each line as it arrives
	// Aborted copies are this proxy's purpose; keep them off the test log.
	rp.ErrorLog = log.New(io.Discard, "", 0)
	rp.ModifyResponse = func(resp *http.Response) error {
		if !strings.Contains(resp.Header.Get("Content-Type"), "ndjson") {
			return nil
		}
		resp.Body = &faultReader{p: p, src: resp.Body, br: bufio.NewReader(resp.Body)}
		return nil
	}
	// An unreachable upstream must look like a crashed worker — a dead
	// connection — not like a gateway answering 502.
	rp.ErrorHandler = func(http.ResponseWriter, *http.Request, error) {
		panic(http.ErrAbortHandler)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = "http://" + lis.Addr().String()
	p.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if spec, armed := p.current(); armed && spec.holdCheckRequest > 0 && strings.HasSuffix(r.URL.Path, "/check") {
			time.Sleep(spec.holdCheckRequest)
		}
		rp.ServeHTTP(w, r)
	})}
	go func() { _ = p.hs.Serve(lis) }()
	t.Cleanup(func() { _ = p.hs.Close() })
	return p
}

// current returns the spec to apply to a new line, accounting for a
// once-disarm.
func (p *faultProxy) current() (faultSpec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spec, p.armed
}

// setSpec swaps the proxy's fault mid-test (e.g. to single out a
// victim chosen after routing is known) and re-arms it.
func (p *faultProxy) setSpec(spec faultSpec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spec, p.armed = spec, true
}

func (p *faultProxy) disarmIfOnce() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spec.once {
		p.armed = false
	}
}

var errFaultCut = errors.New("faultproxy: cut injected")

// faultReader applies a faultSpec line by line. Returning an error
// from Read makes ReverseProxy abort the downstream copy, which closes
// the coordinator-facing connection without a terminator — the
// truncated-stream signature the client package types as retryable.
type faultReader struct {
	p   *faultProxy
	src io.ReadCloser
	br  *bufio.Reader

	buf   []byte
	lines int
}

func (fr *faultReader) Read(out []byte) (int, error) {
	for len(fr.buf) == 0 {
		line, err := fr.br.ReadBytes('\n')
		if len(line) > 0 {
			fr.lines++
			spec, armed := fr.p.current()
			if !armed {
				spec = faultSpec{}
			}
			if spec.cutAfterLines > 0 && fr.lines > spec.cutAfterLines {
				fr.p.disarmIfOnce()
				return 0, errFaultCut
			}
			if spec.delayPerLine > 0 {
				time.Sleep(spec.delayPerLine)
			}
			fr.buf = line
			if spec.duplicateEvery > 0 && fr.lines%spec.duplicateEvery == 0 {
				fr.buf = append(append([]byte(nil), line...), line...)
				fr.p.disarmIfOnce()
			}
		}
		if err != nil {
			if len(fr.buf) > 0 {
				break // deliver the partial tail first; err resurfaces next call
			}
			return 0, err
		}
	}
	n := copy(out, fr.buf)
	fr.buf = fr.buf[n:]
	return n, nil
}

func (fr *faultReader) Close() error { return fr.src.Close() }

// clusterSweepFixture stands up N workers behind fault proxies, a
// coordinator over the proxies, and an unharmed reference daemon, and
// returns everything a δ-sweep fault test needs.
type clusterSweepFixture struct {
	local   *circuit.Circuit
	bench   string
	deltas  []int64
	want    int // client-facing checks in the sweep
	proxies []*faultProxy
	coord   *server.Coordinator
	coordCl *client.Client
	refCl   *client.Client
}

func newClusterSweepFixture(t *testing.T, name string, nWorkers int, spec faultSpec, ccfg server.CoordConfig) *clusterSweepFixture {
	t.Helper()
	e := suiteCircuit(t, name)
	bench := circuit.BenchString(e.Circuit)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(delay.New(local).Topological())
	deltas := []int64{top, top + 1, top + 2}

	fx := &clusterSweepFixture{
		local: local, bench: bench, deltas: deltas,
		want: len(deltas) * len(local.PrimaryOutputs()),
	}
	addrs := make([]string, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
		t.Cleanup(w.stop)
		proxy := newFaultProxy(t, w.addr, spec)
		fx.proxies = append(fx.proxies, proxy)
		addrs[i] = proxy.addr
	}
	ccfg.Workers = addrs
	fx.coord = server.NewCoordinator(ccfg)
	cts := httptest.NewServer(fx.coord)
	t.Cleanup(cts.Close)
	t.Cleanup(func() { _ = fx.coord.Shutdown(context.Background()) })
	fx.coordCl = client.New(cts.URL)

	ref := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
	t.Cleanup(ref.stop)
	fx.refCl = client.New(ref.addr)
	return fx
}

// run streams the sweep through the coordinator, enforces exactly-once
// as it reads, and returns the merged finals.
func (fx *clusterSweepFixture) run(t *testing.T) map[checkKey]string {
	t.Helper()
	sc := newStreamCollector(0)
	err := fx.coordCl.Stream(context.Background(), server.Request{
		Netlist: fx.bench, Name: fx.local.Name,
		Sweep: &server.SweepSpec{Deltas: fx.deltas},
	}, sc.fn)
	if err != nil {
		t.Fatalf("coordinator stream: %v", err)
	}
	finals, done := sc.snapshot()
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(finals) != fx.want {
		t.Fatalf("answered %d checks, want %d", len(finals), fx.want)
	}
	return finals
}

// reference computes the same sweep's finals on the unharmed daemon.
func (fx *clusterSweepFixture) reference(t *testing.T) map[checkKey]string {
	t.Helper()
	resp, err := uploadAndCheck(context.Background(), fx.refCl, server.Request{
		Netlist: fx.bench, Name: fx.local.Name,
		Sweep: &server.SweepSpec{Deltas: fx.deltas},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sweepFinals(resp)
}

// TestClusterStreamCutRequeues: every worker's first NDJSON response
// is cut after three lines — the crashed-mid-stream wire signature.
// The coordinator must type the truncation as retryable, mark the
// workers dead, resurrect them through the on-demand probe (health
// traffic bypasses the fault), and requeue the stranded checks until
// every one answers exactly once with the unharmed daemon's verdict.
func TestClusterStreamCutRequeues(t *testing.T) {
	fx := newClusterSweepFixture(t, "c432", 2,
		faultSpec{cutAfterLines: 3, once: true},
		server.CoordConfig{QueueDepth: 4, HedgeAfter: -1, ProbeInterval: -1})

	finals := fx.run(t)
	if want := fx.reference(t); !reflect.DeepEqual(finals, want) {
		t.Errorf("verdicts after cut+requeue diverge from single daemon:\n got %v\nwant %v", finals, want)
	}

	m := scrapeMetrics(t, fx.coordCl)
	if m["lttad_coord_requeued_checks_total"] == 0 {
		t.Errorf("cut streams stranded no checks: %+v", m)
	}
	if m["lttad_coord_worker_failures_total"] == 0 {
		t.Errorf("cut streams were not counted as worker failures: %+v", m)
	}
	if m["lttad_coord_check_failures_total"] != 0 {
		t.Errorf("%d checks exhausted their attempts after a single cut each", m["lttad_coord_check_failures_total"])
	}
	if m["lttad_coord_checks_total"] != int64(fx.want) {
		t.Errorf("merged %d results, want %d", m["lttad_coord_checks_total"], fx.want)
	}
}

// TestClusterDuplicateEventsDropped: an at-least-once transport
// replays every second line of every worker stream. The merge must
// drop the replays — the client-facing stream stays duplicate-free
// (the collector fails on any repeat) with unchanged verdicts — and
// account for them in duplicate_results_dropped.
func TestClusterDuplicateEventsDropped(t *testing.T) {
	fx := newClusterSweepFixture(t, "c432", 2,
		faultSpec{duplicateEvery: 2},
		server.CoordConfig{QueueDepth: 4, HedgeAfter: -1})

	finals := fx.run(t)
	if want := fx.reference(t); !reflect.DeepEqual(finals, want) {
		t.Errorf("verdicts under duplication diverge from single daemon:\n got %v\nwant %v", finals, want)
	}

	m := scrapeMetrics(t, fx.coordCl)
	if m["lttad_coord_duplicate_results_dropped_total"] == 0 {
		t.Errorf("replayed events were not dropped as duplicates: %+v", m)
	}
	if m["lttad_coord_check_failures_total"] != 0 || m["lttad_coord_requeued_checks_total"] != 0 {
		t.Errorf("duplication alone must not fail or requeue checks: %+v", m)
	}
}

// TestClusterHedgeStragglers: one of two workers serves each line
// with a 150ms stall; with a 100ms hedge threshold the coordinator
// must re-dispatch the slow worker's unanswered checks to the fast
// one, first terminal result winning — no cancellations, no failures,
// verdicts identical to the unharmed daemon.
func TestClusterHedgeStragglers(t *testing.T) {
	e := suiteCircuit(t, "c880")
	bench := circuit.BenchString(e.Circuit)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: "c880"})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(delay.New(local).Topological())
	deltas := []int64{top}
	wantChecks := len(local.PrimaryOutputs())

	// Both workers go behind (initially transparent) proxies; once
	// routing is known, the one owning the most sinks — never zero —
	// becomes the straggler.
	workers := make([]*clusterWorker, 2)
	proxies := make([]*faultProxy, 2)
	addrs := make([]string, 2)
	for i := range workers {
		workers[i] = startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
		defer workers[i].stop()
		proxies[i] = newFaultProxy(t, workers[i].addr, faultSpec{})
		addrs[i] = proxies[i].addr
	}

	co := server.NewCoordinator(server.CoordConfig{
		Workers: addrs, QueueDepth: 4,
		HedgeAfter: 100 * time.Millisecond,
	})
	cts := httptest.NewServer(co)
	defer cts.Close()
	defer func() { _ = co.Shutdown(context.Background()) }()
	coordCl := client.New(cts.URL)

	hash, err := coordCl.Upload(context.Background(), bench, client.UploadOptions{Name: "c880"})
	if err != nil {
		t.Fatal(err)
	}
	router := server.NewShardRouter(addrs)
	owned := map[string]int{}
	for _, po := range local.PrimaryOutputs() {
		w, _ := router.Assign(server.ShardKey{Hash: string(hash), Sink: local.Net(po).Name})
		owned[w]++
	}
	slow := 0
	if owned[addrs[1]] > owned[addrs[0]] {
		slow = 1
	}
	proxies[slow].setSpec(faultSpec{delayPerLine: 150 * time.Millisecond})

	sc := newStreamCollector(0)
	if err := coordCl.StreamByHash(context.Background(), hash, server.Request{
		Sweep: &server.SweepSpec{Deltas: deltas},
	}, sc.fn); err != nil {
		t.Fatalf("coordinator stream: %v", err)
	}
	finals, done := sc.snapshot()
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(finals) != wantChecks {
		t.Fatalf("answered %d checks, want %d", len(finals), wantChecks)
	}
	for k, final := range finals {
		if final != "V" && final != "N" {
			t.Errorf("check (δ=%d, #%d) ended %q; hedging must not surface C or A", k.delta, k.index, final)
		}
	}

	ref := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
	defer ref.stop()
	refResp, err := uploadAndCheck(context.Background(), client.New(ref.addr), server.Request{
		Netlist: bench, Name: "c880", Sweep: &server.SweepSpec{Deltas: deltas},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepFinals(refResp); !reflect.DeepEqual(finals, want) {
		t.Errorf("verdicts under hedging diverge from single daemon:\n got %v\nwant %v", finals, want)
	}

	m := scrapeMetrics(t, coordCl)
	if m["lttad_coord_hedged_checks_total"] == 0 {
		t.Errorf("slow worker was never hedged: %+v", m)
	}
	if m["lttad_coord_check_failures_total"] != 0 {
		t.Errorf("hedging produced %d failed checks", m["lttad_coord_check_failures_total"])
	}
}
