package server_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/delay"
	"repro/internal/obs"
	"repro/internal/server"
)

// tracedCollector extends the exactly-once stream collector with the
// tracing surfaces under test: per-check trace/span ids and the
// in-band worker span summaries a traced stream carries.
type tracedCollector struct {
	*streamCollector

	mu     sync.Mutex
	checks []server.CheckResult
	spans  []api.SpanSummary
}

func (tc *tracedCollector) fn(ev server.Event) error {
	switch ev.Type {
	case "check":
		tc.mu.Lock()
		tc.checks = append(tc.checks, *ev.Check)
		tc.mu.Unlock()
	case "spans":
		tc.mu.Lock()
		tc.spans = append(tc.spans, *ev.Spans)
		tc.mu.Unlock()
		return nil // streamCollector does not know this kind
	}
	return tc.streamCollector.fn(ev)
}

// TestClusterTraceTimeline is the distributed-tracing acceptance test
// (run under -race in CI): a traced δ-sweep over three workers loses
// one worker mid-batch (requeue path) while another straggles behind a
// per-line delay (hedge path), and the batch must still produce
//
//   - exactly one terminal result per check, all carrying the client's
//     trace id, with verdicts identical to an unharmed daemon;
//   - in-band worker span summaries with pipeline-stage sub-spans;
//   - one Perfetto-loadable cluster timeline file containing
//     coordinator, worker, and merge spans under that trace id,
//     including the requeue and hedge dispatches;
//   - /debug/checks flight records on the coordinator and a surviving
//     worker, resolvable by the same trace id.
func TestClusterTraceTimeline(t *testing.T) {
	ctx := context.Background()
	e := suiteCircuit(t, "c880")
	bench := circuit.BenchString(e.Circuit)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: e.Name})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(delay.New(local).Topological())
	deltas := []int64{top + 1}
	wantChecks := len(local.PrimaryOutputs())

	workers := make([]*clusterWorker, 3)
	proxies := make([]*faultProxy, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
		defer workers[i].stop()
		proxies[i] = newFaultProxy(t, workers[i].addr, faultSpec{})
		addrs[i] = proxies[i].addr
	}
	traceDir := t.TempDir()
	// HedgeAfter is chosen well after the victim's parked dispatch
	// fails (requeue first), while the straggler — at 200ms per line —
	// is still mid-stream (hedge second).
	co := server.NewCoordinator(server.CoordConfig{
		Workers: addrs, QueueDepth: 4,
		HedgeAfter: 500 * time.Millisecond, ProbeInterval: -1,
		TraceDir: traceDir, FlightLast: 128, FlightSlowest: 8,
	})
	cts := httptest.NewServer(co)
	defer cts.Close()
	defer func() { _ = co.Shutdown(context.Background()) }()
	coordCl := client.New(cts.URL)

	hash, err := coordCl.Upload(ctx, bench, client.UploadOptions{Name: e.Name})
	if err != nil {
		t.Fatal(err)
	}

	// The victim (killed) is the worker owning the most sinks; the
	// straggler (hedged) owns the most among the survivors. Both shards
	// are provably non-empty, so each fault demonstrably bites.
	router := server.NewShardRouter(addrs)
	owned := map[string]int{}
	for _, po := range local.PrimaryOutputs() {
		w, _ := router.Assign(server.ShardKey{Hash: string(hash), Sink: local.Net(po).Name})
		owned[w]++
	}
	victim, slow := 0, -1
	for i, a := range addrs {
		if owned[a] > owned[addrs[victim]] {
			victim = i
		}
	}
	for i, a := range addrs {
		if i != victim && (slow < 0 || owned[a] > owned[addrs[slow]]) {
			slow = i
		}
	}
	if owned[addrs[victim]] == 0 || owned[addrs[slow]] == 0 {
		t.Fatalf("degenerate rendezvous split %v: victim or straggler shard empty", owned)
	}
	// Park the victim's shard until after the kill; trickle the
	// straggler's lines so it is still streaming at the hedge pass.
	proxies[victim].setSpec(faultSpec{holdCheckRequest: 250 * time.Millisecond})
	proxies[slow].setSpec(faultSpec{delayPerLine: 200 * time.Millisecond})

	traceID := api.NewTraceID()
	tc := &tracedCollector{streamCollector: newStreamCollector(2)}
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- coordCl.StreamByHash(ctx, hash, server.Request{
			Sweep: &server.SweepSpec{Deltas: deltas},
			Trace: &api.TraceContext{TraceID: traceID, Tenant: "acme"},
		}, tc.fn)
	}()
	// Kill once the batch is demonstrably in flight — before the
	// victim's parked shard submission reaches it.
	select {
	case <-tc.trigger:
	case err := <-streamErr:
		t.Fatalf("stream ended before the kill could interrupt it: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	workers[victim].kill()
	t.Logf("killed worker %d (%d sinks), straggler %d (%d sinks)",
		victim, owned[addrs[victim]], slow, owned[addrs[slow]])

	select {
	case err := <-streamErr:
		if err != nil {
			t.Fatalf("stream failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream did not finish")
	}
	finals, done := tc.snapshot()
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(finals) != wantChecks {
		t.Fatalf("answered %d checks, want %d", len(finals), wantChecks)
	}

	// Verdicts still match an unharmed single daemon exactly.
	ref := startClusterWorker(t, server.Config{Workers: 2, QueueDepth: 4})
	defer ref.stop()
	refResp, err := uploadAndCheck(ctx, client.New(ref.addr), server.Request{
		Netlist: bench, Name: e.Name, Sweep: &server.SweepSpec{Deltas: deltas},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepFinals(refResp); !reflect.DeepEqual(finals, want) {
		t.Errorf("traced cluster verdicts diverge from single daemon:\n got %v\nwant %v", finals, want)
	}

	// Every terminal result echoes the client's trace id and carries a
	// minted span id.
	tc.mu.Lock()
	checks, summaries := tc.checks, tc.spans
	tc.mu.Unlock()
	for _, res := range checks {
		if res.TraceID != traceID {
			t.Errorf("check %q carries trace %q, want the client's %q", res.Sink, res.TraceID, traceID)
		}
		if !api.ValidSpanID(res.SpanID) {
			t.Errorf("check %q has no valid span id: %q", res.Sink, res.SpanID)
		}
	}
	// In-band worker span summaries arrived, under the same trace, and
	// real checks carry pipeline-stage sub-spans.
	if len(summaries) == 0 {
		t.Fatal("traced stream forwarded no worker span summaries")
	}
	staged := 0
	for _, sum := range summaries {
		if sum.TraceID != traceID {
			t.Errorf("span summary for %q carries trace %q, want %q", sum.Sink, sum.TraceID, traceID)
		}
		if sum.Worker == "" || !api.ValidSpanID(sum.SpanID) {
			t.Errorf("span summary incomplete: %+v", sum)
		}
		if len(sum.Spans) > 0 {
			staged++
		}
	}
	if staged == 0 {
		t.Error("no span summary carries stage sub-spans")
	}

	// Both fault paths fired and were accounted.
	m := scrapeMetrics(t, coordCl)
	if m["lttad_coord_requeued_checks_total"] == 0 {
		t.Errorf("kill requeued no checks: %+v", m)
	}
	if m["lttad_coord_hedged_checks_total"] == 0 {
		t.Errorf("straggler was never hedged: %+v", m)
	}
	if m["lttad_coord_check_failures_total"] != 0 {
		t.Errorf("%d checks exhausted their attempts", m["lttad_coord_check_failures_total"])
	}
	promText, err := coordCl.MetricsProm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lttad_coord_requeues_total{reason="`,
		`lttad_coord_hedges_total{attempt="`,
	} {
		if !strings.Contains(string(promText), want) {
			t.Errorf("coordinator exposition missing labeled series %s", want)
		}
	}

	assertClusterTraceFile(t, filepath.Join(traceDir, "batch-1.trace.json"), traceID, wantChecks)

	// The coordinator's flight recorder resolves the same trace id.
	coBody := debugChecks(t, cts.URL)
	if int(coBody.Recorded) != wantChecks {
		t.Errorf("coordinator flight recorded %d checks, want %d", coBody.Recorded, wantChecks)
	}
	for _, rec := range coBody.Last {
		if rec.TraceID != traceID || rec.Tenant != "acme" || rec.Worker == "" {
			t.Errorf("coordinator flight record incomplete: %+v", rec)
			break
		}
	}
	if len(coBody.Slowest) == 0 {
		t.Error("coordinator flight recorder has no slowest records")
	} else if len(coBody.Slowest[0].StageUs) == 0 {
		t.Errorf("coordinator's slowest record has no stage durations: %+v", coBody.Slowest[0])
	}
	if len(coBody.LatencyExemplars) == 0 {
		t.Error("coordinator latency histogram has no exemplars")
	}

	// A surviving worker's own flight recorder holds its shard's checks
	// under the same trace id, with stage durations.
	wBody := debugChecks(t, workers[slow].addr)
	if wBody.Recorded == 0 || len(wBody.Slowest) == 0 {
		t.Fatalf("straggler worker recorded no flights: %+v", wBody.FlightSnapshot)
	}
	for _, rec := range wBody.Last {
		if rec.TraceID != traceID || rec.Tenant != "acme" {
			t.Errorf("worker flight record lost trace context: %+v", rec)
			break
		}
	}
	if len(wBody.Slowest[0].StageUs) == 0 {
		t.Errorf("worker's slowest record has no stage durations: %+v", wBody.Slowest[0])
	}
}

// assertClusterTraceFile validates the coordinator's batch timeline:
// it must load (obs.ValidateTrace), and it must contain — all under
// the client's trace id — the coordinator's root and dispatch spans
// (primary, requeue, and hedge), at least one worker check span, and
// exactly one merge span per terminal result.
func assertClusterTraceFile(t *testing.T, path, traceID string, wantChecks int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("cluster trace not written: %v", err)
	}
	defer f.Close()
	if _, err := obs.ValidateTrace(f); err != nil {
		t.Fatalf("cluster trace does not validate: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("decoding cluster trace: %v", err)
	}
	groups := map[int]string{} // pid → process name
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			groups[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	spansPer := map[string]int{} // group name → spans under traceID
	kinds := map[string]bool{}   // dispatch kinds seen
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if id, _ := ev.Args["trace_id"].(string); id != traceID {
			continue
		}
		spansPer[groups[ev.Pid]]++
		if strings.HasPrefix(ev.Name, "dispatch ") {
			open := strings.LastIndexByte(ev.Name, '(')
			if open >= 0 {
				kinds[strings.TrimSuffix(ev.Name[open+1:], ")")] = true
			}
		}
	}
	if spansPer["coordinator"] == 0 {
		t.Errorf("timeline has no coordinator span under trace %s (groups: %v)", traceID, spansPer)
	}
	workerSpans := 0
	for g, n := range spansPer {
		if strings.HasPrefix(g, "worker ") {
			workerSpans += n
		}
	}
	if workerSpans == 0 {
		t.Errorf("timeline has no worker span under trace %s (groups: %v)", traceID, spansPer)
	}
	if got := spansPer["merge"]; got != wantChecks {
		t.Errorf("timeline has %d merge spans, want one per terminal result (%d)", got, wantChecks)
	}
	for _, kind := range []string{"primary", "requeue", "hedge"} {
		if !kinds[kind] {
			t.Errorf("timeline has no %q dispatch span (saw %v)", kind, kinds)
		}
	}
	t.Logf("cluster timeline: %d events, spans per group %v", len(tf.TraceEvents), spansPer)
}

// TestClusterTraceFileScrape validates a batch timeline written by a
// live coordinator binary — CI starts a three-worker cluster with
// -trace-dir, runs one batch, and points COORD_TRACE_FILE at the
// resulting batch-<id>.trace.json. Skips when unset.
func TestClusterTraceFileScrape(t *testing.T) {
	path := os.Getenv("COORD_TRACE_FILE")
	if path == "" {
		t.Skip("COORD_TRACE_FILE not set (CI-only scrape validation)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatalf("cluster trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("cluster trace is empty")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("decoding cluster trace: %v", err)
	}
	groups := map[int]string{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			groups[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	spansPer := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spansPer[groups[ev.Pid]]++
		}
	}
	if spansPer["coordinator"] == 0 {
		t.Errorf("scraped timeline has no coordinator spans (groups: %v)", spansPer)
	}
	workerSpans := 0
	for g, n := range spansPer {
		if strings.HasPrefix(g, "worker ") {
			workerSpans += n
		}
	}
	if workerSpans == 0 {
		t.Errorf("scraped timeline has no worker spans (groups: %v)", spansPer)
	}
	if spansPer["merge"] == 0 {
		t.Errorf("scraped timeline has no merge spans (groups: %v)", spansPer)
	}
}

// TestDebugChecksFileScrape validates /debug/checks bodies curled from
// a live cluster: COORD_DEBUG_FILE is the coordinator's (strict — it
// merged the whole CI batch), WORKER_DEBUG_FILE one worker's (that
// worker may have owned any share of the shard, including none). Skips
// when neither is set.
func TestDebugChecksFileScrape(t *testing.T) {
	coordPath, workerPath := os.Getenv("COORD_DEBUG_FILE"), os.Getenv("WORKER_DEBUG_FILE")
	if coordPath == "" && workerPath == "" {
		t.Skip("COORD_DEBUG_FILE/WORKER_DEBUG_FILE not set (CI-only scrape validation)")
	}
	decode := func(path string) (body struct {
		obs.FlightSnapshot
		LatencyExemplars []obs.BucketExemplar `json:"latencyExemplars"`
	}) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("%s is not a /debug/checks body: %v", path, err)
		}
		if int(body.Recorded) < len(body.Last) {
			t.Errorf("%s: recorded %d < %d last entries", path, body.Recorded, len(body.Last))
		}
		for _, rec := range body.Last {
			if !api.ValidTraceID(rec.TraceID) {
				t.Errorf("%s: flight record without a valid trace id: %+v", path, rec)
			}
		}
		return body
	}
	if coordPath != "" {
		body := decode(coordPath)
		if body.Recorded == 0 || len(body.Slowest) == 0 {
			t.Errorf("coordinator flight recorder empty after the CI batch: %+v", body.FlightSnapshot)
		}
		for _, rec := range body.Last {
			if rec.Worker == "" {
				t.Errorf("coordinator flight record has no placement: %+v", rec)
			}
		}
	}
	if workerPath != "" {
		decode(workerPath)
	}
}
