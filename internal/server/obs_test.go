package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// waitReady polls /readyz until the warm-up canary completes.
func waitReady(t *testing.T, cl *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h, err := cl.Readyz(context.Background()); err == nil && h.Status == "ok" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestHealthzReadyzSplit pins the liveness/readiness contract:
// /healthz answers 200 for the whole process lifetime; /readyz is 503
// until the warm-up canary completes and again from BeginDrain on.
func TestHealthzReadyzSplit(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	// Liveness holds from the first request, ready or not.
	if h, err := cl.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz before ready: %v (status %+v)", err, h)
	}
	waitReady(t, cl)
	if h, err := cl.Readyz(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("readyz after warm-up: %+v, %v", h, err)
	}

	s.BeginDrain()
	if h, err := cl.Healthz(context.Background()); err != nil || h.Status != "draining" {
		t.Fatalf("healthz while draining: want 200/draining, got %+v, %v", h, err)
	}
	_, err := cl.Readyz(context.Background())
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: want 503, got %v", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("readyz 503 must carry Retry-After, got %+v", apiErr)
	}
}

// metricSeries is one /metrics scrape keyed by series: the sample
// name plus its labels sorted by key, as the exposition renders them,
// e.g. lttad_registry_evictions_total{mode="deferred"}.
type metricSeries map[string]int64

// scrapeMetrics reads a tier's counters and gauges the way an
// operator's scraper does: from the Prometheus exposition.
func scrapeMetrics(t *testing.T, cl *client.Client) metricSeries {
	t.Helper()
	text, err := cl.MetricsProm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v\n%s", err, text)
	}
	m := metricSeries{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			key := smp.Name
			if len(smp.Labels) > 0 {
				var kv []string
				for k, v := range smp.Labels {
					kv = append(kv, k+`="`+v+`"`)
				}
				sort.Strings(kv)
				key += "{" + strings.Join(kv, ",") + "}"
			}
			m[key] = int64(smp.Value)
		}
	}
	return m
}

// TestMetricsEndpoints runs a batch and checks the metrics surface:
// /metrics is a valid Prometheus exposition with a latency histogram
// per pipeline stage, and it is the only one (/metrics.json is 404).
func TestMetricsEndpoints(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	src := gen.C17(10)
	bench := circuit.BenchString(src)
	if _, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: bench, Name: "c17",
		Sweep: &server.SweepSpec{Deltas: []int64{40, 51}},
	}); err != nil {
		t.Fatal(err)
	}

	text, err := cl.MetricsProm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v\n%s", err, text)
	}
	stages := map[string]bool{}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
		if f.Name != "ltta_stage_duration_seconds" {
			continue
		}
		for _, smp := range f.Samples {
			if smp.Labels["le"] == "+Inf" && smp.Value > 0 {
				stages[smp.Labels["stage"]] = true
			}
		}
	}
	// Every check runs the plain fixpoint; the δ=40 checks go deeper.
	if !stages["fixpoint"] {
		t.Errorf("no populated fixpoint stage histogram:\n%s", text)
	}
	for _, want := range []string{
		"lttad_batches_accepted_total", "lttad_checks_run_total",
		"lttad_queued_batches", "ltta_checks_total",
		"ltta_check_duration_seconds", "go_goroutines",
	} {
		if !names[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}

	m := scrapeMetrics(t, cl)
	if m["lttad_checks_run_total"] == 0 || m["lttad_batches_accepted_total"] == 0 {
		t.Fatalf("exposition counters not populated: %+v", m)
	}
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics.json = %d, want 404", resp.StatusCode)
	}
}

// TestBatchTraceDir checks per-batch span recording: with TraceDir
// set, every batch leaves a validating trace_event file behind.
func TestBatchTraceDir(t *testing.T) {
	dir := t.TempDir()
	s := server.New(server.Config{Workers: 2, QueueDepth: 4, TraceDir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	src := gen.C17(10)
	if _, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: circuit.BenchString(src), Name: "c17",
		Sweep: &server.SweepSpec{Deltas: []int64{51}},
	}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "batch-1.trace.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("batch trace not written: %v", err)
	}
	defer f.Close()
	n, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatalf("batch trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("batch trace is empty")
	}
}

// TestTable1CountsEveryCheck pins that a table1 batch's delay-search
// checks are served checks like any other: after the batch,
// lttad_checks_run_total, the ltta_checks_total series summed over
// verdicts and the batch timeline's check spans all equal the
// response's done.checksRun.
func TestTable1CountsEveryCheck(t *testing.T) {
	dir := t.TempDir()
	s := server.New(server.Config{Workers: 2, QueueDepth: 4, TraceDir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	resp, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: circuit.BenchString(gen.C17(10)), Name: "c17",
		Sweep: &server.SweepSpec{Table1: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(resp.Done.ChecksRun)
	if len(resp.Rows) != 2 || want <= 4 {
		t.Fatalf("table1 batch: %d rows, %d checks run", len(resp.Rows), want)
	}
	m := scrapeMetrics(t, cl)
	var byVerdict int64
	for k, v := range m {
		if strings.HasPrefix(k, "ltta_checks_total{") {
			byVerdict += v
		}
	}
	if got := m["lttad_checks_run_total"]; got != want {
		t.Errorf("lttad_checks_run_total = %d, done.checksRun = %d", got, want)
	}
	if byVerdict != want {
		t.Errorf("ltta_checks_total sums to %d, done.checksRun = %d", byVerdict, want)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "batch-1.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("batch trace does not validate: %v", err)
	}
	if got := int64(strings.Count(string(raw), `"name":"check `)); got != want {
		t.Errorf("batch timeline holds %d check spans, done.checksRun = %d", got, want)
	}
}

// TestStructuredLogs checks the request-scoped slog wiring: batch
// lifecycle at info with a batch id, per-check records at debug with
// sink/delta/verdict.
func TestStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&syncWriter{w: &buf}, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 2, QueueDepth: 4, Logger: logger})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	src := gen.C17(10)
	local, err := circuit.ParseBenchString(circuit.BenchString(src), circuit.BenchOptions{DefaultDelay: 10, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	po := local.Net(local.PrimaryOutputs()[0]).Name
	if _, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: circuit.BenchString(src), Name: "c17",
		Checks: []server.CheckSpec{{Sink: po, Delta: 51}},
	}); err != nil {
		t.Fatal(err)
	}

	logs := buf.String()
	for _, want := range []string{
		`"msg":"batch accepted"`, `"msg":"batch done"`, `"batch":1`,
		`"msg":"check"`, `"sink":"` + po + `"`, `"delta":51`, `"verdict":"N"`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("logs missing %s:\n%s", want, logs)
		}
	}
}

// syncWriter serialises concurrent slog writes from pool workers.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
