package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// debugChecks fetches and decodes GET /debug/checks from one tier.
func debugChecks(t *testing.T, base string) struct {
	obs.FlightSnapshot
	LatencyExemplars []obs.BucketExemplar `json:"latencyExemplars"`
} {
	t.Helper()
	var body struct {
		obs.FlightSnapshot
		LatencyExemplars []obs.BucketExemplar `json:"latencyExemplars"`
	}
	resp, err := http.Get(base + "/debug/checks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/checks: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET /debug/checks content type %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding /debug/checks: %v", err)
	}
	return body
}

// TestDebugChecksEndpoint runs a traced sweep on a plain daemon and
// reads GET /debug/checks back: the flight recorder must hold every
// check of the batch under the client's trace id, the slowest entries
// must carry stage durations, and the latency histogram must expose
// trace-id exemplars.
func TestDebugChecksEndpoint(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueDepth: 4, FlightLast: 64, FlightSlowest: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	// Before any batch: valid JSON, zero records.
	if body := debugChecks(t, ts.URL); body.Recorded != 0 || len(body.Last) != 0 {
		t.Fatalf("fresh recorder not empty: %+v", body)
	}

	traceID := api.NewTraceID()
	src := gen.C17(10)
	resp, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: circuit.BenchString(src), Name: "c17",
		Sweep: &server.SweepSpec{Deltas: []int64{40, 51}},
		Trace: &api.TraceContext{TraceID: traceID, Tenant: "acme"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := int(resp.Done.ChecksRun)

	body := debugChecks(t, ts.URL)
	if int(body.Recorded) != ran || len(body.Last) != ran {
		t.Fatalf("recorded %d/%d flight records, batch ran %d checks",
			body.Recorded, len(body.Last), ran)
	}
	if len(body.Slowest) == 0 {
		t.Fatal("no slowest records after a batch")
	}
	for _, rec := range body.Last {
		if rec.TraceID != traceID {
			t.Errorf("flight record for %q carries trace %q, want the client's %q",
				rec.Sink, rec.TraceID, traceID)
		}
		if rec.Tenant != "acme" {
			t.Errorf("flight record for %q lost the tenant: %+v", rec.Sink, rec)
		}
		if rec.Verdict == "" || rec.StartUnixUs == 0 {
			t.Errorf("flight record incomplete: %+v", rec)
		}
	}
	// The slowest check of a real sweep ran at least the fixpoint
	// stage, so its stage breakdown must be populated.
	if slow := body.Slowest[0]; len(slow.StageUs) == 0 {
		t.Errorf("slowest record has no stage durations: %+v", slow)
	}
	if len(body.LatencyExemplars) == 0 {
		t.Fatal("latency histogram has no exemplars after a batch")
	}
	for _, ex := range body.LatencyExemplars {
		if ex.TraceID != traceID {
			t.Errorf("exemplar in bucket le=%s carries trace %q, want %q", ex.LE, ex.TraceID, traceID)
		}
	}
}

// TestDebugChecksUntracedBatch: a batch submitted without a trace
// context still lands in the flight recorder — the daemon mints the
// trace id itself (always-on recording is the point of the recorder).
func TestDebugChecksUntracedBatch(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueDepth: 4})
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

	body := debugChecks(t, ts.URL)
	if body.Recorded != 1 || len(body.Last) != 1 {
		t.Fatalf("untraced batch not recorded: %+v", body.FlightSnapshot)
	}
	if rec := body.Last[0]; !api.ValidTraceID(rec.TraceID) || rec.Sink != po {
		t.Fatalf("untraced record missing minted trace id or sink: %+v", rec)
	}
}
