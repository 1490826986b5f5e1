package server_test

import (
	"context"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// rowFromTable1 maps a harness row onto the wire Row exactly like
// harness.WriteJSON does, so the differential comparison is
// field-by-field on decoded structs.
func rowFromTable1(r harness.Table1Row) server.Row {
	return server.Row{
		Circuit: r.Circuit, Gates: r.Gates,
		Top: int64(r.Top), Delta: int64(r.Delta),
		Exact: r.Exact, Upper: r.Upper,
		BeforeGITD: r.BeforeGITD.String(), AfterGITD: r.AfterGITD.String(),
		AfterStem: r.AfterStem.String(), Backtracks: r.Backtracks,
		CAResult: r.CAResult.String(),
	}
}

// zeroClocks strips the wall-clock fields — the only non-deterministic
// ones — so the rest compares exactly.
func zeroRowClocks(rows []server.Row) {
	for i := range rows {
		rows[i].CPUSeconds = 0
	}
}

func zeroSweepClocks(sweeps []server.SweepResult) {
	for i := range sweeps {
		zeroResultClocks(sweeps[i].PerOutput)
	}
}

// TestE2EDifferentialSuite is the end-to-end differential test: a
// table1 δ-sweep served over HTTP must produce verdicts, stages,
// witnesses, and engine statistics identical to the in-process
// harness (harness.CircuitRowsParallel) and to core.RunAll, compared
// field-by-field through the same serialisation.
//
// The in-process reference runs on the circuit re-parsed from the
// exact netlist text sent to the server: net-id order is parse-order,
// and order-sensitive counters (propagations, queue high-water) are
// only comparable on identical id spaces.
func TestE2EDifferentialSuite(t *testing.T) {
	const budget = 200000 // == core.Default().MaxBacktracks, the server default
	const workers = 4

	s := server.New(server.Config{Workers: workers, QueueDepth: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	for _, e := range gen.SubstituteSuite() {
		if testing.Short() {
			switch e.Name {
			case "c17", "c432", "c880":
			default:
				continue
			}
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "c6288" && os.Getenv("LTTAD_E2E_FULL") == "" {
				// The multiplier's δ row needs minutes of case analysis,
				// three times over (harness, RunAll, server); still
				// bit-identical, but only checked on demand.
				t.Skip("set LTTAD_E2E_FULL=1 to include the c6288 multiplier")
			}
			bench := circuit.BenchString(e.Circuit)
			local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: e.Name})
			if err != nil {
				t.Fatalf("re-parsing %s: %v", e.Name, err)
			}

			got, err := cl.CheckInline(context.Background(), server.Request{
				Netlist: bench, Name: e.Name,
				Sweep: &server.SweepSpec{Table1: true},
			})
			if err != nil {
				t.Fatalf("server check: %v", err)
			}

			// Rows against the in-process harness.
			wantRows := make([]server.Row, 0, 2)
			for _, r := range harness.CircuitRowsParallel(e.Name, local, budget, workers) {
				wantRows = append(wantRows, rowFromTable1(r))
			}
			zeroRowClocks(got.Rows)
			if !reflect.DeepEqual(got.Rows, wantRows) {
				t.Errorf("rows differ:\n got %+v\nwant %+v", got.Rows, wantRows)
			}

			// Sweeps (per-output verdicts, witnesses, statistics) against
			// core.RunAll through the same conversion the server uses.
			v := core.NewVerifier(local, core.Default())
			res, err := v.CircuitFloatingDelayCtx(context.Background(), core.Request{Workers: workers})
			if err != nil {
				t.Fatalf("in-process delay search: %v", err)
			}
			wantSweeps := []server.SweepResult{}
			for _, d := range []waveform.Time{res.Delay.Add(1), res.Delay} {
				cr := v.RunAll(context.Background(), core.Request{Delta: d, Workers: workers})
				wantSweeps = append(wantSweeps, server.SweepFromReport(local, cr))
			}
			zeroSweepClocks(got.Sweeps)
			zeroSweepClocks(wantSweeps)
			if !reflect.DeepEqual(got.Sweeps, wantSweeps) {
				t.Errorf("sweeps differ:\n got %+v\nwant %+v", got.Sweeps, wantSweeps)
			}

			// Every served witness must replay: decoded at the API
			// boundary, simulated, and certified against the check it
			// answers.
			replayed := 0
			for _, sw := range got.Sweeps {
				for _, pr := range sw.PerOutput {
					if pr.Final != "V" {
						continue
					}
					replayWitness(t, local, pr)
					replayed++
				}
			}
			if replayed == 0 {
				t.Errorf("%s: no violation witnesses served; the δ row must witness", e.Name)
			}

			if got.Circuit.Name != e.Name || got.Circuit.Gates != local.NumGates() {
				t.Errorf("circuit echo wrong: %+v", got.Circuit)
			}
		})
	}
}

// replayWitness simulates a served witness and asserts it certifies
// the violation it was reported for.
func replayWitness(t *testing.T, c *circuit.Circuit, pr server.CheckResult) {
	t.Helper()
	if pr.Witness == "" {
		t.Errorf("violation (%s, %d) served without a witness", pr.Sink, pr.Delta)
		return
	}
	vec, err := server.DecodeWitness(pr.Witness)
	if err != nil {
		t.Errorf("witness (%s, %d): %v", pr.Sink, pr.Delta, err)
		return
	}
	sink, ok := c.NetByName(pr.Sink)
	if !ok {
		t.Errorf("witness names unknown sink %q", pr.Sink)
		return
	}
	r, err := sim.Run(c, vec)
	if err != nil {
		t.Errorf("witness (%s, %d) does not simulate: %v", pr.Sink, pr.Delta, err)
		return
	}
	if !r.Violates(sink, waveform.Time(pr.Delta)) {
		t.Errorf("witness (%s, %d) does not violate: settles at %d", pr.Sink, pr.Delta, r.Settle[sink])
	}
	if got := int64(r.Settle[sink]); got != pr.WitnessSettle {
		t.Errorf("witness (%s, %d): served settle %d, simulated %d", pr.Sink, pr.Delta, pr.WitnessSettle, got)
	}
}

// TestE2EExplicitBatch covers the explicit-checks path end to end:
// per-check verdicts served over HTTP equal v.Run in process.
func TestE2EExplicitBatch(t *testing.T) {
	s := server.New(server.Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()
	cl := client.New(ts.URL)

	src := gen.C17(10)
	bench := circuit.BenchString(src)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}

	var specs []server.CheckSpec
	for _, po := range local.PrimaryOutputs() {
		for _, d := range []int64{40, 50, 51} {
			specs = append(specs, server.CheckSpec{Sink: local.Net(po).Name, Delta: d})
		}
	}
	got, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: bench, Name: "c17", Checks: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(specs) {
		t.Fatalf("got %d results for %d checks", len(got.Results), len(specs))
	}
	if got.Done.ChecksRun != len(specs) {
		t.Fatalf("done reports %d checks, want %d", got.Done.ChecksRun, len(specs))
	}

	// The comparison below includes exact work counters, which do not
	// depend on which checks ran first: no check is charged for the
	// base snapshots.
	v := core.NewVerifier(local, core.Default())
	for i, cs := range specs {
		sink, _ := local.NetByName(cs.Sink)
		rep := v.Run(context.Background(), core.Request{Sink: sink, Delta: waveform.Time(cs.Delta)})
		want := server.ResultFromReport(local, i, rep)
		g := got.Results[i]
		g.ElapsedUs, want.ElapsedUs = 0, 0
		// The reference result comes straight from ResultFromReport, which
		// never stamps trace attribution; strip the server's.
		g.TraceID, g.SpanID, g.StartUnixUs, g.StageUs = "", "", 0, nil
		if !reflect.DeepEqual(g, want) {
			t.Errorf("check %d (%s, %d):\n got %+v\nwant %+v", i, cs.Sink, cs.Delta, g, want)
		}
	}
}
