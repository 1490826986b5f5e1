package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/registry"
)

// fuzzSeeds are real request bodies — the same shapes the e2e suite
// sends — plus the malformed neighbours a fuzzer should start from.
func fuzzSeeds(f *testing.F) {
	bench := circuit.BenchString(gen.C17(10))
	add := func(req Request) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	add(Request{Netlist: bench, Name: "c17", Sweep: &SweepSpec{Table1: true}})
	add(Request{Netlist: bench, Sweep: &SweepSpec{Deltas: []int64{40, 50, 51}}, Stream: true})
	add(Request{Netlist: bench, Checks: []CheckSpec{{Sink: "g22", Delta: 50}, {Sink: "g23", Delta: 49, VerifyOnly: true}},
		Options: &OptionsSpec{NoStems: true, MaxBacktracks: 100}, Budgets: &BudgetsSpec{MaxPropagations: 1 << 20},
		CheckTimeoutMs: 100, TimeoutMs: 1000})
	add(Request{Netlist: "module m (a, z); input a; output z; not (z, a); endmodule",
		Format: "verilog", Checks: []CheckSpec{{Sink: "z", Delta: 1}}})

	f.Add([]byte(`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","checks":[{"sink":"z","delta":5}]}`))
	f.Add([]byte(`{"netlist":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","checks":[{"sink":"missing","delta":5}]}`))
	f.Add([]byte(`{"netlist":"garbage = = (","sweep":{"deltas":[1]}}`))
	f.Add([]byte(`{"netlist":"INPUT(a)","checks":[{"sink":"a"}],"sweep":{"table1":true}}`))
	f.Add([]byte(`{"netlist":"INPUT(a)","defaultDelay":-1}`))
	f.Add([]byte(`{"netlist":5}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte("\xff\xfe{}"))
}

// FuzzDecodeRequest drives arbitrary bytes through the full request
// path short of execution — JSON decode, validation, the inline
// netlist's canonicalization and hash and parse (as handleCheck
// builds it), sink resolution, option/budget mapping. Every
// rejection must be a structured 4xx apiError; nothing may panic.
func FuzzDecodeRequest(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, apiErr := decodeRequest(bytes.NewReader(data), false)
		if apiErr != nil {
			check4xx(t, apiErr)
			return
		}
		_, canon, err := registry.HashUpload(&UploadRequest{
			Netlist: req.Netlist, Format: req.Format, Name: req.Name, DefaultDelay: req.DefaultDelay,
		})
		if err != nil {
			check4xx(t, uploadError(err))
			return
		}
		c, err := (&frontEnd{}).buildCircuit(canon)
		if err != nil {
			check4xx(t, uploadError(err))
			return
		}
		if _, apiErr := resolveChecks(c, req.Checks); apiErr != nil {
			check4xx(t, apiErr)
			return
		}
		// Accepted requests must map onto sane engine parameters.
		opts := engineOptions(req.Options)
		if opts.MaxBacktracks < 0 || opts.MaxStemSplits == 0 {
			t.Fatalf("accepted request mapped to bad options %+v", opts)
		}
		_ = engineBudgets(req.Budgets)
		if n := batchSize(c, req, nil); req.Sweep != nil && !req.Sweep.Table1 && n < 0 {
			t.Fatalf("sweep expanded to negative batch size %d", n)
		}
	})
}

func check4xx(t *testing.T, e *apiError) {
	t.Helper()
	if e.status < 400 || e.status > 499 {
		t.Fatalf("rejection with status %d (code %s): want 4xx", e.status, e.code)
	}
	if e.code == "" || e.msg == "" {
		t.Fatalf("rejection without code/message: %+v", e)
	}
}
