package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/waveform"
)

func TestCheckAllParallelMatchesSerialOnRefutation(t *testing.T) {
	c := gen.C17(10)
	v := NewVerifier(c, Default())
	for _, delta := range []waveform.Time{31, 40} {
		serial := v.RunAll(context.Background(), Request{Delta: delta, Workers: 1})
		par := v.RunAll(context.Background(), Request{Delta: delta, Workers: 4})
		if serial.Final != par.Final || serial.BeforeGITD != par.BeforeGITD {
			t.Fatalf("δ=%s: serial %s/%s vs parallel %s/%s",
				delta, serial.Final, serial.BeforeGITD, par.Final, par.BeforeGITD)
		}
	}
}

func TestCheckAllParallelWitnessDeterministic(t *testing.T) {
	c := gen.C17(10)
	v := NewVerifier(c, Default())
	var first *CircuitReport
	for i := 0; i < 5; i++ {
		cr := v.RunAll(context.Background(), Request{Delta: 30, Workers: 3})
		if cr.Final != ViolationFound {
			t.Fatalf("δ=30 must be witnessed, got %s", cr.Final)
		}
		if first == nil {
			first = cr
			continue
		}
		if cr.WitnessOutput != first.WitnessOutput {
			t.Fatalf("witness output nondeterministic: %d vs %d", cr.WitnessOutput, first.WitnessOutput)
		}
	}
	// The witness is the first violating PO index, matching serial.
	serial := v.RunAll(context.Background(), Request{Delta: 30, Workers: 1})
	if serial.WitnessOutput != first.WitnessOutput {
		t.Fatalf("parallel witness %d differs from serial %d", first.WitnessOutput, serial.WitnessOutput)
	}
}

func TestCheckAllParallelSingleWorkerFallsBack(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	cr := v.RunAll(context.Background(), Request{Delta: 61, Workers: 1})
	if cr.Final != NoViolation {
		t.Fatalf("got %s", cr.Final)
	}
}

func TestCheckAllParallelOnSuiteCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a second")
	}
	for _, e := range gen.SubstituteSuite() {
		if e.Name != "c5315" {
			continue
		}
		v := NewVerifier(e.Circuit, Default())
		top := v.Topological()
		serial := v.RunAll(context.Background(), Request{Delta: top.Add(1), Workers: 1})
		par := v.RunAll(context.Background(), Request{Delta: top.Add(1), Workers: 0})
		if serial.Final != par.Final || serial.Final != NoViolation {
			t.Fatalf("beyond-top check differs: %s vs %s", serial.Final, par.Final)
		}
	}
}
