package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/waveform"
)

func TestSystemAfterFixpoint(t *testing.T) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := NewVerifier(c, Default())
	sys := v.SystemAfterFixpoint(s, 61)
	if !sys.Inconsistent() {
		t.Fatal("δ=61 plain fixpoint must be inconsistent on Figure 1")
	}
	if sys.Circuit() != c {
		t.Fatal("system must expose its circuit")
	}
	sys = v.SystemAfterFixpoint(s, 60)
	if sys.Inconsistent() {
		t.Fatal("δ=60 must stay consistent")
	}
	if v.Circuit() != c {
		t.Fatal("verifier must expose its circuit")
	}
}

func TestDomainsAfterFixpoint(t *testing.T) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := NewVerifier(c, Options{})
	doms := v.DomainsAfterFixpoint(s, 60)
	if len(doms) != c.NumNets() {
		t.Fatal("one domain per net expected")
	}
	n7, _ := c.NetByName("n7")
	want := waveform.Signal{
		W0: waveform.Wave{Lmin: waveform.NegInf, Lmax: 60},
		W1: waveform.Wave{Lmin: 50, Lmax: 60},
	}
	if !doms[n7].Equal(want) {
		t.Fatalf("n7 = %s, want %s", doms[n7], want)
	}
}

// TestBacktraceThroughParity forces the case analysis to backtrace
// through XOR gates (the parity branch of the backtrace).
func TestBacktraceThroughParity(t *testing.T) {
	b := circuit.NewBuilder("xordec")
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.Gate(circuit.BUFFER, 10, "n1", "a")
	b.Gate(circuit.BUFFER, 10, "n2", "n1")
	b.Gate(circuit.XOR, 10, "x", "b", "c")
	b.Gate(circuit.AND, 10, "z", "n2", "x")
	b.Output("z")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(ckt, Default())
	z, _ := ckt.NetByName("z")
	res, err := v.ExactFloatingDelayCtx(context.Background(), z, Request{})
	if err != nil || !res.Exact {
		t.Fatalf("exact failed: %v %+v", err, res)
	}
	// δ = 40 needs the n2 chain AND x = 1, reachable only by an XOR
	// side objective; the engine must find a witness.
	rep := v.Run(context.Background(), Request{Sink: z, Delta: res.Delay})
	if rep.Final != ViolationFound {
		t.Fatalf("δ=%s must be witnessed, got %s", res.Delay, rep.Final)
	}
}

// TestBacktraceDeadEnds: objectives whose chain ends in already-decided
// nets must be skipped without progress loss.
func TestBacktraceDeadEnds(t *testing.T) {
	b := circuit.NewBuilder("dead")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.NOT, 10, "nb", "b")
	b.Gate(circuit.AND, 10, "p", "a", "b")
	b.Gate(circuit.AND, 10, "q", "a", "nb")
	b.Gate(circuit.OR, 10, "z", "p", "q")
	b.Output("z")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(ckt, Default())
	z, _ := ckt.NetByName("z")
	res, err := v.ExactFloatingDelayCtx(context.Background(), z, Request{})
	if err != nil || !res.Exact {
		t.Fatalf("exact failed: %v %+v", err, res)
	}
	// Sanity: the engine terminates and certifies on this reconvergent
	// structure at and above the exact delay.
	if rep := v.Run(context.Background(), Request{Sink: z, Delta: res.Delay.Add(1)}); rep.Final != NoViolation {
		t.Fatalf("δ+1 must be refuted, got %s", rep.Final)
	}
}

func TestGateIDsBuilderPath(t *testing.T) {
	b := circuit.NewBuilder("ids")
	a := b.Input("a")
	x := b.Net("x")
	b.GateIDs(circuit.NOT, 5, x, a)
	b.Output("x")
	ckt, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ckt.NumGates() != 1 || ckt.Gate(0).Delay != 5 {
		t.Fatal("GateIDs path broken")
	}
}
