package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Edge cases through the whole engine: DELAY elements, zero-delay
// gates, degenerate fan-in, outputs fed directly by inputs.

func exactMatchesOracle(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	v := NewVerifier(c, Default())
	for _, po := range c.PrimaryOutputs() {
		want, _, err := sim.FloatingDelayExhaustive(c, po)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.ExactFloatingDelayCtx(context.Background(), po, Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Exact || got.Delay != want {
			t.Fatalf("output %s: engine %s (exact=%v), oracle %s",
				c.Net(po).Name, got.Delay, got.Exact, want)
		}
	}
}

func TestDelayElements(t *testing.T) {
	// The paper's DELAY elements: pure transport stages on a path.
	b := circuit.NewBuilder("delays")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.DELAY, 25, "d1", "a")
	b.Gate(circuit.DELAY, 17, "d2", "d1")
	b.Gate(circuit.AND, 3, "z", "d2", "b")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exactMatchesOracle(t, c)
	v := NewVerifier(c, Default())
	if v.Topological() != 45 {
		t.Fatalf("top = %s", v.Topological())
	}
}

func TestZeroDelayGates(t *testing.T) {
	b := circuit.NewBuilder("zero")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.AND, 0, "x", "a", "b")
	b.Gate(circuit.OR, 0, "y", "x", "a")
	b.Gate(circuit.NOT, 10, "z", "y")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exactMatchesOracle(t, c)
}

func TestDegenerateFanin(t *testing.T) {
	// 1-input AND/NOR degenerate to buffer/inverter semantics.
	b := circuit.NewBuilder("degen")
	b.Input("a")
	b.Gate(circuit.AND, 5, "x", "a")
	b.Gate(circuit.NOR, 5, "y", "x")
	b.Gate(circuit.XOR, 5, "z", "y")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exactMatchesOracle(t, c)
	vals, err := sim.Logic(c, sim.Vector{1})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := c.NetByName("z")
	if vals[z] != 0 {
		t.Fatalf("z = %d, want NOT(1) propagated", vals[z])
	}
}

func TestInputIsOutput(t *testing.T) {
	b := circuit.NewBuilder("thru")
	b.Input("a")
	b.Output("a")
	b.Input("b")
	b.Gate(circuit.NOT, 10, "z", "b")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(c, Default())
	a, _ := c.NetByName("a")
	// a's floating delay is 0: it can differ from its final value at
	// t = 0 exactly, never later.
	res, err := v.ExactFloatingDelayCtx(context.Background(), a, Request{})
	if err != nil || !res.Exact || res.Delay != 0 {
		t.Fatalf("PI-as-PO delay: %+v (%v)", res, err)
	}
	rep := v.Run(context.Background(), Request{Sink: a, Delta: 1})
	if rep.Final != NoViolation {
		t.Fatalf("check (a, 1) = %s, want N", rep.Final)
	}
}

func TestWideGate(t *testing.T) {
	// A 9-input NOR (ISCAS circuits have such gates) through the
	// symmetric projection fast path.
	b := circuit.NewBuilder("wide")
	ins := make([]string, 9)
	for i := range ins {
		ins[i] = string(rune('a' + i))
		b.Input(ins[i])
	}
	b.Gate(circuit.NOR, 10, "z", ins...)
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exactMatchesOracle(t, c)
}

func TestHugeDeltaAndNegativeDelta(t *testing.T) {
	b := circuit.NewBuilder("bounds")
	b.Input("a")
	b.Gate(circuit.NOT, 10, "z", "a")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(c, Default())
	z, _ := c.NetByName("z")
	if rep := v.Run(context.Background(), Request{Sink: z, Delta: waveform.Time(1 << 40)}); rep.Final != NoViolation {
		t.Fatalf("astronomical δ must be refuted, got %s", rep.Final)
	}
	// δ ≤ 0 is always violable: the output can differ from its final
	// value at t = 0 (unknown initial state).
	if rep := v.Run(context.Background(), Request{Sink: z, Delta: 0}); rep.Final != ViolationFound {
		t.Fatalf("δ=0 must be witnessed, got %s", rep.Final)
	}
	if rep := v.Run(context.Background(), Request{Sink: z, Delta: -5}); rep.Final != ViolationFound {
		t.Fatalf("negative δ must be witnessed, got %s", rep.Final)
	}
}
