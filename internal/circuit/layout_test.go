package circuit_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// checkLayout verifies that c's flat layout describes exactly its gates
// and nets, and that Gate.Inputs and Net.Fanout are sub-slices of it.
func checkLayout(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	l := c.Layout()
	pins := 0
	for g := 0; g < c.NumGates(); g++ {
		gid := circuit.GateID(g)
		gate := c.Gate(gid)
		in := l.Inputs(gid)
		if !slices.Equal(in, gate.Inputs) || &in[0] != &gate.Inputs[0] {
			t.Fatalf("%s gate %d: layout inputs %v are not Gate.Inputs %v", c.Name, g, in, gate.Inputs)
		}
		if cap(gate.Inputs) != len(gate.Inputs) {
			t.Fatalf("%s gate %d: Gate.Inputs can grow into the next gate's pins", c.Name, g)
		}
		if l.Out[g] != gate.Output || l.Delay[g] != gate.Delay {
			t.Fatalf("%s gate %d: layout out/delay %d/%d, gate %d/%d", c.Name, g, l.Out[g], l.Delay[g], gate.Output, gate.Delay)
		}
		pins += len(in)
	}
	if pins != c.NumPins() {
		t.Fatalf("%s: %d pins over the gates, NumPins %d", c.Name, pins, c.NumPins())
	}
	for n := 0; n < c.NumNets(); n++ {
		nid := circuit.NetID(n)
		net := c.Net(nid)
		if l.Driver(nid) != net.Driver {
			t.Fatalf("%s net %d: layout driver %d, net %d", c.Name, n, l.Driver(nid), net.Driver)
		}
		if !slices.Equal(l.Fanout(nid), net.Fanout) {
			t.Fatalf("%s net %d: layout fanout %v, net %v", c.Name, n, l.Fanout(nid), net.Fanout)
		}
		var want []circuit.GateID
		if net.Driver != circuit.InvalidGate {
			want = append(want, net.Driver)
		}
		for g := 0; g < c.NumGates(); g++ {
			for _, in := range c.Gate(circuit.GateID(g)).Inputs {
				if in == nid {
					want = append(want, circuit.GateID(g))
				}
			}
		}
		if !slices.Equal(l.Gates(nid), want) {
			t.Fatalf("%s net %d: layout gates %v, want driver then fanout %v", c.Name, n, l.Gates(nid), want)
		}
	}
}

// TestLayout checks the flat layout of built circuits and of cones cut
// from them.
func TestLayout(t *testing.T) {
	cs := []*circuit.Circuit{gen.Hrapcenko(10), gen.C17(10), gen.Industrial(1, 100, 10)}
	for seed := int64(1); seed <= 5; seed++ {
		cs = append(cs, gen.Random(seed, 5, 60, 10))
	}
	for _, e := range gen.SubstituteSuite() {
		cs = append(cs, e.Circuit)
	}
	for _, c := range cs {
		checkLayout(t, c)
		for _, po := range c.PrimaryOutputs()[:min(3, len(c.PrimaryOutputs()))] {
			cone, err := circuit.ExtractCone(c, po)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, cone)
		}
	}
}

// TestReconvergentStemsMatchesReference: the stems equal the
// reference's, in the same order, on generated circuits of every kind
// and on cones cut from them.
func TestReconvergentStemsMatchesReference(t *testing.T) {
	cs := []*circuit.Circuit{gen.Hrapcenko(10), gen.C17(10), gen.Industrial(1, 100, 10), gen.Industrial(2, 200, 10)}
	for seed := int64(1); seed <= 20; seed++ {
		cs = append(cs, gen.Random(seed, 3+int(seed%6), 10*int(seed), 10))
	}
	for _, e := range gen.SubstituteSuite() {
		cs = append(cs, e.Circuit)
	}
	stems := 0
	for _, c := range cs {
		all := []*circuit.Circuit{c}
		for _, po := range c.PrimaryOutputs()[:min(3, len(c.PrimaryOutputs()))] {
			cone, err := circuit.ExtractCone(c, po)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, cone)
		}
		for _, x := range all {
			got, want := x.ReconvergentStems(), circuit.ReferenceReconvergentStems(x)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: stems %v, reference %v", x.Name, got, want)
			}
			stems += len(got)
		}
	}
	if stems < 100 {
		t.Fatalf("only %d stems compared", stems)
	}
}

// TestLayoutOpcodes checks every gate type and fan-in class maps to
// its opcode.
func TestLayoutOpcodes(t *testing.T) {
	cases := []struct {
		gt   circuit.GateType
		k    int
		want circuit.Op
	}{
		{circuit.BUFFER, 1, circuit.OpBuffer}, {circuit.DELAY, 1, circuit.OpBuffer}, {circuit.NOT, 1, circuit.OpNot},
		{circuit.AND, 1, circuit.OpAndOr1}, {circuit.OR, 1, circuit.OpAndOr1},
		{circuit.NAND, 1, circuit.OpNandNor1}, {circuit.NOR, 1, circuit.OpNandNor1},
		{circuit.AND, 2, circuit.OpAnd2}, {circuit.NAND, 2, circuit.OpNand2},
		{circuit.OR, 2, circuit.OpOr2}, {circuit.NOR, 2, circuit.OpNor2},
		{circuit.AND, 3, circuit.OpAnd}, {circuit.NAND, 5, circuit.OpNand},
		{circuit.OR, 3, circuit.OpOr}, {circuit.NOR, 4, circuit.OpNor},
		{circuit.XOR, 1, circuit.OpXor}, {circuit.XOR, 2, circuit.OpXor}, {circuit.XNOR, 3, circuit.OpXnor},
	}
	b := circuit.NewBuilder("ops")
	var ins []string
	for i := 0; i < 5; i++ {
		ins = append(ins, fmt.Sprintf("i%d", i))
		b.Input(ins[i])
	}
	for i, tc := range cases {
		b.Gate(tc.gt, 1, fmt.Sprintf("o%d", i), ins[:tc.k]...)
		b.Output(fmt.Sprintf("o%d", i))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		if got := c.Layout().Op[i]; got != tc.want {
			t.Errorf("%d-input %s: opcode %d, want %d", tc.k, tc.gt, got, tc.want)
		}
	}
}

// TestSetDelay checks that SetDelay keeps the layout's delays in step
// with the gates'.
func TestSetDelay(t *testing.T) {
	c := gen.C17(10)
	c.SetDelay(2, 17, 4)
	if g := c.Gate(2); g.Delay != 17 || g.DMin != 4 || c.Layout().Delay[2] != 17 {
		t.Fatalf("after SetDelay(2, 17, 4): gate %d/%d, layout %d", g.Delay, g.DMin, c.Layout().Delay[2])
	}
	checkLayout(t, c)
}
