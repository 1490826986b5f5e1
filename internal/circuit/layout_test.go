package circuit_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestLayout checks every view, Layout array and SetDelay effect of
// circuits rebuilt from generated ones, and of cones cut from them,
// against the recording of the builder calls that made them.
func TestLayout(t *testing.T) {
	cs := []*circuit.Circuit{gen.Hrapcenko(10), gen.C17(10), gen.Industrial(1, 100, 10)}
	for seed := int64(1); seed <= 5; seed++ {
		cs = append(cs, gen.Random(seed, 5, 60, 10))
	}
	for _, e := range gen.SubstituteSuite() {
		cs = append(cs, e.Circuit)
	}
	for _, c := range cs {
		if d := circuit.StoreDiff(c); d != "" {
			t.Fatal(d)
		}
	}
}

// TestBuildLeavesNoSpareCapacity: a built circuit keeps no capacity
// beyond the length of any netlist array, however its builder grew
// them: parsed from .bench, built by the generators, or cut as a cone.
func TestBuildLeavesNoSpareCapacity(t *testing.T) {
	ind := gen.Industrial(1, 200, 10)
	var src strings.Builder
	if err := circuit.WriteBench(&src, ind); err != nil {
		t.Fatal(err)
	}
	parsed, err := circuit.ParseBenchString(src.String(), circuit.BenchOptions{DefaultDelay: 10})
	if err != nil {
		t.Fatal(err)
	}
	cone, _, err := circuit.ExtractConeMapped(ind, ind.PrimaryOutputs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{parsed, ind, cone, gen.Random(3, 6, 80, 10)} {
		if spare := circuit.SpareCapacity(c); spare != "" {
			t.Fatalf("%s keeps spare capacity (len/cap): %s", c.Name, spare)
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

// TestSetDelay checks that SetDelay writes both bounds of one gate and
// nothing else.
func TestSetDelay(t *testing.T) {
	c := gen.C17(10)
	c.SetDelay(2, 17, 4)
	l := c.Layout()
	for g := 0; g < c.NumGates(); g++ {
		dmax, dmin := int64(10), int64(10)
		if g == 2 {
			dmax, dmin = 17, 4
		}
		if v := c.Gate(circuit.GateID(g)); v.Delay != dmax || v.DMin != dmin || l.Delay[g] != dmax || l.DMin[g] != dmin {
			t.Fatalf("gate %d after SetDelay(2, 17, 4): view [%d,%d], layout [%d,%d], want [%d,%d]",
				g, v.DMin, v.Delay, l.DMin[g], l.Delay[g], dmin, dmax)
		}
	}
}
