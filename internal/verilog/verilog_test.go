package verilog

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/sim"
)

const c17v = `
// c17 in structural Verilog
module c17 (G1, G2, G3, G6, G7, G22, G23);
  input G1, G2, G3, G6, G7;
  output G22, G23;
  wire G10, G11, G16, G19;

  nand #10 u0 (G10, G1, G3);
  nand #10 u1 (G11, G3, G6);
  nand #10 u2 (G16, G2, G11);
  nand #10 u3 (G19, G11, G7);
  nand #10 u4 (G22, G10, G16);
  nand #10 u5 (G23, G16, G19);
endmodule
`

func TestReadC17(t *testing.T) {
	c, err := ParseString(c17v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Gates != 6 || st.PIs != 5 || st.POs != 2 {
		t.Fatalf("shape: %+v", st)
	}
	for i := 0; i < c.NumGates(); i++ {
		g := c.Gate(circuit.GateID(i))
		if g.Type != circuit.NAND || g.Delay != 10 {
			t.Fatalf("gate %d: %s d=%d", i, g.Type, g.Delay)
		}
	}
	// Functional equivalence with the reference c17.
	ref := gen.C17(10)
	for bits := 0; bits < 32; bits++ {
		v := sim.Vector{bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1, (bits >> 4) & 1}
		// PI order differs only if declaration order differs; both use
		// G1,G2,G3,G6,G7.
		got, err := oracle.Logic(c, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Logic(ref, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"G22", "G23"} {
			gi, _ := c.NetByName(name)
			wi, _ := ref.NetByName(name)
			if got[gi] != want[wi] {
				t.Fatalf("vector %05b differs on %s", bits, name)
			}
		}
	}
}

func TestDefaultDelayAndUnnamedInstance(t *testing.T) {
	src := `
module m (a, b, z);
  input a, b; output z;
  and (z, a, b); /* unnamed, no delay */
endmodule
`
	c, err := ParseString(src, Options{DefaultDelay: 7})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := c.NetByName("z")
	if g := c.Gate(c.Net(z).Driver); g.Type != circuit.AND || g.Delay != 7 {
		t.Fatalf("gate: %s d=%d", g.Type, g.Delay)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := gen.CarrySkipAdder(6, 3, 10)
	text := String(orig)
	c, err := ParseString(text, Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if c.NumGates() != orig.NumGates() {
		t.Fatalf("gate count changed: %d vs %d", c.NumGates(), orig.NumGates())
	}
	// Same delays and same function on sampled vectors.
	k := len(orig.PrimaryInputs())
	if k != len(c.PrimaryInputs()) {
		t.Fatal("PI count changed")
	}
	// Map PI order by name.
	for trial := 0; trial < 64; trial++ {
		bits := trial * 2654435761 % (1 << k)
		vOrig := make(sim.Vector, k)
		byName := map[string]int{}
		for i, pi := range orig.PrimaryInputs() {
			vOrig[i] = (bits >> i) & 1
			byName[orig.Net(pi).Name] = vOrig[i]
		}
		vNew := make(sim.Vector, k)
		for i, pi := range c.PrimaryInputs() {
			vNew[i] = byName[c.Net(pi).Name]
		}
		a, err := sim.Run(orig, vOrig)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Run(c, vNew)
		if err != nil {
			t.Fatal(err)
		}
		for _, po := range orig.PrimaryOutputs() {
			name := orig.Net(po).Name
			pn, _ := c.NetByName(name)
			if a.Value[po] != b.Value[pn] || a.Settle[po] != b.Settle[pn] {
				t.Fatalf("round trip differs on %s (vector %d)", name, bits)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`module m; input a; flipflop f (q, a); endmodule`, "unsupported construct"},
		{`module m (a); input a;`, "missing endmodule"},
		{`module m; nand #x (z, a); endmodule`, "bad delay"},
		{`module m; input a,; endmodule`, "expected identifier"},
		{`module m; /* unterminated`, "unterminated block comment"},
		{`module m; nand (z); endmodule`, "at least one input"},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.src, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("src %q: err %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestWriteDeclaresWires(t *testing.T) {
	text := String(gen.C17(10))
	if !strings.Contains(text, "wire G10;") && !strings.Contains(text, "wire G10") {
		t.Fatalf("internal nets must be declared:\n%s", text)
	}
	if !strings.Contains(text, "module c17") {
		t.Fatalf("module name lost:\n%s", text)
	}
}
