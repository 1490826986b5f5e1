package circuit

import (
	"strings"
	"testing"
)

const c17Bench = `
# c17 — the classic 6-NAND benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func TestReadBench(t *testing.T) {
	c, err := ParseBenchString(c17Bench, BenchOptions{DefaultDelay: 10, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 6 || len(c.PrimaryInputs()) != 5 || len(c.PrimaryOutputs()) != 2 {
		t.Fatalf("parsed shape wrong: %+v", c.Stats())
	}
	for i := 0; i < c.NumGates(); i++ {
		if c.Gate(GateID(i)).Delay != 10 {
			t.Fatal("default delay not applied")
		}
		if c.Gate(GateID(i)).Type != NAND {
			t.Fatal("gate type wrong")
		}
	}
}

func TestReadBenchDelayDirective(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
x = AND(a, b) # !delay=42
z = NOT(x)    # ordinary comment
`
	c, err := ParseBenchString(src, BenchOptions{DefaultDelay: 7})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := c.NetByName("x")
	z, _ := c.NetByName("z")
	if d := c.Gate(c.Net(x).Driver).Delay; d != 42 {
		t.Fatalf("x delay = %d, want 42", d)
	}
	if d := c.Gate(c.Net(z).Driver).Delay; d != 7 {
		t.Fatalf("z delay = %d, want 7 (default)", d)
	}
}

func TestReadBenchErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n", "unknown gate type"},
		{"INPUT(a)\nOUTPUT(z)\nz NOT(a)\n", "expected assignment"},
		{"INPUT(a)\nOUTPUT(z)\nz = NOT a\n", "malformed gate"},
		{"INPUT(a)\nOUTPUT(z)\nz = NOT(a,)\n", "empty input name"},
		{"INPUT(a)\nOUTPUT(z)\nz = NOT(a) # !delay=xyz\n", "bad !delay"},
	}
	for _, c := range cases {
		_, err := ParseBenchString(c.src, BenchOptions{})
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("src %q: err = %v, want containing %q", c.src, err, c.wantSub)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c, err := ParseBenchString(c17Bench, BenchOptions{DefaultDelay: 10, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	out := BenchString(c)
	c2, err := ParseBenchString(out, BenchOptions{DefaultDelay: 1, Name: "c17"})
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if c2.NumGates() != c.NumGates() || c2.NumNets() != c.NumNets() {
		t.Fatal("round trip changed shape")
	}
	// Delays must round-trip through the !delay directive despite the
	// different default.
	for i := 0; i < c2.NumGates(); i++ {
		if c2.Gate(GateID(i)).Delay != 10 {
			t.Fatal("delay did not round-trip")
		}
	}
	// Functional equivalence over all 32 input vectors.
	pis := []string{"G1", "G2", "G3", "G6", "G7"}
	for v := 0; v < 32; v++ {
		asg := map[string]int{}
		for i, p := range pis {
			asg[p] = (v >> i) & 1
		}
		for _, o := range []string{"G22", "G23"} {
			if evalNet(c, o, asg) != evalNet(c2, o, asg) {
				t.Fatalf("vector %d differs on %s", v, o)
			}
		}
	}
}

func TestMapToNORPreservesFunction(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z1)
OUTPUT(z2)
OUTPUT(z3)
t1 = AND(a, b)
t2 = OR(b, c)
t3 = XOR(a, c)
t4 = NAND(t1, t2)
t5 = XNOR(t3, b)
z1 = NOR(t4, t5)
z2 = NOT(t3)
z3 = BUFF(t1)
`
	c, err := ParseBenchString(src, BenchOptions{DefaultDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := MapToNOR(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Everything must be a NOR with delay 10.
	for i := 0; i < n.NumGates(); i++ {
		g := n.Gate(GateID(i))
		if g.Type != NOR {
			t.Fatalf("gate %d is %s, want NOR", i, g.Type)
		}
		if g.Delay != 10 {
			t.Fatalf("gate %d delay = %d", i, g.Delay)
		}
	}
	for v := 0; v < 8; v++ {
		asg := map[string]int{"a": v & 1, "b": (v >> 1) & 1, "c": (v >> 2) & 1}
		for _, o := range []string{"z1", "z2", "z3"} {
			if evalNet(c, o, asg) != evalNet(n, o, asg) {
				t.Fatalf("NOR mapping changed %s on vector %d", o, v)
			}
		}
	}
}

func TestMapToNORWideXor(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(p)
OUTPUT(q)
p = XOR(a, b, c, d)
q = XNOR(a, b, c)
`
	c, err := ParseBenchString(src, BenchOptions{DefaultDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := MapToNOR(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		asg := map[string]int{"a": v & 1, "b": (v >> 1) & 1, "c": (v >> 2) & 1, "d": (v >> 3) & 1}
		for _, o := range []string{"p", "q"} {
			if evalNet(c, o, asg) != evalNet(n, o, asg) {
				t.Fatalf("wide parity mapping changed %s on vector %d", o, v)
			}
		}
	}
}
