package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

func mustBuild(t testing.TB, src string, d int64) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(src, circuit.BenchOptions{DefaultDelay: d})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const andOr = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
x = AND(a, b)
z = OR(x, c)
`

func id(t testing.TB, c *circuit.Circuit, name string) circuit.NetID {
	t.Helper()
	n, ok := c.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return n
}

func TestRunValues(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	r, err := Run(c, Vector{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value[id(t, c, "x")] != 1 || r.Value[id(t, c, "z")] != 1 {
		t.Fatal("values wrong")
	}
	r, _ = Run(c, Vector{0, 1, 0})
	if r.Value[id(t, c, "z")] != 0 {
		t.Fatal("value wrong")
	}
}

func TestRunSettleControlling(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	// a=1,b=1,c=0: x settles via max rule at 10; z final 1 with no
	// controlling-1 input stable... c=0 is non-controlling for OR, x=1
	// IS controlling for OR: z locks once x locks: 10+10=20.
	r, _ := Run(c, Vector{1, 1, 0})
	if got := r.Settle[id(t, c, "x")]; got != 10 {
		t.Fatalf("x settle = %s", got)
	}
	if got := r.Settle[id(t, c, "z")]; got != 20 {
		t.Fatalf("z settle = %s", got)
	}
	// a=0: x final 0 locks at 10 (a controls); z final 0: no controlling
	// input, max rule: 10+10=20.
	r, _ = Run(c, Vector{0, 1, 0})
	if got := r.Settle[id(t, c, "x")]; got != 10 {
		t.Fatalf("x settle = %s", got)
	}
	if got := r.Settle[id(t, c, "z")]; got != 20 {
		t.Fatalf("z settle = %s", got)
	}
}

func TestRunControllingShortCircuit(t *testing.T) {
	// A controlling-final side input must cap the settle time of a long
	// path: z = AND(slowpath, b) with b=0 locks z early.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = BUFF(n1)
n3 = BUFF(n2)
z = AND(n3, b)
`
	c := mustBuild(t, src, 10)
	r, _ := Run(c, Vector{1, 0})
	// b=0 controls the AND: z locks at 0+10, despite n3 locking at 30.
	if got := r.Settle[id(t, c, "z")]; got != 10 {
		t.Fatalf("z settle = %s, want 10", got)
	}
	r, _ = Run(c, Vector{1, 1})
	if got := r.Settle[id(t, c, "z")]; got != 40 {
		t.Fatalf("z settle = %s, want 40", got)
	}
}

func TestRunErrors(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	if _, err := Run(c, Vector{1, 1}); err == nil {
		t.Fatal("short vector must error")
	}
	if _, err := Run(c, Vector{1, 2, 0}); err == nil {
		t.Fatal("non-binary bit must error")
	}
}

func TestViolates(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	r, _ := Run(c, Vector{1, 1, 0})
	z := id(t, c, "z")
	if !r.Violates(z, 20) {
		t.Fatal("settle 20 must violate δ=20")
	}
	if r.Violates(z, 21) {
		t.Fatal("settle 20 must not violate δ=21")
	}
}

func TestVectorString(t *testing.T) {
	if (Vector{1, 0, 1}).String() != "101" {
		t.Fatal("vector string wrong")
	}
}

func TestFloatingDelayExhaustive(t *testing.T) {
	// The classic false-path pattern: z = MUX-ish structure where the
	// long path cannot be sensitised.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = BUFF(n1)
n3 = AND(n2, b)
nb = NOT(b)
n4 = AND(a, nb)
z = OR(n3, n4)
`
	c := mustBuild(t, src, 10)
	z := id(t, c, "z")
	d, v, err := FloatingDelayExhaustive(c, z)
	if err != nil {
		t.Fatal(err)
	}
	// Longest topological path: a→n1→n2→n3→z = 40.
	// b=1: n4 path dead but n3 path live: settle(n3)=min? b ctrl-final
	// when b=0. With a=1,b=1: n3 = AND(n2,b): final 1: max rule:
	// max(30,0)+10=40 → z=OR: n3 ctrl-final(1): min(40, ...)→ 40+10=50?
	// z's delay adds 10: z = 50 with topological 50. So the check is
	// simply that the oracle agrees with per-vector Run.
	r, _ := Run(c, v)
	if r.Settle[z] != d {
		t.Fatalf("oracle/vector mismatch: %s vs %s", r.Settle[z], d)
	}
	// And d must be the max over all vectors.
	k := len(c.PrimaryInputs())
	for bits := 0; bits < 1<<k; bits++ {
		vv := make(Vector, k)
		for i := range vv {
			vv[i] = (bits >> i) & 1
		}
		rr, _ := Run(c, vv)
		if rr.Settle[z] > d {
			t.Fatalf("vector %s beats the oracle", vv)
		}
	}
}

// randomCircuit builds a seeded random DAG netlist for cross-validation
// tests.
func randomCircuit(t testing.TB, seed int64, nPI, nGates int) *circuit.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("rand")
	var nets []string
	for i := 0; i < nPI; i++ {
		n := string(rune('a' + i))
		b.Input(n)
		nets = append(nets, n)
	}
	types := []circuit.GateType{circuit.AND, circuit.NAND, circuit.OR, circuit.NOR, circuit.NOT, circuit.BUFFER, circuit.XOR, circuit.XNOR}
	for i := 0; i < nGates; i++ {
		gt := types[r.Intn(len(types))]
		name := "g" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		nin := 1
		if !gt.Unate() {
			nin = 2 + r.Intn(2)
		}
		ins := make([]string, nin)
		for j := range ins {
			ins[j] = nets[r.Intn(len(nets))]
		}
		b.Gate(gt, int64(1+r.Intn(4)), name, ins...)
		nets = append(nets, name)
	}
	b.Output(nets[len(nets)-1])
	b.Output(nets[len(nets)-2])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
