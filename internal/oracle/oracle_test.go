package oracle

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/waveform"
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

func TestLogic(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	vals, err := Logic(c, sim.Vector{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if vals[id(t, c, "z")] != 1 {
		t.Fatal("logic value wrong")
	}
}

func TestCircuitFloatingDelayExhaustive(t *testing.T) {
	c := mustBuild(t, andOr, 10)
	d, err := CircuitFloatingDelayExhaustive(c)
	if err != nil {
		t.Fatal(err)
	}
	if d != 20 {
		t.Fatalf("circuit floating delay = %s, want 20", d)
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

func TestRunMatchesXSim(t *testing.T) {
	// Property: the settle recursion equals the last differing time of
	// the concrete three-valued unrolled simulation, for every net and
	// every vector, on many random circuits.
	for seed := int64(0); seed < 30; seed++ {
		c := randomCircuit(t, seed, 4, 12)
		horizon := waveform.Time(0)
		for i := 0; i < c.NumGates(); i++ {
			horizon = horizon.Add(waveform.Time(c.Gate(circuit.GateID(i)).Delay))
		}
		for bits := 0; bits < 16; bits++ {
			v := sim.Vector{bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1}
			r, err := sim.Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			x, err := RunX(c, v, horizon.Add(1))
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < c.NumNets(); n++ {
				nid := circuit.NetID(n)
				if r.Value[n] != x.Final[n] {
					t.Fatalf("seed %d vector %s: final value of %s differs", seed, v, c.Net(nid).Name)
				}
				want := x.LastDiff(nid)
				if want == waveform.NegInf {
					// The recursion never reports -inf (it reports the
					// lock time); nets identical-from-t=0 can only be
					// PIs... which are X at t=0, so this cannot happen.
					t.Fatalf("seed %d: net %s never differs, unexpected", seed, c.Net(nid).Name)
				}
				if r.Settle[n] != want {
					t.Fatalf("seed %d vector %s net %s: recursion %s, x-sim %s",
						seed, v, c.Net(nid).Name, r.Settle[n], want)
				}
			}
		}
	}
}

func TestRunXInputConvention(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
z = BUFF(a)
`
	c := mustBuild(t, src, 5)
	x, err := RunX(c, sim.Vector{1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	a := id(t, c, "a")
	z := id(t, c, "z")
	if x.Wave[a][0] != LX || x.Wave[a][1] != L1 {
		t.Fatal("PI must be X at t=0 and settled at t=1")
	}
	if x.LastDiff(a) != 0 {
		t.Fatal("PI last diff must be 0")
	}
	if x.LastDiff(z) != 5 {
		t.Fatalf("buffer last diff = %s, want 5", x.LastDiff(z))
	}
}

func TestEval3(t *testing.T) {
	type tc struct {
		g    circuit.GateType
		in   []uint8
		want uint8
	}
	cases := []tc{
		{circuit.AND, []uint8{L0, LX}, L0},
		{circuit.AND, []uint8{L1, LX}, LX},
		{circuit.NAND, []uint8{L0, LX}, L1},
		{circuit.OR, []uint8{L1, LX}, L1},
		{circuit.OR, []uint8{L0, LX}, LX},
		{circuit.NOR, []uint8{L1, LX}, L0},
		{circuit.NOT, []uint8{LX}, LX},
		{circuit.NOT, []uint8{L0}, L1},
		{circuit.XOR, []uint8{L1, LX}, LX},
		{circuit.XOR, []uint8{L1, L1}, L0},
		{circuit.XNOR, []uint8{L1, L0}, L0},
		{circuit.BUFFER, []uint8{LX}, LX},
	}
	for _, c := range cases {
		if got := eval3(c.g, c.in); got != c.want {
			t.Errorf("eval3(%s, %v) = %d, want %d", c.g, c.in, got, c.want)
		}
	}
}

func TestTransitiveFanout(t *testing.T) {
	c := gen.C17(10)
	fo := TransitiveFanout(c, id(t, c, "G11"))
	for _, name := range []string{"G11", "G16", "G19", "G22", "G23"} {
		if !fo[id(t, c, name)] {
			t.Errorf("%s must be in fanout of G11", name)
		}
	}
	for _, name := range []string{"G1", "G3", "G10"} {
		if fo[id(t, c, name)] {
			t.Errorf("%s must not be in fanout of G11", name)
		}
	}
}
