package gen

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// vecFor builds a sim.Vector assigning named PIs from the map (missing
// PIs get 0).
func vecFor(c *circuit.Circuit, m map[string]int) sim.Vector {
	v := make(sim.Vector, len(c.PrimaryInputs()))
	for i, pi := range c.PrimaryInputs() {
		v[i] = m[c.Net(pi).Name]
	}
	return v
}

func outVal(t *testing.T, c *circuit.Circuit, vals []int, name string) int {
	t.Helper()
	id, ok := c.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return vals[id]
}

func TestHrapcenkoShape(t *testing.T) {
	c := Hrapcenko(10)
	if c.NumGates() != 8 || len(c.PrimaryInputs()) != 7 || len(c.PrimaryOutputs()) != 1 {
		t.Fatalf("shape wrong: %+v", c.Stats())
	}
	a := delay.New(c)
	if a.Topological() != 70 {
		t.Fatalf("top = %s, want 70", a.Topological())
	}
}

func TestHrapcenkoFloatingDelay(t *testing.T) {
	// The defining property of Figure 1: floating delay 60 < top 70.
	c := Hrapcenko(10)
	s, _ := c.NetByName("s")
	d, v, err := sim.FloatingDelayExhaustive(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if d != 60 {
		t.Fatalf("floating delay = %s, want 60 (witness %s)", d, v)
	}
}

func TestFalsePathChain(t *testing.T) {
	c := FalsePathChain(3, 10)
	a := delay.New(c)
	// Each block adds 70 topologically (block k's s feeds block k+1's
	// n1 chain of 7 gates).
	if a.Topological() != 210 {
		t.Fatalf("top = %s, want 210", a.Topological())
	}
	if len(c.PrimaryOutputs()) != 1 {
		t.Fatal("one output expected")
	}
	// FalsePathChain(1) must behave like Hrapcenko.
	c1 := FalsePathChain(1, 10)
	s, _ := c1.NetByName("s")
	d, _, err := sim.FloatingDelayExhaustive(c1, s)
	if err != nil {
		t.Fatal(err)
	}
	if d != 60 {
		t.Fatalf("chain(1) floating delay = %s, want 60", d)
	}
}

func TestRippleCarryAdderFunction(t *testing.T) {
	const n = 4
	c := RippleCarryAdder(n, 10)
	for a := 0; a < 1<<n; a++ {
		for x := 0; x < 1<<n; x++ {
			for cin := 0; cin <= 1; cin++ {
				m := map[string]int{"cin": cin}
				for i := 0; i < n; i++ {
					m[fmt.Sprintf("a%d", i)] = (a >> i) & 1
					m[fmt.Sprintf("b%d", i)] = (x >> i) & 1
				}
				vals, err := oracle.Logic(c, vecFor(c, m))
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for i := 0; i < n; i++ {
					got |= outVal(t, c, vals, fmt.Sprintf("fa%d_s", i)) << i
				}
				got |= outVal(t, c, vals, "cout") << n
				if got != a+x+cin {
					t.Fatalf("RCA(%d+%d+%d) = %d", a, x, cin, got)
				}
			}
		}
	}
}

func TestCarrySkipAdderFunction(t *testing.T) {
	const n = 6
	c := CarrySkipAdder(n, 3, 10)
	for trial := 0; trial < 200; trial++ {
		a := (trial * 37) % (1 << n)
		x := (trial * 53) % (1 << n)
		cin := trial % 2
		m := map[string]int{"cin": cin}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("a%d", i)] = (a >> i) & 1
			m[fmt.Sprintf("b%d", i)] = (x >> i) & 1
		}
		vals, err := oracle.Logic(c, vecFor(c, m))
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for i := 0; i < n; i++ {
			got |= outVal(t, c, vals, fmt.Sprintf("fa%d_s", i)) << i
		}
		got |= outVal(t, c, vals, "cout") << n
		if got != a+x+cin {
			t.Fatalf("CSA(%d+%d+%d) = %d", a, x, cin, got)
		}
	}
}

func TestCarrySkipAdderFalsePath(t *testing.T) {
	// The whole point of the carry-skip structure: the floating delay
	// of the carry output is strictly below its topological delay.
	c := CarrySkipAdder(6, 3, 10)
	cout, _ := c.NetByName("cout")
	a := delay.New(c)
	fd, _, err := sim.FloatingDelayExhaustive(c, cout)
	if err != nil {
		t.Fatal(err)
	}
	if fd >= a.Arrival(cout) {
		t.Fatalf("carry-skip false path missing: floating %s vs top %s", fd, a.Arrival(cout))
	}
}

func TestArrayMultiplierFunction(t *testing.T) {
	const n = 4
	c := ArrayMultiplier(n, 10)
	for a := 0; a < 1<<n; a++ {
		for x := 0; x < 1<<n; x++ {
			m := map[string]int{}
			for i := 0; i < n; i++ {
				m[fmt.Sprintf("a%d", i)] = (a >> i) & 1
				m[fmt.Sprintf("b%d", i)] = (x >> i) & 1
			}
			vals, err := oracle.Logic(c, vecFor(c, m))
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for w := 0; w < 2*n; w++ {
				got |= outVal(t, c, vals, fmt.Sprintf("p%d", w)) << w
			}
			if got != a*x {
				t.Fatalf("mult(%d×%d) = %d", a, x, got)
			}
		}
	}
}

func TestC17Shape(t *testing.T) {
	c := C17(10)
	if c.NumGates() != 6 || len(c.PrimaryInputs()) != 5 || len(c.PrimaryOutputs()) != 2 {
		t.Fatalf("c17 shape wrong: %+v", c.Stats())
	}
	a := delay.New(c)
	if a.Topological() != 30 {
		t.Fatalf("c17 top = %s (delay 10 per gate, 3 levels)", a.Topological())
	}
}

func TestParityTreeFunction(t *testing.T) {
	c := ParityTree(5, 10)
	for bits := 0; bits < 32; bits++ {
		m := map[string]int{}
		p := 0
		for i := 0; i < 5; i++ {
			v := (bits >> i) & 1
			m[fmt.Sprintf("x%d", i)] = v
			p ^= v
		}
		vals, err := oracle.Logic(c, vecFor(c, m))
		if err != nil {
			t.Fatal(err)
		}
		if outVal(t, c, vals, "z") != p {
			t.Fatalf("parity(%05b) wrong", bits)
		}
	}
}

func TestComparatorFunction(t *testing.T) {
	c := Comparator(4, 10)
	for a := 0; a < 16; a++ {
		for x := 0; x < 16; x++ {
			m := map[string]int{}
			for i := 0; i < 4; i++ {
				m[fmt.Sprintf("a%d", i)] = (a >> i) & 1
				m[fmt.Sprintf("b%d", i)] = (x >> i) & 1
			}
			vals, err := oracle.Logic(c, vecFor(c, m))
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if a == x {
				want = 1
			}
			if outVal(t, c, vals, "eq") != want {
				t.Fatalf("cmp(%d,%d) wrong", a, x)
			}
		}
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := Random(42, 6, 30, 5)
	b := Random(42, 6, 30, 5)
	if circuit.BenchString(a) != circuit.BenchString(b) {
		t.Fatal("Random must be deterministic per seed")
	}
	c := Random(43, 6, 30, 5)
	if circuit.BenchString(a) == circuit.BenchString(c) {
		t.Fatal("different seeds must differ")
	}
}

func TestSubstituteSuite(t *testing.T) {
	entries := SubstituteSuite()
	if len(entries) != 11 {
		t.Fatalf("suite has %d entries, want 11 (c17 + 10 substitutes)", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Name] {
			t.Fatalf("duplicate suite entry %s", e.Name)
		}
		seen[e.Name] = true
		if e.Circuit.NumGates() == 0 {
			t.Fatalf("%s is empty", e.Name)
		}
		if e.Name != "c17" {
			if !e.Substituted {
				t.Fatalf("%s must be marked substituted", e.Name)
			}
			// Everything but c17 is NOR-mapped with delay 10.
			for i := 0; i < e.Circuit.NumGates(); i++ {
				g := e.Circuit.Gate(circuit.GateID(i))
				if g.Type != circuit.NOR || g.Delay != 10 {
					t.Fatalf("%s gate %d is %s d=%d, want NOR d=10", e.Name, i, g.Type, g.Delay)
				}
			}
		}
	}
	// Paper rows present for the classic names.
	for _, n := range []string{"c17", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"} {
		if n == "c17" {
			continue
		}
		if !seen[n] {
			t.Errorf("suite missing %s", n)
		}
	}
}

func TestSuiteSizesReasonable(t *testing.T) {
	for _, e := range SubstituteSuite() {
		st := e.Circuit.Stats()
		if e.Name == "c17" {
			continue
		}
		if st.Gates < 50 {
			t.Errorf("%s has only %d gates — too small to exercise the stages", e.Name, st.Gates)
		}
		if st.Levels < 8 {
			t.Errorf("%s has only %d levels — too shallow", e.Name, st.Levels)
		}
	}
}
