package learn

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/oracle"
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

func id(t testing.TB, c *circuit.Circuit, name string) circuit.NetID {
	t.Helper()
	n, ok := c.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return n
}

func hasImp(t *Table, from circuit.NetID, fv int, to circuit.NetID, tv int) bool {
	for _, a := range t.imp[key(from, fv)] {
		if a.Net == to && a.Val == tv {
			return true
		}
	}
	return false
}

func TestDirectImplications(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`, 1)
	tab := Precompute(c)
	a, b, z := id(t, c, "a"), id(t, c, "b"), id(t, c, "z")
	// a=0 ⇒ z=0; z=1 ⇒ a=1, b=1.
	if !hasImp(tab, a, 0, z, 0) {
		t.Error("a=0 ⇒ z=0 missing")
	}
	if !hasImp(tab, z, 1, a, 1) || !hasImp(tab, z, 1, b, 1) {
		t.Error("z=1 ⇒ inputs=1 missing")
	}
	// Contrapositive of a=0 ⇒ z=0 is z=1 ⇒ a=1 (already direct); the
	// interesting one: a=1 alone implies nothing about z.
	if hasImp(tab, a, 1, z, 0) || hasImp(tab, a, 1, z, 1) {
		t.Error("a=1 must not determine z")
	}
}

func TestLearnedNonLocalImplication(t *testing.T) {
	// The SOCRATES classic: z = OR(AND(a,b), AND(a,c)) — z=1 implies
	// a=1, but only via learning (no single direct rule yields it...
	// the contrapositive a=0 ⇒ z=0 is direct, and its reverse is the
	// learned implication).
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
p = AND(a, b)
q = AND(a, c)
z = OR(p, q)
`, 1)
	tab := Precompute(c)
	a, z := id(t, c, "a"), id(t, c, "z")
	if !hasImp(tab, z, 1, a, 1) {
		t.Error("learned z=1 ⇒ a=1 missing (contrapositive of a=0 ⇒ z=0)")
	}
}

func TestImpossibleValue(t *testing.T) {
	// z = AND(a, NOT(a)) is constant 0: assuming z=1 must conflict.
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
na = NOT(a)
z = AND(a, na)
`, 1)
	tab := Precompute(c)
	z := id(t, c, "z")
	if !tab.impossible[key(z, 1)] {
		t.Error("z=1 must be impossible")
	}
	if tab.impossible[key(z, 0)] {
		t.Error("z=0 must be possible")
	}
}

func TestApplyNarrowsDomains(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
INPUT(cc)
OUTPUT(z)
p = AND(a, b)
q = AND(a, cc)
z = OR(p, q)
`, 10)
	tab := Precompute(c)
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()
	// Force z to settle 1; learning must then force a to settle 1.
	sys.Narrow(id(t, c, "z"), waveform.SettledTo(1))
	sys.Fixpoint()
	var cur Cursor
	changed := tab.Apply(sys, &cur)
	if !changed {
		t.Fatal("learning must narrow something")
	}
	da := sys.Domain(id(t, c, "a"))
	if v, ok := da.KnownValue(); !ok || v != 1 {
		t.Fatalf("a = %s, want settled 1", da)
	}
	if !sys.Fixpoint() {
		t.Fatal("system must stay consistent")
	}
	// Idempotence.
	if tab.Apply(sys, &cur) {
		t.Fatal("second Apply must be a no-op")
	}
}

func TestApplyRemovesImpossibleClasses(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
na = NOT(a)
z = AND(a, na)
`, 10)
	tab := Precompute(c)
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()
	tab.Apply(sys, new(Cursor))
	sys.Fixpoint()
	dz := sys.Domain(id(t, c, "z"))
	if !dz.W1.IsEmpty() {
		t.Fatalf("z class 1 must be removed, got %s", dz)
	}
	if dz.W0.IsEmpty() {
		t.Fatal("z class 0 must survive")
	}
}

// TestLearningSoundness: every learned implication must hold in every
// zero-delay evaluation of the circuit.
func TestLearningSoundness(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z1)
OUTPUT(z2)
p = NAND(a, b)
q = NOR(c, d)
r = XOR(p, q)
s = AND(p, q, a)
z1 = OR(r, s)
z2 = XNOR(r, b)
`
	c := mustBuild(t, src, 1)
	tab := Precompute(c)
	k := len(c.PrimaryInputs())
	for bits := 0; bits < 1<<k; bits++ {
		v := make(sim.Vector, k)
		for i := range v {
			v[i] = (bits >> i) & 1
		}
		vals, err := oracle.Logic(c, v)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < c.NumNets(); n++ {
			nid := circuit.NetID(n)
			val := vals[n]
			if tab.impossible[key(nid, val)] {
				t.Fatalf("net %s=%d marked impossible but realised by %s", c.Net(nid).Name, val, v)
			}
			for _, a := range tab.imp[key(nid, val)] {
				if vals[a.Net] != a.Val {
					t.Fatalf("implication %s=%d ⇒ %s=%d violated by vector %s",
						c.Net(nid).Name, val, c.Net(a.Net).Name, a.Val, v)
				}
			}
		}
	}
	if tab.Implications == 0 {
		t.Fatal("expected some learned implications")
	}
}
