package scoap

import (
	"testing"

	"repro/internal/circuit"
)

func mustBuild(t testing.TB, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(src, circuit.BenchOptions{DefaultDelay: 1})
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

func TestPrimaryInputCosts(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
z = BUFF(a)
`)
	cc := Compute(c)
	a := id(t, c, "a")
	if cc.CC0[a] != 1 || cc.CC1[a] != 1 {
		t.Fatal("PI cost must be 1/1")
	}
	z := id(t, c, "z")
	if cc.CC0[z] != 2 || cc.CC1[z] != 2 {
		t.Fatalf("buffer cost = %d/%d, want 2/2", cc.CC0[z], cc.CC1[z])
	}
}

func TestAndOrCosts(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(x)
OUTPUT(y)
x = AND(a, b)
y = OR(a, b)
`)
	cc := Compute(c)
	x, y := id(t, c, "x"), id(t, c, "y")
	// AND: CC1 = 1+1+1 = 3, CC0 = min(1,1)+1 = 2.
	if cc.CC1[x] != 3 || cc.CC0[x] != 2 {
		t.Fatalf("AND = %d/%d, want CC0=2 CC1=3", cc.CC0[x], cc.CC1[x])
	}
	// OR: CC0 = 3, CC1 = 2.
	if cc.CC0[y] != 3 || cc.CC1[y] != 2 {
		t.Fatalf("OR = %d/%d, want CC0=3 CC1=2", cc.CC0[y], cc.CC1[y])
	}
}

func TestInvertingGates(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(x)
OUTPUT(y)
OUTPUT(n)
x = NAND(a, b)
y = NOR(a, b)
n = NOT(a)
`)
	cc := Compute(c)
	if cc.CC0[id(t, c, "x")] != 3 || cc.CC1[id(t, c, "x")] != 2 {
		t.Fatal("NAND costs wrong")
	}
	if cc.CC1[id(t, c, "y")] != 3 || cc.CC0[id(t, c, "y")] != 2 {
		t.Fatal("NOR costs wrong")
	}
	if cc.CC0[id(t, c, "n")] != 2 || cc.CC1[id(t, c, "n")] != 2 {
		t.Fatal("NOT costs wrong")
	}
}

func TestXorCosts(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(x)
x = XOR(a, b)
`)
	cc := Compute(c)
	x := id(t, c, "x")
	// XOR2: CC0 = min(1+1, 1+1)+1 = 3; CC1 = min(1+1, 1+1)+1 = 3.
	if cc.CC0[x] != 3 || cc.CC1[x] != 3 {
		t.Fatalf("XOR = %d/%d, want 3/3", cc.CC0[x], cc.CC1[x])
	}
}

func TestDeepCostGrowth(t *testing.T) {
	// Controllability must grow monotonically along an AND chain's CC1.
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
INPUT(cc)
INPUT(d)
OUTPUT(z)
n1 = AND(a, b)
n2 = AND(n1, cc)
z = AND(n2, d)
`)
	cc := Compute(c)
	n1, n2, z := id(t, c, "n1"), id(t, c, "n2"), id(t, c, "z")
	if !(cc.CC1[n1] < cc.CC1[n2] && cc.CC1[n2] < cc.CC1[z]) {
		t.Fatal("CC1 must grow along the AND chain")
	}
	if cc.CC0[z] != cc.CC0[n2]+1 && cc.CC0[z] != 2 {
		// CC0 via the cheapest controlling input: d costs 1, +1 = 2.
		t.Fatalf("CC0(z) = %d", cc.CC0[z])
	}
}

func TestCostAccessor(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
z = NOT(a)
`)
	cc := Compute(c)
	z := id(t, c, "z")
	if cc.Cost(z, 0) != cc.CC0[z] || cc.Cost(z, 1) != cc.CC1[z] {
		t.Fatal("Cost accessor wrong")
	}
}
