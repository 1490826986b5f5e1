package dom

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
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

func names(c *circuit.Circuit, nets []circuit.NetID) []string {
	out := make([]string, len(nets))
	for i, n := range nets {
		out[i] = c.Net(n).Name
	}
	return out
}

// chain: a → n1 → n2 → z, with a short side path b → z.
const chain = `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = NOT(n1)
z = AND(n2, b)
`

func TestStaticDominatorsChain(t *testing.T) {
	c := mustBuild(t, chain, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	// δ=30: only the full chain qualifies; every chain net dominates.
	d := Static(c, a, z, 30)
	got := names(c, d.Nets)
	want := []string{"z", "n2", "n1", "a"}
	if len(got) != len(want) {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dominators = %v, want %v", got, want)
		}
	}
	// Distances are the topological delays to the sink.
	wantDist := []waveform.Time{0, 10, 20, 30}
	for i := range wantDist {
		if d.Dist[i] != wantDist[i] {
			t.Fatalf("dist = %v, want %v", d.Dist, wantDist)
		}
	}
}

func TestStaticDominatorsDiamond(t *testing.T) {
	// Two equal-length branches: only the fork and join dominate.
	src := `
INPUT(a)
OUTPUT(z)
p = BUFF(a)
q = NOT(p)
r = BUFF(p)
z = AND(q, r)
`
	c := mustBuild(t, src, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	d := Static(c, a, z, 30)
	got := names(c, d.Nets)
	want := []string{"z", "p", "a"}
	if len(got) != len(want) {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dominators = %v, want %v", got, want)
		}
	}
}

func TestStaticDominatorsNoCarrier(t *testing.T) {
	c := mustBuild(t, chain, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	d := Static(c, a, z, 99)
	if len(d.Nets) != 0 {
		t.Fatalf("no dominators expected beyond top, got %v", names(c, d.Nets))
	}
}

func TestStaticCarriersExposed(t *testing.T) {
	c := mustBuild(t, chain, 10)
	a := delay.New(c)
	z := id(t, c, "z")
	mask := delay.StaticCarrierMask(c, a, z, 30)
	if !mask[id(t, c, "a")] || mask[id(t, c, "b")] {
		t.Fatal("carrier mask wrong")
	}
}

func TestDynamicCarriersRespectDomains(t *testing.T) {
	c := mustBuild(t, chain, 10)
	z := id(t, c, "z")
	sys := constraint.New(c)
	sys.Narrow(z, waveform.CheckOutput(30))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("δ=30 must stay consistent")
	}
	mask, dist := DynamicCarriers(sys, z, 30)
	// b's domain was narrowed to class 1 with Lmax 0; a transition at
	// or after δ−10 = 20 is impossible on b, so b is not a carrier.
	if mask[id(t, c, "b")] {
		t.Fatal("b must not be a dynamic carrier")
	}
	for _, n := range []string{"z", "n2", "n1", "a"} {
		if !mask[id(t, c, n)] {
			t.Fatalf("%s must be a dynamic carrier", n)
		}
	}
	if dist[id(t, c, "a")] != 30 || dist[id(t, c, "n2")] != 10 {
		t.Fatalf("dynamic distances wrong: a=%s n2=%s", dist[id(t, c, "a")], dist[id(t, c, "n2")])
	}
}

func TestDynamicDominatorsAndNarrowing(t *testing.T) {
	// Reconvergent structure where one branch is too slow to carry the
	// violation: the join inputs disambiguate only via dominators.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
p = BUFF(a)
q = BUFF(p)
r = BUFF(q)
s = BUFF(r)
z = AND(s, b)
`
	c := mustBuild(t, src, 10)
	z := id(t, c, "z")
	sys := constraint.New(c)
	sys.Narrow(z, waveform.CheckOutput(50))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("must be consistent")
	}
	doms := Dynamic(sys, z, 50)
	got := names(c, doms.Nets)
	want := []string{"z", "s", "r", "q", "p", "a"}
	if len(got) != len(want) {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dominators = %v, want %v", got, want)
		}
	}
	changed := NarrowDominators(sys, doms, 50)
	// The chain was already fully narrowed by plain propagation here,
	// so dominator narrowing may or may not change domains; it must at
	// least keep the system consistent.
	_ = changed
	if !sys.Fixpoint() {
		t.Fatal("dominator narrowing must preserve consistency")
	}
	// a must now be pinned to a transition at time exactly 0.
	da := sys.Domain(id(t, c, "a"))
	if da.W0.Lmin != 0 || da.W1.Lmin != 0 {
		t.Fatalf("a = %s, want Lmin 0 on both classes", da)
	}
}

// TestDynamicDominatorCarrySkip reproduces the paper's carry-skip
// situation (Figures 2–3) in miniature: a long ripple path and a short
// skip path reconverge at a NAND; beyond the reconvergence the chain
// continues through X to the output. The last-transition interval
// propagates from the output to X but cannot cross the ambiguous NAND
// by local reasoning alone; the dynamic dominator on the ripple input
// C2 recovers the implication.
func TestDynamicDominatorCarrySkip(t *testing.T) {
	src := `
INPUT(c2)
INPUT(sel)
OUTPUT(c7)
r1 = BUFF(c2)
r2 = BUFF(r1)
r3 = BUFF(r2)
n = NAND(r3, sel)
p = NAND(c2, sel)
x = NAND(n, p)
c7 = BUFF(x)
`
	c := mustBuild(t, src, 10)
	c7 := id(t, c, "c7")
	sys := constraint.New(c)
	// Longest path: c2→r1→r2→r3→n→x→c7 = 60.
	sys.Narrow(c7, waveform.CheckOutput(60))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("must be consistent")
	}
	// Local propagation reaches x but cannot decide between n and p...
	// n is the only input of x fast enough for δ=60, so this small case
	// still disambiguates locally; the dominator set must nevertheless
	// contain the full ripple spine.
	doms := Dynamic(sys, c7, 60)
	has := map[string]bool{}
	for _, n := range doms.Nets {
		has[c.Net(n).Name] = true
	}
	for _, want := range []string{"c7", "x", "n", "r3", "r2", "r1", "c2"} {
		if !has[want] {
			t.Fatalf("dominators missing %s: %v", want, names(c, doms.Nets))
		}
	}
	if has["p"] || has["sel"] {
		t.Fatalf("side nets must not dominate: %v", names(c, doms.Nets))
	}
	if !NarrowDominators(sys, doms, 60) && sys.Domain(id(t, c, "c2")).W0.Lmin != 0 {
		t.Fatal("dominator narrowing must pin c2")
	}
	if !sys.Fixpoint() {
		t.Fatal("must remain consistent after dominator narrowing")
	}
}

func TestNarrowDominatorsDetectsInfeasible(t *testing.T) {
	// If the dominator's domain cannot contain a late-enough
	// transition, Corollary-1 narrowing empties it and the check is
	// refuted.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
p = BUFF(a)
z = AND(p, b)
`
	c := mustBuild(t, src, 10)
	z := id(t, c, "z")
	sys := constraint.New(c)
	sys.Narrow(z, waveform.CheckOutput(20))
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		t.Fatal("δ=20 is exactly the topological delay: consistent")
	}
	doms := Dynamic(sys, z, 20)
	NarrowDominators(sys, doms, 20)
	if !sys.Fixpoint() {
		t.Fatal("must remain consistent: the check is realisable")
	}
}
