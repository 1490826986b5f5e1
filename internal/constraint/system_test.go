package constraint

import (
	"testing"

	"repro/internal/circuit"
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

func TestInitialDomains(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`, 10)
	s := New(c)
	if !s.Domain(id(t, c, "a")).Equal(waveform.FloatingInput) {
		t.Fatal("PI domain must be the floating-mode input")
	}
	if !s.Domain(id(t, c, "z")).Equal(waveform.FullSignal) {
		t.Fatal("internal domains must start unconstrained")
	}
	if s.Inconsistent() {
		t.Fatal("fresh system must be consistent")
	}
}

// TestExample1 reproduces Example 1 of the paper verbatim: a 2-input
// AND with delay 0 and the given initial domains must narrow to exactly
// the published result.
func TestExample1(t *testing.T) {
	b := circuit.NewBuilder("ex1")
	b.Input("i")
	b.Input("j")
	b.Gate(circuit.AND, 0, "s", "i", "j")
	b.Output("s")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	ni, nj, ns := id(t, c, "i"), id(t, c, "j"), id(t, c, "s")
	// Override the floating-input defaults with the example's domains.
	s.storeSig(ni, waveform.Signal{
		W0: waveform.Wave{Lmin: waveform.NegInf, Lmax: 33},
		W1: waveform.Wave{Lmin: 50, Lmax: 100},
	})
	s.storeSig(nj, waveform.Signal{
		W0: waveform.Wave{Lmin: 25, Lmax: 75},
		W1: waveform.Empty,
	})
	s.storeSig(ns, waveform.Signal{
		W0: waveform.Wave{Lmin: 35, Lmax: 125},
		W1: waveform.Empty,
	})
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("example 1 must stay consistent")
	}
	wantI := waveform.Signal{W0: waveform.Empty, W1: waveform.Wave{Lmin: 50, Lmax: 100}}
	wantJ := waveform.Signal{W0: waveform.Wave{Lmin: 35, Lmax: 75}, W1: waveform.Empty}
	wantS := waveform.Signal{W0: waveform.Wave{Lmin: 35, Lmax: 75}, W1: waveform.Empty}
	if got := s.Domain(ni); !got.Equal(wantI) {
		t.Errorf("D_i = %s, want %s", got, wantI)
	}
	if got := s.Domain(nj); !got.Equal(wantJ) {
		t.Errorf("D_j = %s, want %s", got, wantJ)
	}
	if got := s.Domain(ns); !got.Equal(wantS) {
		t.Errorf("D_s = %s, want %s", got, wantS)
	}
}

func TestForwardChainBounds(t *testing.T) {
	// A 3-gate buffer chain: forward narrowing must bound every net's
	// last transition by its arrival time.
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
n1 = BUFF(a)
n2 = NOT(n1)
z = BUFF(n2)
`, 10)
	s := New(c)
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("must be consistent")
	}
	for name, want := range map[string]waveform.Time{"n1": 10, "n2": 20, "z": 30} {
		d := s.Domain(id(t, c, name))
		if d.W0.Lmax != want || d.W1.Lmax != want {
			t.Errorf("%s = %s, want Lmax %s on both classes", name, d, want)
		}
		if d.W0.Lmin != waveform.NegInf {
			t.Errorf("%s Lmin must stay -inf", name)
		}
	}
}

func TestCheckBeyondTopologicalIsInconsistent(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
x = AND(a, b)
z = OR(x, b)
`, 10)
	s := New(c)
	z := id(t, c, "z")
	// Topological delay is 20; a transition at ≥ 21 is impossible and
	// plain narrowing must prove it.
	s.Narrow(z, waveform.CheckOutput(21))
	s.ScheduleAll()
	if s.Fixpoint() {
		t.Fatalf("check δ=31 beyond top=30 must be inconsistent; z = %s", s.Domain(z))
	}
}

func TestCheckAtTopologicalStaysOpen(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`, 10)
	s := New(c)
	z := id(t, c, "z")
	s.Narrow(z, waveform.CheckOutput(10))
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("δ = top on a single gate must remain possible")
	}
	d := s.Domain(z)
	if d.W0.Lmax != 10 || d.W0.Lmin != 10 {
		t.Fatalf("z class 0 = %s, want [10,10]", d.W0)
	}
}

func TestSideInputNecessaryAssignment(t *testing.T) {
	// z = AND(slow, b): requiring a late transition on z forces b to
	// settle non-controlling (b's class-0 must empty) because b's
	// controlling waveforms would lock z early.
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
n1 = BUFF(a)
n2 = BUFF(n1)
z = AND(n2, b)
`, 10)
	s := New(c)
	z := id(t, c, "z")
	s.Narrow(z, waveform.CheckOutput(30))
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("δ=30 must remain possible via the long path")
	}
	db := s.Domain(id(t, c, "b"))
	if !db.W0.IsEmpty() {
		t.Fatalf("b class 0 (controlling) must be removed, got %s", db)
	}
	if db.W1.IsEmpty() {
		t.Fatal("b class 1 must survive")
	}
	// And the last-transition interval must have propagated down the
	// chain: n2 must carry a transition in [19,20] (input frame of z).
	dn2 := s.Domain(id(t, c, "n2"))
	if dn2.W0.Lmin != 20 || dn2.W0.Lmax != 20 || dn2.W1.Lmin != 20 || dn2.W1.Lmax != 20 {
		t.Fatalf("n2 = %s, want [20,20] on both classes", dn2)
	}
}

func TestTrailMarkUndo(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
`, 10)
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	z := id(t, c, "z")
	b := id(t, c, "b")
	before := s.Domain(z)
	beforeB := s.Domain(b)

	s.Mark()
	if s.Levels() != 1 {
		t.Fatal("one level must be open")
	}
	s.Narrow(z, waveform.CheckOutput(10))
	s.Fixpoint()
	if s.Domain(z).Equal(before) {
		t.Fatal("narrowing must change z")
	}
	s.Undo()
	if !s.Domain(z).Equal(before) || !s.Domain(b).Equal(beforeB) {
		t.Fatal("undo must restore domains")
	}
	if s.Levels() != 0 {
		t.Fatal("level must be closed")
	}
}

func TestUndoClearsInconsistency(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
z = BUFF(a)
`, 10)
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	s.Mark()
	s.Narrow(id(t, c, "z"), waveform.CheckOutput(11))
	if s.Fixpoint() {
		t.Fatal("δ=11 must be inconsistent for a single 10-delay buffer")
	}
	if !s.Inconsistent() || s.EmptyNet() == circuit.InvalidNet {
		t.Fatal("inconsistency must be recorded")
	}
	s.Undo()
	if s.Inconsistent() {
		t.Fatal("undo must clear inconsistency")
	}
	if !s.Fixpoint() {
		t.Fatal("restored system must be consistent")
	}
}

func TestNestedLevels(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = OR(a, b)
`, 5)
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	a := id(t, c, "a")
	base := s.Domain(a)

	s.Mark()
	s.Narrow(a, waveform.SettledTo(0))
	s.Fixpoint()
	l1 := s.Domain(a)
	s.Mark()
	s.Narrow(a, waveform.Signal{W0: waveform.StableAfter(-5), W1: waveform.Empty})
	s.Fixpoint()
	s.Undo()
	if !s.Domain(a).Equal(l1) {
		t.Fatal("inner undo must restore level-1 domain")
	}
	s.Undo()
	if !s.Domain(a).Equal(base) {
		t.Fatal("outer undo must restore base domain")
	}
}

func TestFixpointIdempotent(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
x = NAND(a, b)
y = NOR(x, c)
z = XOR(y, a)
`, 7)
	s := New(c)
	z := id(t, c, "z")
	s.Narrow(z, waveform.CheckOutput(14))
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("must be consistent")
	}
	snapshot := make([]waveform.Signal, c.NumNets())
	for i := range snapshot {
		snapshot[i] = s.Domain(circuit.NetID(i))
	}
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("second pass must stay consistent")
	}
	for i := range snapshot {
		if !s.Domain(circuit.NetID(i)).Equal(snapshot[i]) {
			t.Fatalf("fixpoint not idempotent at net %s", c.Net(circuit.NetID(i)).Name)
		}
	}
}

func TestSystemString(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
OUTPUT(z)
z = BUFF(a)
`, 1)
	s := New(c)
	if got := s.String(); got == "" {
		t.Fatal("String must describe the system")
	}
}

// TestHasTransitionAtOrAfterReadsLanes: the lane test equals building
// the Signal and asking it, for every pair of waves over a boundary
// table (empty waves of every shape, the infinities, single points)
// and every threshold in the same table.
func TestHasTransitionAtOrAfterReadsLanes(t *testing.T) {
	c := mustBuild(t, "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", 1)
	sys := New(c)
	a := id(t, c, "a")
	times := []waveform.Time{waveform.NegInf, waveform.NegInf + 1, -5, 0, 4, 5, 6, waveform.PosInf - 1, waveform.PosInf}
	var waves []waveform.Wave
	for _, lo := range times {
		for _, hi := range times {
			waves = append(waves, waveform.Wave{Lmin: lo, Lmax: hi})
		}
	}
	for _, w0 := range waves {
		for _, w1 := range waves {
			sig := waveform.Signal{W0: w0, W1: w1}
			sys.storeSig(a, sig)
			for _, th := range times {
				if got, want := sys.HasTransitionAtOrAfter(a, th), sig.HasTransitionAtOrAfter(th); got != want {
					t.Fatalf("%v at %s: lanes say %v, the signal %v", sig, th, got, want)
				}
			}
		}
	}
}
