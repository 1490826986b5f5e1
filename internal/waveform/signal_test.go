package waveform

import (
	"math/rand"
	"testing"
)

func randomSignal(r *rand.Rand) Signal {
	return Signal{W0: randomWave(r), W1: randomWave(r)}
}

func TestSignalConstructors(t *testing.T) {
	if !EmptySignal.IsEmpty() {
		t.Fatal("EmptySignal must be empty")
	}
	if FullSignal.IsEmpty() {
		t.Fatal("FullSignal must not be empty")
	}
	fi := FloatingInput
	if fi.W0 != (Wave{NegInf, 0}) || fi.W1 != (Wave{NegInf, 0}) {
		t.Fatalf("FloatingInput = %v", fi)
	}
	co := CheckOutput(61)
	if co.W0 != (Wave{61, PosInf}) || co.W1 != (Wave{61, PosInf}) {
		t.Fatalf("CheckOutput = %v", co)
	}
	if v, ok := SettledTo(0).KnownValue(); !ok || v != 0 {
		t.Fatal("SettledTo(0) must know value 0")
	}
	if v, ok := SettledTo(1).KnownValue(); !ok || v != 1 {
		t.Fatal("SettledTo(1) must know value 1")
	}
}

func TestSignalWaveAccessors(t *testing.T) {
	s := Signal{W0: Wave{1, 2}, W1: Wave{3, 4}}
	if s.Wave(0) != (Wave{1, 2}) || s.Wave(1) != (Wave{3, 4}) {
		t.Fatal("Wave accessor wrong")
	}
}

func TestSignalKnownValue(t *testing.T) {
	if _, ok := FullSignal.KnownValue(); ok {
		t.Fatal("full signal has no known value")
	}
	if _, ok := EmptySignal.KnownValue(); ok {
		t.Fatal("empty signal has no known value")
	}
	s := Signal{W0: Full, W1: Empty}
	if v, ok := s.KnownValue(); !ok || v != 0 {
		t.Fatal("class-0-only must know 0")
	}
}

func TestSignalIntersectUnionComponentwise(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		a, b := randomSignal(r), randomSignal(r)
		got := a.Intersect(b)
		if !got.W0.Equal(a.W0.Intersect(b.W0)) || !got.W1.Equal(a.W1.Intersect(b.W1)) {
			t.Fatal("Intersect must be componentwise")
		}
		gu := a.Union(b)
		if !gu.W0.Equal(a.W0.Union(b.W0)) || !gu.W1.Equal(a.W1.Union(b.W1)) {
			t.Fatal("Union must be componentwise")
		}
		if !a.Intersect(b).NarrowerEq(a) || !a.NarrowerEq(a.Union(b)) {
			t.Fatal("lattice ordering violated")
		}
	}
}

func TestSignalNarrowness(t *testing.T) {
	a := Signal{W0: Wave{2, 4}, W1: Wave{1, 5}}
	b := Signal{W0: Wave{1, 5}, W1: Wave{1, 5}}
	if !a.Narrower(b) {
		t.Fatal("a < b must hold (one component strictly narrower)")
	}
	if a.Narrower(a) {
		t.Fatal("not strictly narrower than self")
	}
	if !a.NarrowerEq(a) {
		t.Fatal("≤ must be reflexive")
	}
}

func TestSignalLatestTransition(t *testing.T) {
	s := Signal{W0: Wave{2, 40}, W1: Wave{10, 30}}
	if s.LatestTransition() != 40 {
		t.Fatalf("latest = %s", s.LatestTransition())
	}
	one := Signal{W0: Empty, W1: Wave{10, 30}}
	if one.LatestTransition() != 30 {
		t.Fatal("single-class bound wrong")
	}
	if EmptySignal.LatestTransition() != NegInf {
		t.Fatal("empty latest must be -inf")
	}
}

func TestSignalHasTransitionAtOrAfter(t *testing.T) {
	s := Signal{W0: Wave{NegInf, 50}, W1: Empty}
	if !s.HasTransitionAtOrAfter(50) {
		t.Fatal("transition at 50 must be possible")
	}
	if s.HasTransitionAtOrAfter(51) {
		t.Fatal("transition at 51 must be impossible")
	}
	if EmptySignal.HasTransitionAtOrAfter(NegInf) {
		t.Fatal("empty signal has no transitions")
	}
}

func TestSignalShift(t *testing.T) {
	s := Signal{W0: Wave{2, 4}, W1: Wave{NegInf, 0}}
	g := s.Shift(10)
	if g.W0 != (Wave{12, 14}) || g.W1 != (Wave{NegInf, 10}) {
		t.Fatalf("Shift = %v", g)
	}
}

func TestSignalString(t *testing.T) {
	s := Signal{W0: Wave{NegInf, 0}, W1: Empty}
	if got := s.String(); got != "(0|-inf^0, φ)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSignalCanon(t *testing.T) {
	s := Signal{W0: Wave{9, 1}, W1: Wave{4, 2}}.Canon()
	if s.W0 != Empty || s.W1 != Empty {
		t.Fatal("Canon must normalise empties")
	}
}
