package waveform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleTimes is the concrete last-transition universe used by the
// exhaustive model tests: −∞ plus a small window of finite times. Every
// abstract-waveform operation is checked against its set semantics over
// this universe.
var sampleTimes = []Time{NegInf, -3, -2, -1, 0, 1, 2, 3, 4, 5}

// members returns the subset of sampleTimes contained in w.
func members(w Wave) map[Time]bool {
	m := map[Time]bool{}
	for _, t := range sampleTimes {
		if w.Contains(t) {
			m[t] = true
		}
	}
	return m
}

// sampleWaves enumerates a representative set of waves over the window:
// all intervals with bounds drawn from the sample times plus ±∞, and
// the empty wave.
func sampleWaves() []Wave {
	bounds := []Time{NegInf, -3, -1, 0, 1, 2, 4, 5, PosInf}
	var ws []Wave
	for _, lo := range bounds {
		for _, hi := range bounds {
			ws = append(ws, Wave{Lmin: lo, Lmax: hi}.Canon())
		}
	}
	return ws
}

func TestWaveEmptiness(t *testing.T) {
	if !Empty.IsEmpty() {
		t.Fatal("Empty must be empty")
	}
	if Full.IsEmpty() {
		t.Fatal("Full must not be empty")
	}
	if !(Wave{Lmin: 5, Lmax: 4}).IsEmpty() {
		t.Fatal("lmin>lmax must be empty")
	}
	if (Wave{Lmin: 5, Lmax: 5}).IsEmpty() {
		t.Fatal("point interval must be non-empty")
	}
}

func TestWaveCanon(t *testing.T) {
	w := Wave{Lmin: 9, Lmax: 2}.Canon()
	if w != Empty {
		t.Fatalf("Canon of empty wave = %v, want Empty", w)
	}
	u := Wave{Lmin: 1, Lmax: 2}
	if u.Canon() != u {
		t.Fatal("Canon must not change non-empty waves")
	}
}

func TestWaveEqual(t *testing.T) {
	if !(Wave{1, 2}).Equal(Wave{1, 2}) {
		t.Fatal("identical waves must be equal")
	}
	if (Wave{1, 2}).Equal(Wave{1, 3}) {
		t.Fatal("different waves must differ")
	}
	// All empties are equal regardless of representation.
	if !(Wave{9, 2}).Equal(Wave{100, -100}) {
		t.Fatal("all empty waves are equal")
	}
}

func TestWaveIntersectIsSetIntersection(t *testing.T) {
	for _, a := range sampleWaves() {
		for _, b := range sampleWaves() {
			got := members(a.Intersect(b))
			ma, mb := members(a), members(b)
			for _, tt := range sampleTimes {
				want := ma[tt] && mb[tt]
				if got[tt] != want {
					t.Fatalf("Intersect(%v,%v) membership of %s = %v, want %v", a, b, tt, got[tt], want)
				}
			}
		}
	}
}

func TestWaveUnionIsHull(t *testing.T) {
	for _, a := range sampleWaves() {
		for _, b := range sampleWaves() {
			u := a.Union(b)
			ma, mb := members(a), members(b)
			mu := members(u)
			// Hull property 1: contains both operands.
			for _, tt := range sampleTimes {
				if (ma[tt] || mb[tt]) && !mu[tt] {
					t.Fatalf("Union(%v,%v) lost member %s", a, b, tt)
				}
			}
			// Hull property 2: minimal — no narrower wave contains both.
			if !a.NarrowerEq(u) || !b.NarrowerEq(u) {
				t.Fatalf("operands not contained in union of %v,%v", a, b)
			}
			if !a.IsEmpty() && !b.IsEmpty() {
				if u.Lmin != MinTime(a.Lmin, b.Lmin) || u.Lmax != MaxTime(a.Lmax, b.Lmax) {
					t.Fatalf("Union(%v,%v) = %v is not the hull", a, b, u)
				}
			}
		}
	}
}

func TestWaveUnionExactLemma1(t *testing.T) {
	// Lemma 1: the hull equals the set union iff the intervals are
	// overlapping or adjacent: (b.Lmax+1 ≥ a.Lmin) ∧ (a.Lmax+1 ≥ b.Lmin).
	for _, a := range sampleWaves() {
		for _, b := range sampleWaves() {
			exact := a.IsEmpty() || b.IsEmpty() || (b.Lmax.Add(1) >= a.Lmin && a.Lmax.Add(1) >= b.Lmin)
			u := a.Union(b)
			ma, mb, mu := members(a), members(b), members(u)
			setExact := true
			for _, tt := range sampleTimes {
				if mu[tt] && !ma[tt] && !mb[tt] {
					setExact = false
				}
			}
			if exact && !setExact {
				t.Fatalf("Union(%v,%v) meets Lemma 1 but the hull has extra members", a, b)
			}
			// The converse can fail at the window edges (extra members
			// may lie outside the sampled universe), so only the sound
			// direction is asserted.
		}
	}
}

func TestWaveNarrownessMatchesInclusion(t *testing.T) {
	// w ⊆ o as sets over the sample universe whenever w ≤ o.
	for _, a := range sampleWaves() {
		for _, b := range sampleWaves() {
			if a.NarrowerEq(b) {
				ma, mb := members(a), members(b)
				for _, tt := range sampleTimes {
					if ma[tt] && !mb[tt] {
						t.Fatalf("%v ≤ %v but member %s not in the wider wave", a, b, tt)
					}
				}
			}
		}
	}
}

func TestWaveNarrowerStrict(t *testing.T) {
	if (Wave{1, 5}).Narrower(Wave{1, 5}) {
		t.Fatal("a wave is not strictly narrower than itself")
	}
	if !(Wave{2, 5}).Narrower(Wave{1, 5}) {
		t.Fatal("[2,5] < [1,5] must hold")
	}
	if !(Wave{1, 4}).Narrower(Wave{1, 5}) {
		t.Fatal("[1,4] < [1,5] must hold")
	}
	if !Empty.Narrower(Wave{1, 5}) {
		t.Fatal("φ is narrower than any non-empty wave")
	}
	if Empty.Narrower(Empty) {
		t.Fatal("φ is not narrower than φ")
	}
	if (Wave{0, 9}).Narrower(Wave{1, 5}) {
		t.Fatal("wider wave must not be narrower")
	}
}

func TestWaveShift(t *testing.T) {
	w := Wave{Lmin: 2, Lmax: 7}
	if got := w.Shift(10); got != (Wave{12, 17}) {
		t.Fatalf("Shift = %v", got)
	}
	if got := (Wave{NegInf, 7}).Shift(10); got != (Wave{NegInf, 17}) {
		t.Fatalf("Shift with -inf = %v", got)
	}
	if !Empty.Shift(5).IsEmpty() {
		t.Fatal("shift of empty must stay empty")
	}
}

func TestWaveConstructors(t *testing.T) {
	if StableAfter(0) != (Wave{NegInf, 0}) {
		t.Fatal("StableAfter wrong")
	}
	if TransitionAtOrAfter(61) != (Wave{61, PosInf}) {
		t.Fatal("TransitionAtOrAfter wrong")
	}
}

// randomWave draws a wave with bounds in a small window (possibly
// empty, possibly infinite) for property tests.
func randomWave(r *rand.Rand) Wave {
	pick := func() Time {
		switch r.Intn(6) {
		case 0:
			return NegInf
		case 1:
			return PosInf
		default:
			return Time(r.Intn(21) - 10)
		}
	}
	return Wave{Lmin: pick(), Lmax: pick()}.Canon()
}

func TestWaveLatticeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b, c := randomWave(r), randomWave(r), randomWave(r)
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			t.Fatalf("intersect not commutative: %v %v", a, b)
		}
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatalf("union not commutative: %v %v", a, b)
		}
		if !a.Intersect(a).Equal(a) || !a.Union(a).Equal(a) {
			t.Fatalf("idempotence fails: %v", a)
		}
		if !a.Intersect(b.Intersect(c)).Equal(a.Intersect(b).Intersect(c)) {
			t.Fatalf("intersect not associative: %v %v %v", a, b, c)
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			t.Fatalf("union not associative: %v %v %v", a, b, c)
		}
		// Absorption-style monotonicity: a∩b ≤ a ≤ a∪b.
		if !a.Intersect(b).NarrowerEq(a) {
			t.Fatalf("a∩b must be ≤ a: %v %v", a, b)
		}
		if !a.NarrowerEq(a.Union(b)) {
			t.Fatalf("a must be ≤ a∪b: %v %v", a, b)
		}
	}
}

func TestWaveIntersectMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomWave(r), randomWave(r), randomWave(r)
		if !a.NarrowerEq(b) {
			return true // vacuous
		}
		return a.Intersect(c).NarrowerEq(b.Intersect(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWaveString(t *testing.T) {
	if Empty.String() != "φ" {
		t.Fatal("empty string form wrong")
	}
	if (Wave{NegInf, 5}).String() != "[-inf,5]" {
		t.Fatalf("got %s", (Wave{NegInf, 5}).String())
	}
}
