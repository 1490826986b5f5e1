package waveform

import (
	"testing"
	"testing/quick"
)

func TestTimeAddSaturates(t *testing.T) {
	cases := []struct {
		a, d, want Time
	}{
		{5, 7, 12},
		{5, -7, -2},
		{NegInf, 10, NegInf},
		{NegInf, -10, NegInf},
		{PosInf, 10, PosInf},
		{PosInf, -10, PosInf},
		{NegInf, PosInf - NegInf, NegInf}, // infinity absorbs any offset
		{0, PosInf, PosInf},
		{0, NegInf, NegInf},
	}
	for _, c := range cases {
		if got := c.a.Add(c.d); got != c.want {
			t.Errorf("(%s).Add(%s) = %s, want %s", c.a, c.d, got, c.want)
		}
	}
}

// refAdd is the branchy definition Time.Add replaced, kept as the
// reference: clamp an infinite (or beyond) t, else add and clamp.
func refAdd(t, d Time) Time {
	if t <= NegInf {
		return NegInf
	}
	if t >= PosInf {
		return PosInf
	}
	s := t + d
	if s <= NegInf {
		return NegInf
	}
	if s >= PosInf {
		return PosInf
	}
	return s
}

// TestTimeAddMatchesReference runs Add against refAdd on every pair of
// a boundary table: the infinities and values beyond them, the values
// next to each sentinel, zero, small offsets and offsets large enough
// to cross from one sentinel to the other.
func TestTimeAddMatchesReference(t *testing.T) {
	vals := []Time{
		NegInf - 1, NegInf, NegInf + 1, NegInf + 2,
		PosInf - 2, PosInf - 1, PosInf, PosInf + 1,
		-1000, -1, 0, 1, 1000,
		PosInf - NegInf, NegInf - PosInf, PosInf / 2, NegInf / 2,
	}
	for _, a := range vals {
		for _, d := range vals {
			if got, want := a.Add(d), refAdd(a, d); got != want {
				t.Errorf("(%d).Add(%d) = %d, reference %d", a, d, got, want)
			}
			if got, want := a.Sub(d), refAdd(a, -d); got != want {
				t.Errorf("(%d).Sub(%d) = %d, reference %d", a, d, got, want)
			}
		}
	}
	if err := quick.CheckEqual(func(a, d int64) Time { return Time(a).Add(Time(d) / 4) },
		func(a, d int64) Time { return refAdd(Time(a), Time(d)/4) }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(10).Sub(3); got != 7 {
		t.Fatalf("10-3 = %s", got)
	}
	if got := NegInf.Sub(3); got != NegInf {
		t.Fatalf("-inf - 3 = %s", got)
	}
	if got := PosInf.Sub(1000); got != PosInf {
		t.Fatalf("+inf - 1000 = %s", got)
	}
}

func TestTimeIsInf(t *testing.T) {
	if !NegInf.IsInf() || !PosInf.IsInf() {
		t.Fatal("infinities must report IsInf")
	}
	if Time(0).IsInf() || Time(-1000000).IsInf() {
		t.Fatal("finite times must not report IsInf")
	}
}

func TestTimeMinMax(t *testing.T) {
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 {
		t.Fatal("MinTime wrong")
	}
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Fatal("MaxTime wrong")
	}
	if MinTime(NegInf, 0) != NegInf || MaxTime(PosInf, 0) != PosInf {
		t.Fatal("infinity ordering wrong")
	}
}

func TestTimeString(t *testing.T) {
	if NegInf.String() != "-inf" || PosInf.String() != "+inf" || Time(42).String() != "42" {
		t.Fatal("Time.String formatting wrong")
	}
}

// clampTime maps an arbitrary int64 into a representative small range
// plus the infinities so quick-check inputs exercise saturation.
func clampTime(x int64) Time {
	switch m := x % 23; {
	case m == 0:
		return NegInf
	case m == 1 || m == -1:
		return PosInf
	default:
		return Time(x % 1000)
	}
}

func TestTimeAddCommutesWithOrder(t *testing.T) {
	// Property: adding the same finite offset preserves ordering.
	f := func(a, b, d int64) bool {
		ta, tb := clampTime(a), clampTime(b)
		off := Time(d % 1000)
		if ta <= tb {
			return ta.Add(off) <= tb.Add(off)
		}
		return ta.Add(off) >= tb.Add(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeAddSubRoundTrip(t *testing.T) {
	// Property: for finite t, (t+d)-d == t when no saturation occurs.
	f := func(a, d int64) bool {
		ta := Time(a % 100000)
		off := Time(d % 100000)
		return ta.Add(off).Sub(off) == ta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
