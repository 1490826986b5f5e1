package waveform

import "fmt"

// Wave is an abstract waveform for one settling class (Definition 1 of
// the paper): the set of binary waveforms that are stable at the class
// value for every t > Lmax and whose last time differing from the class
// value lies in [Lmin, Lmax]. A waveform that never differs from the
// class value (constant) has last-transition time −∞ and is a member
// exactly when Lmin == NegInf.
//
// The class value itself (0 or 1) is carried by the waveform's position
// inside a Signal, not by the Wave; all Wave operations assume both
// operands share a class.
//
// A Wave is empty — denotes the empty set φ — iff Lmin > Lmax.
type Wave struct {
	Lmin, Lmax Time
}

// Empty is the canonical empty abstract waveform φ.
var Empty = Wave{Lmin: PosInf, Lmax: NegInf}

// Full is the abstract waveform containing every binary waveform of the
// class: last transition anywhere in (−∞, +∞).
var Full = Wave{Lmin: NegInf, Lmax: PosInf}

// StableAfter returns the abstract waveform of all class waveforms that
// are stable after time t (last transition ≤ t, including never).
func StableAfter(t Time) Wave { return Wave{Lmin: NegInf, Lmax: t} }

// TransitionAtOrAfter returns the abstract waveform of all class
// waveforms whose last transition occurs at or after time t.
func TransitionAtOrAfter(t Time) Wave { return Wave{Lmin: t, Lmax: PosInf} }

// IsEmpty reports whether w denotes the empty set.
func (w Wave) IsEmpty() bool { return w.Lmin > w.Lmax }

// Canon returns w normalised so that every empty wave compares equal to
// Empty. Non-empty waves are returned unchanged.
func (w Wave) Canon() Wave {
	if w.IsEmpty() {
		return Empty
	}
	return w
}

// Equal reports equality per the paper: equal bounds, or both empty.
func (w Wave) Equal(o Wave) bool {
	if w.IsEmpty() || o.IsEmpty() {
		return w.IsEmpty() && o.IsEmpty()
	}
	return w.Lmin == o.Lmin && w.Lmax == o.Lmax
}

// Narrower reports the strict narrowness relation w < o: w denotes a
// strictly smaller abstract interval. The empty wave is narrower than
// every non-empty wave.
func (w Wave) Narrower(o Wave) bool {
	if o.IsEmpty() {
		return false
	}
	if w.IsEmpty() {
		return true
	}
	return (w.Lmax <= o.Lmax && w.Lmin > o.Lmin) || (w.Lmax < o.Lmax && w.Lmin >= o.Lmin)
}

// NarrowerEq reports w ≤ o (narrower or equal).
func (w Wave) NarrowerEq(o Wave) bool { return w.Equal(o) || w.Narrower(o) }

// Contains reports whether a concrete last-transition time t (NegInf
// for a constant waveform) lies inside w's interval.
func (w Wave) Contains(t Time) bool { return !w.IsEmpty() && w.Lmin <= t && t <= w.Lmax }

// Intersect returns the abstract waveform denoting w ∩ o. For abstract
// waveforms of a common class this is exact.
func (w Wave) Intersect(o Wave) Wave {
	if w.IsEmpty() || o.IsEmpty() {
		return Empty
	}
	return Wave{Lmin: MaxTime(w.Lmin, o.Lmin), Lmax: MinTime(w.Lmax, o.Lmax)}.Canon()
}

// Union returns the narrowest abstract waveform containing both w and o
// (the interval hull). Per Lemma 1 the result equals the set union
// exactly when the operand intervals are adjacent or overlapping;
// otherwise it strictly over-approximates, which is the deliberate
// approximation of the framework.
func (w Wave) Union(o Wave) Wave {
	if w.IsEmpty() {
		return o.Canon()
	}
	if o.IsEmpty() {
		return w
	}
	return Wave{Lmin: MinTime(w.Lmin, o.Lmin), Lmax: MaxTime(w.Lmax, o.Lmax)}
}

// Shift returns w translated by d time units (used to move between the
// input and output time frames of a gate with delay d).
func (w Wave) Shift(d Time) Wave {
	if w.IsEmpty() {
		return Empty
	}
	return Wave{Lmin: w.Lmin.Add(d), Lmax: w.Lmax.Add(d)}
}

// String renders the wave as v|lmin^max with v supplied by the caller
// via Signal; bare waves print just the interval.
func (w Wave) String() string {
	if w.IsEmpty() {
		return "φ"
	}
	return fmt.Sprintf("[%s,%s]", w.Lmin, w.Lmax)
}
