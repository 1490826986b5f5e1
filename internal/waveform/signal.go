package waveform

import "fmt"

// Signal is an abstract signal (Definition 2): a pair of abstract
// waveforms, one per settling class. W0 bounds the waveforms that
// settle to 0, W1 those that settle to 1. The set denoted by a Signal
// is the union of the sets denoted by its two components.
type Signal struct {
	W0, W1 Wave
}

// EmptySignal denotes the empty set (φ, φ): the constraint system is
// inconsistent as soon as any net's domain reaches it.
var EmptySignal = Signal{W0: Empty, W1: Empty}

// FullSignal contains every binary waveform: (0|−∞..+∞, 1|−∞..+∞).
var FullSignal = Signal{W0: Full, W1: Full}

// FloatingInput is the floating-mode primary-input domain
// (0|−∞..0, 1|−∞..0): any waveform that is stable after time 0.
var FloatingInput = Signal{W0: StableAfter(0), W1: StableAfter(0)}

// CheckOutput returns the timing-check output domain
// (0|δ..+∞, 1|δ..+∞): only waveforms whose last transition occurs at or
// after δ, i.e. the waveforms that violate the check.
func CheckOutput(delta Time) Signal {
	return Signal{W0: TransitionAtOrAfter(delta), W1: TransitionAtOrAfter(delta)}
}

// SettledTo returns the domain of waveforms that settle to value v
// (v must be 0 or 1) with an unconstrained last-transition interval.
func SettledTo(v int) Signal {
	if v == 0 {
		return Signal{W0: Full, W1: Empty}
	}
	return Signal{W0: Empty, W1: Full}
}

// Wave returns the component for class v (0 or 1).
func (s Signal) Wave(v int) Wave {
	if v == 0 {
		return s.W0
	}
	return s.W1
}

// IsEmpty reports whether both components are empty, i.e. the signal
// denotes the empty set and the constraint system is inconsistent.
func (s Signal) IsEmpty() bool { return s.W0.IsEmpty() && s.W1.IsEmpty() }

// Canon normalises both components (all empty waves become Empty).
func (s Signal) Canon() Signal { return Signal{W0: s.W0.Canon(), W1: s.W1.Canon()} }

// Equal reports componentwise equality.
func (s Signal) Equal(o Signal) bool { return s.W0.Equal(o.W0) && s.W1.Equal(o.W1) }

// Narrower reports the strict narrowness relation of Definition 2.
func (s Signal) Narrower(o Signal) bool {
	return (s.W0.Narrower(o.W0) && s.W1.NarrowerEq(o.W1)) ||
		(s.W0.NarrowerEq(o.W0) && s.W1.Narrower(o.W1))
}

// NarrowerEq reports s ≤ o.
func (s Signal) NarrowerEq(o Signal) bool { return s.W0.NarrowerEq(o.W0) && s.W1.NarrowerEq(o.W1) }

// Intersect returns the componentwise intersection.
func (s Signal) Intersect(o Signal) Signal {
	return Signal{W0: s.W0.Intersect(o.W0), W1: s.W1.Intersect(o.W1)}
}

// Union returns the componentwise union hull.
func (s Signal) Union(o Signal) Signal {
	return Signal{W0: s.W0.Union(o.W0), W1: s.W1.Union(o.W1)}
}

// Shift translates both components by d time units.
func (s Signal) Shift(d Time) Signal { return Signal{W0: s.W0.Shift(d), W1: s.W1.Shift(d)} }

// KnownValue reports whether exactly one class survives, and if so
// which. It returns (-1, false) when both or neither class is present.
func (s Signal) KnownValue() (int, bool) {
	switch {
	case s.W0.IsEmpty() && !s.W1.IsEmpty():
		return 1, true
	case !s.W0.IsEmpty() && s.W1.IsEmpty():
		return 0, true
	default:
		return -1, false
	}
}

// LatestTransition returns the largest possible last-transition time
// over both classes (NegInf if the signal is empty).
func (s Signal) LatestTransition() Time {
	t := NegInf
	if !s.W0.IsEmpty() {
		t = MaxTime(t, s.W0.Lmax)
	}
	if !s.W1.IsEmpty() {
		t = MaxTime(t, s.W1.Lmax)
	}
	return t
}

// HasTransitionAtOrAfter reports whether the signal contains a waveform
// whose last transition occurs at or after time t — the membership test
// of Definition 7 (dynamic carriers).
func (s Signal) HasTransitionAtOrAfter(t Time) bool {
	return !s.Intersect(CheckOutput(t)).IsEmpty()
}

// String renders the signal in the paper's (0|lmin^max, 1|lmin^max)
// notation.
func (s Signal) String() string {
	f := func(v int, w Wave) string {
		if w.IsEmpty() {
			return "φ"
		}
		return fmt.Sprintf("%d|%s^%s", v, w.Lmin, w.Lmax)
	}
	return fmt.Sprintf("(%s, %s)", f(0, s.W0), f(1, s.W1))
}
