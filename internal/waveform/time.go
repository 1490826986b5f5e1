// Package waveform implements the abstract-waveform and abstract-signal
// algebra of Kassab et al. (DATE 1998): sets of binary waveforms bounded
// by their settling class and last-transition interval, together with
// the lattice operations (intersection, union hull, narrowness) used by
// the waveform-narrowing constraint solver.
package waveform

import (
	"fmt"
	"math"
)

// Time is a discrete time point. The waveform calculus needs the two
// infinities (the initial domains are unbounded), so Time reserves
// sentinel values far outside any delay sum a realistic circuit can
// produce and saturates arithmetic at them.
type Time int64

const (
	// NegInf is the least Time; it represents −∞.
	NegInf Time = math.MinInt64 / 4
	// PosInf is the greatest Time; it represents +∞.
	PosInf Time = math.MaxInt64 / 4
)

// IsInf reports whether t is one of the two infinities (or beyond,
// which can only arise from saturated arithmetic).
func (t Time) IsInf() bool { return t <= NegInf || t >= PosInf }

// Add returns t+d saturating at the infinities: adding any finite
// offset to an infinity leaves it unchanged.
func (t Time) Add(d Time) Time {
	if t > NegInf && t < PosInf {
		t += d
	}
	return min(max(t, NegInf), PosInf)
}

// Sub returns t−d with the same saturation rules as Add.
func (t Time) Sub(d Time) Time { return t.Add(-d) }

// Midpoint returns the floor midpoint lo+(hi-lo)/2 for binary
// searches over delay bounds. Both bounds must be finite: a midpoint
// of an unbounded interval is meaningless, so infinities saturate
// through Add like every other operation.
func Midpoint(lo, hi Time) Time { return lo.Add((hi - lo) / 2) }

// MidpointCeil returns the ceiling midpoint lo+(hi-lo+1)/2, the
// variant binary searches use when the loop keeps the lower bound on
// a satisfied predicate. Both bounds must be finite.
func MidpointCeil(lo, hi Time) Time { return lo.Add((hi - lo + 1) / 2) }

// MinTime returns the smaller of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the larger of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// String renders infinities as -inf / +inf and finite times as decimal.
func (t Time) String() string {
	switch {
	case t <= NegInf:
		return "-inf"
	case t >= PosInf:
		return "+inf"
	default:
		return fmt.Sprintf("%d", int64(t))
	}
}
