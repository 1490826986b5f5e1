package delay

import (
	"repro/internal/circuit"
	"repro/internal/waveform"
)

// Early holds the minimum-delay (d_min) side of the paper's delay
// intervals [d_min, d_max]. The paper's maximum floating-mode delay
// calculation uses only d_max; the earliest-arrival analysis below is
// the complementary hold-style bound a timing verifier reports next to
// the late bound.
type Early struct {
	c *circuit.Circuit
	// earliest[n] is the earliest time net n can possibly change after
	// the inputs switch at t = 0: the shortest d_min path from any
	// primary input.
	earliest []waveform.Time
}

// NewEarly computes earliest change times over the d_min delays.
func NewEarly(c *circuit.Circuit) *Early {
	e := &Early{c: c, earliest: make([]waveform.Time, c.NumNets())}
	for i := range e.earliest {
		e.earliest[i] = waveform.PosInf
	}
	for _, pi := range c.PrimaryInputs() {
		e.earliest[pi] = 0
	}
	l := c.Layout()
	for _, g := range c.TopoGates() {
		best := waveform.PosInf
		for _, in := range l.Inputs(g) {
			if e.earliest[in] < best {
				best = e.earliest[in]
			}
		}
		t := best.Add(waveform.Time(l.DMin[g]))
		if out := l.Out[g]; t < e.earliest[out] {
			e.earliest[out] = t
		}
	}
	return e
}

// Earliest returns the earliest possible change time of net n (PosInf
// for nets unreachable from any input).
func (e *Early) Earliest(n circuit.NetID) waveform.Time { return e.earliest[n] }

// ShortestPath returns the minimum d_min path delay of the circuit
// (minimum earliest arrival over the primary outputs) — the hold-style
// figure of merit.
func (e *Early) ShortestPath() waveform.Time {
	best := waveform.PosInf
	for _, po := range e.c.PrimaryOutputs() {
		if e.earliest[po] < best {
			best = e.earliest[po]
		}
	}
	return best
}

// Window reports the switching window [Earliest, Arrival] of a net
// given the late analysis — the interval outside which the net is
// provably stable, before any functional (false-path) reasoning.
func Window(e *Early, a *Analysis, n circuit.NetID) (lo, hi waveform.Time) {
	return e.Earliest(n), a.Arrival(n)
}
