// Package sim provides the floating-mode reference semantics that the
// constraint engine is verified against: per-vector settle-time
// simulation (the standard min-of-controlling / max-of-all recursion of
// Devadas et al.), which replays witnesses, and an exhaustive exact
// floating-delay search of one net for small circuits. The ground truth
// that only tests use lives in package oracle.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// Vector is a primary-input assignment, indexed parallel to
// Circuit.PrimaryInputs(). Values are 0 or 1.
type Vector []int

// String renders the vector as a bit string in PI order.
func (v Vector) String() string {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = byte('0' + x)
	}
	return string(b)
}

// Result holds a per-vector floating-mode simulation.
type Result struct {
	c *circuit.Circuit
	// Value is the final Boolean value of every net.
	Value []int
	// Settle is the floating-mode last-transition bound of every net:
	// the latest time at which the net may still differ from Value
	// under unknown initial state (the net is stable for all t >
	// Settle). This matches the paper's convention where a primary
	// input stable "after time 0" may differ from its final value at
	// t = 0 exactly, so Settle of a primary input is 0.
	Settle []waveform.Time
}

// Run simulates the vector in floating mode. The vector is applied at
// time 0 with the entire circuit in an unknown initial state; the
// last-transition recursion is
//
//	L(g) = d + min( min over inputs with controlling final value L,
//	                max over all inputs L )
//
// because the output of a gate locks d after any input locks at a
// controlling value, and at the latest d after all inputs lock.
func Run(c *circuit.Circuit, v Vector) (*Result, error) {
	r := new(Result)
	if err := RunInto(r, c, v); err != nil {
		return nil, err
	}
	return r, nil
}

// RunInto is Run into r: it overwrites r with the simulation of v,
// reusing r's arrays when they are large enough, so a caller that
// simulates many vectors allocates once. On error r holds no result.
func RunInto(r *Result, c *circuit.Circuit, v Vector) error {
	pis := c.PrimaryInputs()
	if len(v) != len(pis) {
		return fmt.Errorf("sim: vector has %d bits for %d primary inputs", len(v), len(pis))
	}
	r.c = c
	r.Value = slices.Grow(r.Value[:0], c.NumNets())[:c.NumNets()]
	r.Settle = slices.Grow(r.Settle[:0], c.NumNets())[:c.NumNets()]
	clear(r.Settle)
	for i := range r.Value {
		r.Value[i] = -1
	}
	for i, pi := range pis {
		if v[i] != 0 && v[i] != 1 {
			return fmt.Errorf("sim: vector bit %d is %d, want 0 or 1", i, v[i])
		}
		r.Value[pi] = v[i]
		r.Settle[pi] = 0
	}
	l := c.Layout()
	in := make([]int, 0, 16)
	for _, g := range c.TopoGates() {
		t := l.Type[g]
		in = in[:0]
		maxAll := waveform.Time(0)
		minCtrl := waveform.PosInf
		ctrl, hasCtrl := t.HasControlling()
		for _, x := range l.Inputs(g) {
			in = append(in, r.Value[x])
			st := r.Settle[x]
			if st > maxAll {
				maxAll = st
			}
			if hasCtrl && r.Value[x] == ctrl && st < minCtrl {
				minCtrl = st
			}
		}
		out := l.Out[g]
		r.Value[out] = t.Eval(in)
		st := maxAll
		if minCtrl < st {
			st = minCtrl
		}
		r.Settle[out] = st.Add(waveform.Time(l.Delay[g]))
	}
	return nil
}

// OutputSettle returns the settle time of the given net (usually a
// primary output): the floating-mode delay of the net for this vector.
// A transition at or after δ is possible iff OutputSettle ≥ δ.
func (r *Result) OutputSettle(n circuit.NetID) waveform.Time { return r.Settle[n] }

// Violates reports whether this vector witnesses the timing check
// (c, n, δ), i.e. whether the net can still transition at or after δ.
func (r *Result) Violates(n circuit.NetID, delta waveform.Time) bool {
	return r.Settle[n] >= delta
}

// FloatingDelayExhaustive computes the exact floating-mode delay of net
// n — max over all 2^k input vectors of the settle time — together with
// a witnessing vector. It is exponential and intended as a test oracle
// for circuits with at most ~20 inputs.
func FloatingDelayExhaustive(c *circuit.Circuit, n circuit.NetID) (waveform.Time, Vector, error) {
	k := len(c.PrimaryInputs())
	if k > 24 {
		return 0, nil, fmt.Errorf("sim: %d inputs is too many for exhaustive search", k)
	}
	best := waveform.NegInf
	var bestV Vector
	v := make(Vector, k)
	for bits := 0; bits < 1<<k; bits++ {
		for i := 0; i < k; i++ {
			v[i] = (bits >> i) & 1
		}
		r, err := Run(c, v)
		if err != nil {
			return 0, nil, err
		}
		if r.Settle[n] > best {
			best = r.Settle[n]
			bestV = append(Vector(nil), v...)
		}
	}
	return best, bestV, nil
}
