package oracle

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Three-valued logic constants for the concrete unknown-state
// simulator.
const (
	L0 = 0 // stable 0
	L1 = 1 // stable 1
	LX = 2 // unknown
)

// eval3 computes the pessimistic three-valued gate function.
func eval3(t circuit.GateType, in []uint8) uint8 {
	switch t {
	case circuit.AND, circuit.NAND:
		v := uint8(L1)
		for _, x := range in {
			if x == L0 {
				v = L0
				break
			}
			if x == LX {
				v = LX
			}
		}
		if v != LX && t == circuit.NAND {
			v ^= 1
		}
		return v
	case circuit.OR, circuit.NOR:
		v := uint8(L0)
		for _, x := range in {
			if x == L1 {
				v = L1
				break
			}
			if x == LX {
				v = LX
			}
		}
		if v != LX && t == circuit.NOR {
			v ^= 1
		}
		return v
	case circuit.NOT:
		if in[0] == LX {
			return LX
		}
		return in[0] ^ 1
	case circuit.BUFFER, circuit.DELAY:
		return in[0]
	case circuit.XOR, circuit.XNOR:
		v := uint8(0)
		for _, x := range in {
			if x == LX {
				return LX
			}
			v ^= x
		}
		if t == circuit.XNOR {
			v ^= 1
		}
		return v
	}
	panic(fmt.Sprintf("oracle: eval3 of unknown gate type %d", uint8(t)))
}

// XResult is a concrete three-valued time-unrolled simulation: the full
// waveform of every net over the window [0, Horizon], under an unknown
// (X) initial state and the vector applied at time 0. It is the
// executable definition of the floating mode, against which the settle
// recursion of sim.Run is validated.
type XResult struct {
	Horizon waveform.Time
	// Wave[n][t] is the three-valued value of net n at time t,
	// 0 ≤ t ≤ Horizon. For t < 0 every net is X by definition.
	Wave [][]uint8
	// Final is the settled Boolean value of every net.
	Final []int
}

// RunX performs the unrolled three-valued simulation up to the given
// horizon (pass at least the topological delay plus one). Primary
// inputs hold X through t = 0 and their vector value from t = 1 on,
// matching the paper's floating-mode input domain (0|−∞..0, 1|−∞..0):
// an input may differ from its final value at t = 0 exactly.
func RunX(c *circuit.Circuit, v sim.Vector, horizon waveform.Time) (*XResult, error) {
	pis := c.PrimaryInputs()
	if len(v) != len(pis) {
		return nil, fmt.Errorf("oracle: vector has %d bits for %d primary inputs", len(v), len(pis))
	}
	if horizon < 0 || horizon > 1<<20 {
		return nil, fmt.Errorf("oracle: horizon %d out of range", horizon)
	}
	H := int(horizon)
	r := &XResult{Horizon: horizon, Wave: make([][]uint8, c.NumNets()), Final: make([]int, c.NumNets())}
	for i := range r.Wave {
		w := make([]uint8, H+1)
		for t := range w {
			w[t] = LX
		}
		r.Wave[i] = w
		r.Final[i] = -1
	}
	for i, pi := range pis {
		for t := 1; t <= H; t++ {
			r.Wave[pi][t] = uint8(v[i])
		}
		r.Final[pi] = v[i]
	}
	in3 := make([]uint8, 0, 16)
	inb := make([]int, 0, 16)
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		d := int(g.Delay)
		for t := 0; t <= H; t++ {
			in3 = in3[:0]
			src := t - d
			for _, x := range g.Inputs {
				if src < 0 {
					in3 = append(in3, LX)
				} else {
					in3 = append(in3, r.Wave[x][src])
				}
			}
			r.Wave[g.Output][t] = eval3(g.Type, in3)
		}
		inb = inb[:0]
		for _, x := range g.Inputs {
			inb = append(inb, r.Final[x])
		}
		r.Final[g.Output] = g.Type.Eval(inb)
	}
	return r, nil
}

// LastDiff returns the latest time in [0, Horizon] at which net n's
// three-valued waveform differs from its final value (X counts as
// differing), or NegInf if it never does. When the horizon is at least
// the topological delay this equals the floating-mode last-transition
// bound computed by sim.Run.
func (r *XResult) LastDiff(n circuit.NetID) waveform.Time {
	w := r.Wave[n]
	fin := uint8(r.Final[n])
	for t := len(w) - 1; t >= 0; t-- {
		if w[t] != fin {
			return waveform.Time(t)
		}
	}
	return waveform.NegInf
}
