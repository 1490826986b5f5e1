package core

import (
	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// WitnessPath traces, for a witnessed violation, the sensitised path
// that carries the late transition: starting from the sink, it follows
// at each gate an input that determines the output's settle time under
// the witness vector (the controlling-final input that locks the gate,
// or the slowest input when none controls). The result runs from a
// primary input to the sink and its per-net settle times are
// non-decreasing — the dynamic counterpart of the static critical path.
func (v *Verifier) WitnessPath(sink circuit.NetID, vec sim.Vector) ([]circuit.NetID, error) {
	r, err := sim.Run(v.c, vec)
	if err != nil {
		return nil, err
	}
	l := v.c.Layout()
	path := []circuit.NetID{sink}
	n := sink
	for {
		drv := l.Driver(n)
		if drv == circuit.InvalidGate {
			break
		}
		ins := l.Inputs(drv)
		want := r.Settle[n].Sub(waveform.Time(l.Delay[drv]))
		ctrl, hasCtrl := l.Type[drv].HasControlling()
		var pick circuit.NetID = circuit.InvalidNet
		// Prefer a controlling-final input that locks the gate at
		// exactly the settle time; otherwise any input whose settle
		// realises the max rule.
		if hasCtrl {
			for _, x := range ins {
				if r.Value[x] == ctrl && r.Settle[x] == want {
					pick = x
					break
				}
			}
		}
		if pick == circuit.InvalidNet {
			for _, x := range ins {
				if r.Settle[x] == want {
					pick = x
					break
				}
			}
		}
		if pick == circuit.InvalidNet {
			// Defensive: the settle recursion guarantees a justifying
			// input; fall back to the slowest.
			pick = ins[0]
			for _, x := range ins {
				if r.Settle[x] > r.Settle[pick] {
					pick = x
				}
			}
		}
		path = append(path, pick)
		n = pick
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}
