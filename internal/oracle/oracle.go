// Package oracle holds the ground truth that tests compare the engine
// with: the concrete three-valued unrolled simulator (the executable
// definition of floating mode), the exhaustive floating delay of a
// whole circuit, zero-delay logic values, transitive fanout and K
// longest structural paths. Only tests import it, and it imports none
// of the engine's packages (constraint, dom, learn, core), so a test
// that checks the engine against it checks it against an independent
// computation. TestImportRule holds both rules.
package oracle

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Logic evaluates the zero-delay final value of every net under the
// vector.
func Logic(c *circuit.Circuit, v sim.Vector) ([]int, error) {
	r, err := sim.Run(c, v)
	if err != nil {
		return nil, err
	}
	return r.Value, nil
}

// CircuitFloatingDelayExhaustive computes the exact floating-mode delay
// of the whole circuit: the maximum over outputs and vectors of the
// settle time.
func CircuitFloatingDelayExhaustive(c *circuit.Circuit) (waveform.Time, error) {
	k := len(c.PrimaryInputs())
	if k > 24 {
		return 0, fmt.Errorf("oracle: %d inputs is too many for exhaustive search", k)
	}
	best := waveform.NegInf
	v := make(sim.Vector, k)
	for bits := 0; bits < 1<<k; bits++ {
		for i := 0; i < k; i++ {
			v[i] = (bits >> i) & 1
		}
		r, err := sim.Run(c, v)
		if err != nil {
			return 0, err
		}
		for _, po := range c.PrimaryOutputs() {
			if r.Settle[po] > best {
				best = r.Settle[po]
			}
		}
	}
	return best, nil
}

// TransitiveFanout returns the set of nets reachable from net n
// (including n itself), as a boolean slice indexed by NetID.
func TransitiveFanout(c *circuit.Circuit, n circuit.NetID) []bool {
	l := c.Layout()
	seen := make([]bool, c.NumNets())
	stack := []circuit.NetID{n}
	seen[n] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range l.Fanout(x) {
			if o := l.Out[g]; !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return seen
}
