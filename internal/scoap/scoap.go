// Package scoap computes SCOAP combinational controllabilities
// (Goldstein & Thigpen), which the paper's case analysis uses to guide
// its backtrace: when several inputs could satisfy an objective, the
// cheapest-to-control one is chosen.
package scoap

import (
	"repro/internal/circuit"
)

// Infinity is the controllability assigned to unreachable combinations.
const Infinity = int64(1) << 40

// Controllability holds CC0/CC1 for every net: the SCOAP estimate of
// how many circuit lines must be set to drive the net to 0 / 1.
type Controllability struct {
	CC0, CC1 []int64
}

// Compute runs the standard one-pass (topological) combinational
// controllability calculation. Primary inputs cost 1 for either value.
func Compute(c *circuit.Circuit) *Controllability {
	cc := &Controllability{
		CC0: make([]int64, c.NumNets()),
		CC1: make([]int64, c.NumNets()),
	}
	for i := range cc.CC0 {
		cc.CC0[i] = Infinity
		cc.CC1[i] = Infinity
	}
	for _, pi := range c.PrimaryInputs() {
		cc.CC0[pi] = 1
		cc.CC1[pi] = 1
	}
	l := c.Layout()
	for _, g := range c.TopoGates() {
		out := l.Out[g]
		cc.CC0[out], cc.CC1[out] = gateControllability(l.Type[g], l.Inputs(g), cc)
	}
	return cc
}

// Project returns the controllabilities of a fan-in cone sub-circuit
// by index translation: fromSub maps cone net ids to original ids.
// SCOAP controllability is a pure function of a net's fan-in cone, and
// a fan-in cone slice preserves every net's fan-in, so the copied
// values are identical to recomputing on the slice — without the
// topological pass.
func (cc *Controllability) Project(fromSub []circuit.NetID) *Controllability {
	p := &Controllability{
		CC0: make([]int64, len(fromSub)),
		CC1: make([]int64, len(fromSub)),
	}
	for i, on := range fromSub {
		p.CC0[i] = cc.CC0[on]
		p.CC1[i] = cc.CC1[on]
	}
	return p
}

// Cost returns the controllability of driving net n to value v.
func (cc *Controllability) Cost(n circuit.NetID, v int) int64 {
	if v == 0 {
		return cc.CC0[n]
	}
	return cc.CC1[n]
}

func addSat(a, b int64) int64 {
	s := a + b
	if s > Infinity {
		return Infinity
	}
	return s
}

func gateControllability(t circuit.GateType, ins []circuit.NetID, cc *Controllability) (c0, c1 int64) {
	switch t {
	case circuit.AND, circuit.NAND:
		// AND=1 needs all inputs 1; AND=0 needs the cheapest input 0.
		all1 := int64(1)
		min0 := Infinity
		for _, x := range ins {
			all1 = addSat(all1, cc.CC1[x])
			if cc.CC0[x] < min0 {
				min0 = cc.CC0[x]
			}
		}
		min0 = addSat(min0, 1)
		if t == circuit.AND {
			return min0, all1
		}
		return all1, min0
	case circuit.OR, circuit.NOR:
		all0 := int64(1)
		min1 := Infinity
		for _, x := range ins {
			all0 = addSat(all0, cc.CC0[x])
			if cc.CC1[x] < min1 {
				min1 = cc.CC1[x]
			}
		}
		min1 = addSat(min1, 1)
		if t == circuit.OR {
			return all0, min1
		}
		return min1, all0
	case circuit.NOT:
		return addSat(cc.CC1[ins[0]], 1), addSat(cc.CC0[ins[0]], 1)
	case circuit.BUFFER, circuit.DELAY:
		return addSat(cc.CC0[ins[0]], 1), addSat(cc.CC1[ins[0]], 1)
	case circuit.XOR, circuit.XNOR:
		// Dynamic programming over the inputs: cost of achieving each
		// running parity.
		even, odd := int64(0), Infinity
		for _, x := range ins {
			e2 := min(addSat(even, cc.CC0[x]), addSat(odd, cc.CC1[x]))
			o2 := min(addSat(even, cc.CC1[x]), addSat(odd, cc.CC0[x]))
			even, odd = e2, o2
		}
		even, odd = addSat(even, 1), addSat(odd, 1)
		if t == circuit.XOR {
			return even, odd
		}
		return odd, even
	}
	return Infinity, Infinity
}
