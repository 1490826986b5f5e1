package circuit

import "fmt"

// NetID identifies a net (an edge of the circuit graph). Nets are
// delayless; delays live on gates.
type NetID int32

// GateID identifies a gate (a vertex of the circuit graph).
type GateID int32

// InvalidNet marks the absence of a net.
const InvalidNet NetID = -1

// InvalidGate marks the absence of a gate.
const InvalidGate GateID = -1

// Gate is a view of one vertex of the combinational circuit: a Boolean
// function of its input nets driving a single output net after Delay
// time units (the d_max bound: the floating-mode maximum-delay
// calculation reads only d_max, as in the paper, so no d_min is
// stored). Circuit.Gate assembles it from the Layout, and Inputs is a
// read-only sub-slice of it; change the delays of a built circuit with
// Circuit.SetDelay.
type Gate struct {
	ID     GateID
	Type   GateType
	Inputs []NetID
	Output NetID
	Delay  int64 // d_max
}

// Net is a view of one edge of the circuit graph. A net is driven by
// at most one gate (Driver == InvalidGate exactly for primary inputs)
// and fans out to any number of gate inputs. Circuit.Net assembles it
// from the circuit, and Fanout is a read-only sub-slice of the Layout.
type Net struct {
	ID     NetID
	Name   string
	Driver GateID   // driving gate, InvalidGate for primary inputs
	Fanout []GateID // gates having this net as an input
	IsPI   bool
	IsPO   bool
}

// Circuit is an immutable-after-Build combinational netlist. It stores
// each fact once: net names and output flags here, every gate and its
// connectivity in the flat Layout. Use Builder to construct one.
type Circuit struct {
	Name  string
	names []string // net names by id
	byNam map[string]NetID
	isPO  []bool

	pis []NetID
	pos []NetID

	topoGates []GateID // gates in topological (fanin-first) order
	netLevel  []int32  // levelisation: PI nets at 0, net level = 1+max(input levels) of driver

	// layout is the flat gate layout. While building, the builder
	// appends every gate to it; Build fills the rest.
	layout Layout
}

// NumNets returns the number of nets.
func (c *Circuit) NumNets() int { return len(c.names) }

// NumGates returns the number of gates.
func (c *Circuit) NumGates() int { return len(c.layout.Out) }

// Net returns a view of the net with the given id.
func (c *Circuit) Net(id NetID) Net {
	d := c.layout.Driver(id)
	return Net{ID: id, Name: c.names[id], Driver: d, Fanout: c.layout.Fanout(id), IsPI: d == InvalidGate, IsPO: c.isPO[id]}
}

// Gate returns a view of the gate with the given id.
func (c *Circuit) Gate(id GateID) Gate {
	l := &c.layout
	return Gate{ID: id, Type: l.Type[id], Inputs: l.Inputs(id), Output: l.Out[id], Delay: l.Delay[id]}
}

// NetByName looks a net up by name.
func (c *Circuit) NetByName(name string) (NetID, bool) {
	id, ok := c.byNam[name]
	return id, ok
}

// PrimaryInputs returns the primary input nets in declaration order.
func (c *Circuit) PrimaryInputs() []NetID { return c.pis }

// PrimaryOutputs returns the primary output nets in declaration order.
func (c *Circuit) PrimaryOutputs() []NetID { return c.pos }

// TopoGates returns the gates in a topological order: every gate
// appears after the drivers of all its inputs.
func (c *Circuit) TopoGates() []GateID { return c.topoGates }

// Level returns the levelisation of net n: primary inputs are at level
// 0 and a driven net is one more than the maximum level of its driver's
// inputs.
func (c *Circuit) Level(n NetID) int { return int(c.netLevel[n]) }

// MaxLevel returns the largest net level in the circuit.
func (c *Circuit) MaxLevel() int {
	m := 0
	for _, l := range c.netLevel {
		if int(l) > m {
			m = int(l)
		}
	}
	return m
}

// FanoutCount returns the number of gate inputs net n feeds.
func (c *Circuit) FanoutCount(n NetID) int { return len(c.layout.Fanout(n)) }

// IsStem reports whether net n is a fanout stem (fans out to two or
// more gate inputs).
func (c *Circuit) IsStem(n NetID) bool { return c.FanoutCount(n) >= 2 }

// computeTopo performs Kahn's algorithm over gates and levelises nets;
// it fails if the netlist contains a cycle.
func (c *Circuit) computeTopo() error {
	l := &c.layout
	indeg := make([]int32, len(l.Out))
	queue := make([]GateID, 0, len(l.Out))
	for g := range indeg {
		for _, in := range l.Inputs(GateID(g)) {
			if l.Driver(in) != InvalidGate {
				indeg[g]++
			}
		}
		if indeg[g] == 0 {
			queue = append(queue, GateID(g))
		}
	}
	c.topoGates = c.topoGates[:0]
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		c.topoGates = append(c.topoGates, g)
		for _, succ := range l.Fanout(l.Out[g]) {
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(c.topoGates) != len(l.Out) {
		return fmt.Errorf("circuit %q: combinational netlist contains a cycle", c.Name)
	}
	c.netLevel = make([]int32, len(c.names))
	for _, g := range c.topoGates {
		lvl := int32(0)
		for _, in := range l.Inputs(g) {
			if c.netLevel[in] >= lvl {
				lvl = c.netLevel[in] + 1
			}
		}
		if c.netLevel[l.Out[g]] < lvl {
			c.netLevel[l.Out[g]] = lvl
		}
	}
	return nil
}

// TransitiveFanin returns the set of nets in the fan-in cone of net n
// (including n itself), as a boolean slice indexed by NetID.
func (c *Circuit) TransitiveFanin(n NetID) []bool {
	l := &c.layout
	seen := make([]bool, len(c.names))
	stack := []NetID{n}
	seen[n] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d := l.Driver(x); d != InvalidGate {
			for _, in := range l.Inputs(d) {
				if !seen[in] {
					seen[in] = true
					stack = append(stack, in)
				}
			}
		}
	}
	return seen
}

// ReconvergentStems returns the fanout stems whose branches reconverge:
// nets with fanout ≥ 2 from which at least one net is reachable along
// two edge-disjoint first hops (i.e. reachable from two different
// fanout branches). They are the stems subjected to stem correlation in
// Section 5 of the paper.
func (c *Circuit) ReconvergentStems() []NetID {
	var stems []NetID
	l := &c.layout
	reach := make([]int32, len(c.names)) // visit stamp per net
	stamp := int32(0)
	var stack []NetID // the depth-first stack, reused by every branch
	for i := range c.names {
		fanout := l.Fanout(NetID(i))
		if len(fanout) < 2 {
			continue
		}
		// Mark nets reachable from each branch; a net reached by two
		// different branches proves reconvergence.
		stamp++
		base := stamp
		recon := false
	branches:
		for _, g := range fanout {
			stack = append(stack[:0], l.Out[g])
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[x] >= base {
					if reach[x] != stamp { // reached by an earlier branch
						recon = true
						break branches
					}
					continue
				}
				reach[x] = stamp
				for _, fg := range l.Fanout(x) {
					stack = append(stack, l.Out[fg])
				}
			}
			stamp++
		}
		if recon {
			stems = append(stems, NetID(i))
		}
	}
	return stems
}

// Stats summarises the netlist for reports.
type Stats struct {
	Nets, Gates, PIs, POs int
	MaxFanin, MaxFanout   int
	Levels                int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	l := &c.layout
	s := Stats{Nets: len(c.names), Gates: len(l.Out), PIs: len(c.pis), POs: len(c.pos), Levels: c.MaxLevel()}
	for g := range l.Out {
		s.MaxFanin = max(s.MaxFanin, len(l.Inputs(GateID(g))))
	}
	for n := range c.names {
		s.MaxFanout = max(s.MaxFanout, len(l.Fanout(NetID(n))))
	}
	return s
}
