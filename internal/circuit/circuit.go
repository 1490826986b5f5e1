package circuit

import (
	"fmt"
	"sort"
)

// NetID identifies a net (an edge of the circuit graph). Nets are
// delayless; delays live on gates.
type NetID int32

// GateID identifies a gate (a vertex of the circuit graph).
type GateID int32

// InvalidNet marks the absence of a net.
const InvalidNet NetID = -1

// InvalidGate marks the absence of a gate.
const InvalidGate GateID = -1

// Gate is one vertex of the combinational circuit: a Boolean function
// of its input nets driving a single output net after Delay time units
// (the d_max bound; DMin is kept for completeness but the floating-mode
// maximum-delay calculation uses only Delay, as in the paper). Inputs
// is a sub-slice of the circuit's Layout; change the delays of a built
// circuit with Circuit.SetDelay.
type Gate struct {
	ID     GateID
	Type   GateType
	Inputs []NetID
	Output NetID
	Delay  int64 // d_max
	DMin   int64 // d_min (informational)
}

// Net is one edge of the circuit graph. A net is driven by at most one
// gate (Driver == InvalidGate for primary inputs) and fans out to any
// number of gate inputs. Fanout is a sub-slice of the circuit's Layout.
type Net struct {
	ID     NetID
	Name   string
	Driver GateID   // driving gate, InvalidGate for primary inputs
	Fanout []GateID // gates having this net as an input
	IsPI   bool
	IsPO   bool
}

// Circuit is an immutable-after-Build combinational netlist. Use
// Builder to construct one.
type Circuit struct {
	Name  string
	nets  []Net
	gates []Gate
	byNam map[string]NetID

	pis []NetID
	pos []NetID

	topoGates []GateID // gates in topological (fanin-first) order
	netLevel  []int32  // levelisation: PI nets at 0, net level = 1+max(input levels) of driver

	// layout is the flat gate layout. While building, its Pins and
	// PinStart collect the gates' inputs; Build fills the rest.
	layout Layout
}

// NumNets returns the number of nets.
func (c *Circuit) NumNets() int { return len(c.nets) }

// NumGates returns the number of gates.
func (c *Circuit) NumGates() int { return len(c.gates) }

// Net returns the net with the given id.
func (c *Circuit) Net(id NetID) *Net { return &c.nets[id] }

// Gate returns the gate with the given id.
func (c *Circuit) Gate(id GateID) *Gate { return &c.gates[id] }

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
func (c *Circuit) FanoutCount(n NetID) int { return len(c.nets[n].Fanout) }

// IsStem reports whether net n is a fanout stem (fans out to two or
// more gate inputs).
func (c *Circuit) IsStem(n NetID) bool { return len(c.nets[n].Fanout) >= 2 }

// Builder incrementally constructs a Circuit. The zero value is not
// usable; create one with NewBuilder.
type Builder struct {
	c    *Circuit
	errs []error
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{c: &Circuit{Name: name, byNam: map[string]NetID{}}}
}

// Net returns the id of the named net, creating it if necessary.
func (b *Builder) Net(name string) NetID {
	if id, ok := b.c.byNam[name]; ok {
		return id
	}
	id := NetID(len(b.c.nets))
	b.c.nets = append(b.c.nets, Net{ID: id, Name: name, Driver: InvalidGate})
	b.c.byNam[name] = id
	return id
}

// netBytes is Net for a name held in a reused buffer: the name is
// copied only when the net is new.
func (b *Builder) netBytes(name []byte) NetID {
	if id, ok := b.c.byNam[string(name)]; ok {
		return id
	}
	return b.Net(string(name))
}

// Input declares the named net as a primary input and returns its id.
func (b *Builder) Input(name string) NetID {
	id := b.Net(name)
	if !b.c.nets[id].IsPI {
		b.c.nets[id].IsPI = true
		b.c.pis = append(b.c.pis, id)
	}
	return id
}

// Output declares the named net as a primary output and returns its id.
func (b *Builder) Output(name string) NetID {
	id := b.Net(name)
	if !b.c.nets[id].IsPO {
		b.c.nets[id].IsPO = true
		b.c.pos = append(b.c.pos, id)
	}
	return id
}

// Gate adds a gate of the given type with delay d driving net out from
// the given inputs, and returns the output net id.
func (b *Builder) Gate(t GateType, d int64, out string, in ...string) NetID {
	l := &b.c.layout
	start := len(l.Pins)
	for _, n := range in {
		l.Pins = append(l.Pins, b.Net(n))
	}
	o := b.Net(out)
	b.addGate(t, d, o, start)
	return o
}

// GateIDs is Gate with pre-resolved net ids.
func (b *Builder) GateIDs(t GateType, d int64, out NetID, in ...NetID) {
	l := &b.c.layout
	start := len(l.Pins)
	l.Pins = append(l.Pins, in...)
	b.addGate(t, d, out, start)
}

// addGate adds the gate whose inputs are the layout's pins from start
// on; Build points its Inputs and the nets' Fanout into the layout.
func (b *Builder) addGate(t GateType, d int64, out NetID, start int) {
	l := &b.c.layout
	if k := len(l.Pins) - start; k < t.MinInputs() || k > t.MaxInputs() {
		b.errs = append(b.errs, fmt.Errorf("circuit %q: gate %s driving %q has %d inputs",
			b.c.Name, t, b.c.nets[out].Name, k))
	}
	if d < 0 {
		b.errs = append(b.errs, fmt.Errorf("circuit %q: gate driving %q has negative delay %d",
			b.c.Name, b.c.nets[out].Name, d))
	}
	if b.c.nets[out].Driver != InvalidGate {
		b.errs = append(b.errs, fmt.Errorf("circuit %q: net %q driven twice",
			b.c.Name, b.c.nets[out].Name))
		l.Pins = l.Pins[:start]
		return
	}
	g := Gate{ID: GateID(len(b.c.gates)), Type: t, Output: out, Delay: d, DMin: d}
	b.c.gates = append(b.c.gates, g)
	l.PinStart = append(l.PinStart, int32(start))
	b.c.nets[out].Driver = g.ID
}

// MUX adds a 2:1 multiplexer out = sel ? a1 : a0, lowered into the base
// gate library (two ANDs, a NOT and an OR, each with delay d), and
// returns the output net id. The intermediate nets are named after out.
func (b *Builder) MUX(d int64, out, sel, a0, a1 string) NetID {
	nsel := out + "$nsel"
	t0 := out + "$t0"
	t1 := out + "$t1"
	b.Gate(NOT, d, nsel, sel)
	b.Gate(AND, d, t0, nsel, a0)
	b.Gate(AND, d, t1, sel, a1)
	return b.Gate(OR, d, out, t0, t1)
}

// Build validates the netlist (single drivers, declared PIs, acyclic)
// and freezes it. It returns an error describing the first problems
// found.
func (b *Builder) Build() (*Circuit, error) {
	c := b.c
	c.lay()
	errs := b.errs
	for i := range c.nets {
		n := &c.nets[i]
		if n.Driver == InvalidGate && !n.IsPI {
			errs = append(errs, fmt.Errorf("circuit %q: net %q has no driver and is not a primary input", c.Name, n.Name))
		}
		if n.Driver != InvalidGate && n.IsPI {
			errs = append(errs, fmt.Errorf("circuit %q: primary input %q is driven by a gate", c.Name, n.Name))
		}
	}
	if len(c.pos) == 0 {
		errs = append(errs, fmt.Errorf("circuit %q: no primary outputs declared", c.Name))
	}
	if err := c.computeTopo(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return nil, fmt.Errorf("circuit build failed: %v", errs[0])
	}
	return c, nil
}

// computeTopo performs Kahn's algorithm over gates and levelises nets;
// it fails if the netlist contains a cycle.
func (c *Circuit) computeTopo() error {
	indeg := make([]int32, len(c.gates))
	for i := range c.gates {
		for _, in := range c.gates[i].Inputs {
			if c.nets[in].Driver != InvalidGate {
				indeg[i]++
			}
		}
	}
	queue := make([]GateID, 0, len(c.gates))
	for i := range c.gates {
		if indeg[i] == 0 {
			queue = append(queue, GateID(i))
		}
	}
	c.topoGates = c.topoGates[:0]
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		c.topoGates = append(c.topoGates, g)
		out := c.gates[g].Output
		for _, succ := range c.nets[out].Fanout {
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(c.topoGates) != len(c.gates) {
		return fmt.Errorf("circuit %q: combinational netlist contains a cycle", c.Name)
	}
	c.netLevel = make([]int32, len(c.nets))
	for _, gid := range c.topoGates {
		g := &c.gates[gid]
		lvl := int32(0)
		for _, in := range g.Inputs {
			if c.netLevel[in] >= lvl {
				lvl = c.netLevel[in] + 1
			}
		}
		if c.netLevel[g.Output] < lvl {
			c.netLevel[g.Output] = lvl
		}
	}
	return nil
}

// TransitiveFanin returns the set of nets in the fan-in cone of net n
// (including n itself), as a boolean slice indexed by NetID.
func (c *Circuit) TransitiveFanin(n NetID) []bool {
	seen := make([]bool, len(c.nets))
	stack := []NetID{n}
	seen[n] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d := c.nets[x].Driver; d != InvalidGate {
			for _, in := range c.gates[d].Inputs {
				if !seen[in] {
					seen[in] = true
					stack = append(stack, in)
				}
			}
		}
	}
	return seen
}

// TransitiveFanout returns the set of nets reachable from net n
// (including n itself), as a boolean slice indexed by NetID.
func (c *Circuit) TransitiveFanout(n NetID) []bool {
	seen := make([]bool, len(c.nets))
	stack := []NetID{n}
	seen[n] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range c.nets[x].Fanout {
			o := c.gates[g].Output
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
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
	reach := make([]int32, len(c.nets)) // visit stamp per net
	stamp := int32(0)
	var stack []NetID // the depth-first stack, reused by every branch
	for i := range c.nets {
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
	s := Stats{Nets: len(c.nets), Gates: len(c.gates), PIs: len(c.pis), POs: len(c.pos), Levels: c.MaxLevel()}
	for i := range c.gates {
		if len(c.gates[i].Inputs) > s.MaxFanin {
			s.MaxFanin = len(c.gates[i].Inputs)
		}
	}
	for i := range c.nets {
		if len(c.nets[i].Fanout) > s.MaxFanout {
			s.MaxFanout = len(c.nets[i].Fanout)
		}
	}
	return s
}
