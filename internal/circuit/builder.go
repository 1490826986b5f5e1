package circuit

import (
	"fmt"
	"sort"
)

// Builder incrementally constructs a Circuit. The zero value is not
// usable; create one with NewBuilder.
type Builder struct {
	c      *Circuit
	pi     []bool // declared a primary input, by net id
	driven []bool // has a gate driving it, by net id
	errs   []error
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
	id := NetID(len(b.c.names))
	b.c.names = append(b.c.names, name)
	b.c.isPO = append(b.c.isPO, false)
	b.pi = append(b.pi, false)
	b.driven = append(b.driven, false)
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
	if !b.pi[id] {
		b.pi[id] = true
		b.c.pis = append(b.c.pis, id)
	}
	return id
}

// Output declares the named net as a primary output and returns its id.
func (b *Builder) Output(name string) NetID {
	id := b.Net(name)
	if !b.c.isPO[id] {
		b.c.isPO[id] = true
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

// addGate appends to the layout the gate whose inputs are its pins
// from start on, with both delay bounds d.
func (b *Builder) addGate(t GateType, d int64, out NetID, start int) {
	l, name := &b.c.layout, b.c.names[out]
	if k := len(l.Pins) - start; k < t.MinInputs() || k > t.MaxInputs() {
		b.errs = append(b.errs, fmt.Errorf("circuit %q: gate %s driving %q has %d inputs", b.c.Name, t, name, k))
	}
	if d < 0 {
		b.errs = append(b.errs, fmt.Errorf("circuit %q: gate driving %q has negative delay %d", b.c.Name, name, d))
	}
	if b.driven[out] {
		b.errs = append(b.errs, fmt.Errorf("circuit %q: net %q driven twice", b.c.Name, name))
		l.Pins = l.Pins[:start]
		return
	}
	b.driven[out] = true
	l.PinStart = append(l.PinStart, int32(start))
	l.Out = append(l.Out, out)
	l.Type = append(l.Type, t)
	l.Delay = append(l.Delay, d)
	l.DMin = append(l.DMin, d)
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
// found. A built circuit's primary inputs are exactly its undriven
// nets, so it needs no primary-input flag.
func (b *Builder) Build() (*Circuit, error) {
	c := b.c
	c.names, c.isPO = exact(c.names), exact(c.isPO)
	c.pis, c.pos = exact(c.pis), exact(c.pos)
	c.lay()
	errs := b.errs
	for n, name := range c.names {
		switch {
		case !b.driven[n] && !b.pi[n]:
			errs = append(errs, fmt.Errorf("circuit %q: net %q has no driver and is not a primary input", c.Name, name))
		case b.driven[n] && b.pi[n]:
			errs = append(errs, fmt.Errorf("circuit %q: primary input %q is driven by a gate", c.Name, name))
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
