package circuit

// Layout is the flat gate layout, the only store of a circuit's gates
// and connectivity: every gate input in one CSR array, each net's
// driver followed by its fanout in another, and one array per gate
// attribute. The builder appends the gates and Build fills the rest
// once per circuit. The layout lives and dies with its circuit. It is
// read-only: change a gate's delays with Circuit.SetDelay.
type Layout struct {
	// Pins holds every gate's input nets, gate by gate: gate g's are
	// Pins[PinStart[g]:PinStart[g+1]].
	Pins     []NetID
	PinStart []int32

	// NetGates holds, net by net, the net's driver (when it has one)
	// and then its fanout gates in id order: net n's gates are
	// NetGates[NetStart[n]:NetStart[n+1]]. The driver is the one gate
	// there whose output is n, since no gate feeds its own output.
	NetGates []GateID
	NetStart []int32

	// Out, Type, Delay, DMin and Op hold each gate's output net, type,
	// d_max, d_min and opcode.
	Out   []NetID
	Type  []GateType
	Delay []int64
	DMin  []int64
	Op    []Op
}

// Op is a gate's opcode in the flat layout: its type refined by its
// fan-in, so a kernel dispatches on one dense switch per gate.
type Op uint8

const (
	OpBuffer   Op = iota // BUFFER or DELAY
	OpNot                // NOT
	OpAndOr1             // 1-input AND or OR: a buffer
	OpNandNor1           // 1-input NAND or NOR: an inverter
	OpAnd2               // 2-input AND
	OpNand2              // 2-input NAND
	OpOr2                // 2-input OR
	OpNor2               // 2-input NOR
	OpAnd                // AND with 3 or more inputs
	OpNand               // NAND with 3 or more inputs
	OpOr                 // OR with 3 or more inputs
	OpNor                // NOR with 3 or more inputs
	OpXor                // XOR, any fan-in
	OpXnor               // XNOR, any fan-in
)

// opOf returns the opcode of a gate of type t with k inputs.
func opOf(t GateType, k int) Op {
	switch t {
	case BUFFER, DELAY:
		return OpBuffer
	case NOT:
		return OpNot
	case XOR:
		return OpXor
	case XNOR:
		return OpXnor
	}
	// AND, NAND, OR, NOR are consecutive in both enumerations.
	sym := Op(t - AND)
	switch {
	case k == 1 && t.Inverting():
		return OpNandNor1
	case k == 1:
		return OpAndOr1
	case k == 2:
		return OpAnd2 + sym
	default:
		return OpAnd + sym
	}
}

// Inputs returns gate g's input nets.
func (l *Layout) Inputs(g GateID) []NetID {
	lo, hi := l.PinStart[g], l.PinStart[g+1]
	return l.Pins[lo:hi:hi]
}

// Gates returns the gates on net n: its driver first, when it has one,
// then its fanout gates.
func (l *Layout) Gates(n NetID) []GateID {
	lo, hi := l.NetStart[n], l.NetStart[n+1]
	return l.NetGates[lo:hi:hi]
}

// Fanout returns the gates net n feeds.
func (l *Layout) Fanout(n NetID) []GateID {
	gs := l.Gates(n)
	if len(gs) > 0 && l.Out[gs[0]] == n {
		return gs[1:]
	}
	return gs
}

// Driver returns the gate driving net n, or InvalidGate for a primary
// input.
func (l *Layout) Driver(n NetID) GateID {
	if gs := l.Gates(n); len(gs) > 0 && l.Out[gs[0]] == n {
		return gs[0]
	}
	return InvalidGate
}

// Layout returns the circuit's flat gate layout.
func (c *Circuit) Layout() *Layout { return &c.layout }

// NumPins returns the number of gate inputs in the circuit.
func (c *Circuit) NumPins() int { return len(c.layout.Pins) }

// SetDelay sets gate g's delay bounds (d_max, d_min). Back-annotation
// after Build must go through it.
func (c *Circuit) SetDelay(g GateID, dmax, dmin int64) {
	c.layout.Delay[g], c.layout.DMin[g] = dmax, dmin
}

// lay completes the flat layout from the gates the builder appended:
// it moves the appended arrays to arrays of exactly their length,
// dropping the spare capacity append growth left, and derives the
// opcodes and each net's driver and fanout. The fanout of a net lists
// its gates in increasing id order, a gate once per input pin it has
// on the net.
func (c *Circuit) lay() {
	l := &c.layout
	ng, nn := len(l.Out), len(c.names)
	l.PinStart = exact(append(l.PinStart[:ng], int32(len(l.Pins))))
	l.Pins, l.Out, l.Type = exact(l.Pins), exact(l.Out), exact(l.Type)
	l.Delay, l.DMin = exact(l.Delay), exact(l.DMin)
	l.Op = make([]Op, ng)
	l.NetStart = make([]int32, nn+1)
	for g, out := range l.Out {
		in := l.Inputs(GateID(g))
		l.Op[g] = opOf(l.Type[g], len(in))
		l.NetStart[out+1]++
		for _, n := range in {
			l.NetStart[n+1]++
		}
	}
	for n := 0; n < nn; n++ {
		l.NetStart[n+1] += l.NetStart[n]
	}
	// Fill each net's block with NetStart[n] as its write cursor,
	// drivers first, which leaves NetStart[n] at the next net's start;
	// then shift the offsets back.
	l.NetGates = make([]GateID, l.NetStart[nn])
	for g, out := range l.Out {
		l.NetGates[l.NetStart[out]] = GateID(g)
		l.NetStart[out]++
	}
	for g := range l.Out {
		for _, n := range l.Inputs(GateID(g)) {
			l.NetGates[l.NetStart[n]] = GateID(g)
			l.NetStart[n]++
		}
	}
	copy(l.NetStart[1:], l.NetStart[:nn])
	l.NetStart[0] = 0
}

// exact returns s in an array of exactly its length: s itself when it
// has no spare capacity, a copy otherwise.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	t := make(S, len(s))
	copy(t, s)
	return t
}
