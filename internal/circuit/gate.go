// Package circuit provides the gate-level combinational netlist
// substrate: the gate library of the paper (AND, NAND, OR, NOR, NOT,
// BUFFER, DELAY, XOR, XNOR), a directed-acyclic netlist with named
// nets, construction and validation, topological ordering, structural
// analyses (fanout, reconvergence), and an ISCAS-style ".bench" reader
// and writer.
package circuit

import "fmt"

// GateType enumerates the gate library of Section 2 of the paper.
type GateType uint8

const (
	// AND outputs 1 iff all inputs are 1. Controlling value 0.
	AND GateType = iota
	// NAND is the inverted AND. Controlling value 0.
	NAND
	// OR outputs 1 iff any input is 1. Controlling value 1.
	OR
	// NOR is the inverted OR. Controlling value 1.
	NOR
	// NOT inverts its single input.
	NOT
	// BUFFER repeats its single input.
	BUFFER
	// DELAY repeats its single input; by the paper's convention it is
	// the element that carries path delay, but this implementation lets
	// every gate carry a delay, so DELAY is a named BUFFER.
	DELAY
	// XOR outputs the parity of its inputs. No controlling value.
	XOR
	// XNOR outputs the inverted parity. No controlling value.
	XNOR
)

var gateNames = [...]string{
	AND: "AND", NAND: "NAND", OR: "OR", NOR: "NOR",
	NOT: "NOT", BUFFER: "BUFF", DELAY: "DELAY", XOR: "XOR", XNOR: "XNOR",
}

// String returns the canonical upper-case mnemonic used by .bench files.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType recognises the .bench mnemonics (case-insensitive;
// BUF and BUFF both accepted). It folds s to upper case, ASCII letters
// only, in a stack buffer — no mnemonic is longer than six bytes — so
// it allocates nothing and does not retain s.
func ParseGateType(s string) (GateType, bool) {
	var buf [6]byte
	if len(s) > len(buf) {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	switch string(buf[:len(s)]) {
	case "AND":
		return AND, true
	case "NAND":
		return NAND, true
	case "OR":
		return OR, true
	case "NOR":
		return NOR, true
	case "NOT", "INV":
		return NOT, true
	case "BUF", "BUFF", "BUFFER":
		return BUFFER, true
	case "DELAY", "DEL":
		return DELAY, true
	case "XOR":
		return XOR, true
	case "XNOR":
		return XNOR, true
	}
	return 0, false
}

// Inverting reports whether the gate complements its underlying
// monotone/parity function (NAND, NOR, NOT, XNOR).
func (t GateType) Inverting() bool {
	switch t {
	case NAND, NOR, NOT, XNOR:
		return true
	}
	return false
}

// HasControlling reports whether the gate has a controlling input value
// and returns it. Parity gates and single-input gates have none.
func (t GateType) HasControlling() (int, bool) {
	switch t {
	case AND, NAND:
		return 0, true
	case OR, NOR:
		return 1, true
	}
	return 0, false
}

// Unate reports whether the gate is a single-input gate (NOT, BUFFER,
// DELAY).
func (t GateType) Unate() bool {
	switch t {
	case NOT, BUFFER, DELAY:
		return true
	}
	return false
}

// Parity reports whether the gate computes (possibly inverted) parity.
func (t GateType) Parity() bool { return t == XOR || t == XNOR }

// Eval computes the Boolean function of the gate on the given input
// values (each 0 or 1).
func (t GateType) Eval(in []int) int {
	switch t {
	case AND, NAND:
		v := 1
		for _, x := range in {
			v &= x
		}
		if t == NAND {
			v ^= 1
		}
		return v
	case OR, NOR:
		v := 0
		for _, x := range in {
			v |= x
		}
		if t == NOR {
			v ^= 1
		}
		return v
	case NOT:
		return in[0] ^ 1
	case BUFFER, DELAY:
		return in[0]
	case XOR, XNOR:
		v := 0
		for _, x := range in {
			v ^= x
		}
		if t == XNOR {
			v ^= 1
		}
		return v
	}
	panic(fmt.Sprintf("circuit: Eval of unknown gate type %d", uint8(t)))
}

// MinInputs returns the smallest legal fan-in for the gate type.
// Multi-input types degenerate gracefully with one input (a 1-input
// AND/OR/XOR is a buffer, a 1-input NAND/NOR/XNOR an inverter), which
// technology-mapping passes rely on.
func (t GateType) MinInputs() int { return 1 }

// MaxInputs returns the largest legal fan-in: 1 for unate gates, 16
// for parity gates (whose timing constraint enumerates class
// combinations — decompose wider parities into trees, as MapToNOR and
// the generators do), unbounded otherwise.
func (t GateType) MaxInputs() int {
	switch {
	case t.Unate():
		return 1
	case t.Parity():
		return 16
	default:
		return 1 << 20
	}
}
