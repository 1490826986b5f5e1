package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/waveform"
)

// Direct unit tests of the FAN-style backtrace over a hand-built
// system (same package: internals accessible).

func buildBacktraceCkt(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("bt")
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.Input("d")
	b.Gate(circuit.AND, 10, "p", "a", "b") // objective p=1 → all inputs 1
	b.Gate(circuit.OR, 10, "q", "c", "d")  // objective q=1 → one input 1
	b.Gate(circuit.XOR, 10, "x", "p", "q") // parity hop
	b.Gate(circuit.NOT, 10, "n", "x")      // inverting hop
	b.Gate(circuit.BUFFER, 10, "z", "n")   // unate hop
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBacktraceUnateAndParityHops(t *testing.T) {
	c := buildBacktraceCkt(t)
	v := NewVerifier(c, Default())
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()

	// Objective z=1 walks: buffer → n(1), NOT → x(0), XOR with both
	// p and q undecided → picks one leg with the residue value, then
	// AND/OR rules down to a primary input.
	z, _ := c.NetByName("z")
	net, val, ok := v.backtrace(sys, z, 1)
	if !ok {
		t.Fatal("backtrace must reach a decision point")
	}
	if !c.Net(net).IsPI && !c.IsStem(net) {
		t.Fatalf("decision point must be a PI or stem, got %s", c.Net(net).Name)
	}
	if val != 0 && val != 1 {
		t.Fatalf("bad value %d", val)
	}
}

func TestBacktraceRespectsDecidedNets(t *testing.T) {
	c := buildBacktraceCkt(t)
	v := NewVerifier(c, Default())
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()
	// Decide everything the z-objective needs: the chain dead-ends.
	sys.Mark()
	for _, n := range []string{"a", "b", "c", "d"} {
		id, _ := c.NetByName(n)
		sys.Narrow(id, waveform.SettledTo(1))
	}
	if !sys.Fixpoint() {
		t.Fatal("assignment must be consistent")
	}
	z, _ := c.NetByName("z")
	if _, _, ok := v.backtrace(sys, z, 0); ok {
		t.Fatal("fully decided chain must dead-end (objective already determined)")
	}
}

func TestBacktraceUnreachableObjective(t *testing.T) {
	c := buildBacktraceCkt(t)
	v := NewVerifier(c, Default())
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()
	sys.Mark()
	// Remove class 1 from p's domain: objective p=1 is unreachable.
	p, _ := c.NetByName("p")
	sys.Narrow(p, waveform.SettledTo(0))
	sys.Fixpoint()
	if _, _, ok := v.backtrace(sys, p, 1); ok {
		t.Fatal("unreachable objective must fail")
	}
}

func TestBacktraceAndOrPolarity(t *testing.T) {
	c := buildBacktraceCkt(t)
	v := NewVerifier(c, Default())
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()

	// p=0 on an AND gate: ONE controlling input suffices (cheapest).
	p, _ := c.NetByName("p")
	net, val, ok := v.backtrace(sys, p, 0)
	if !ok || val != 0 {
		t.Fatalf("AND=0 backtrace: %v %d %v", net, val, ok)
	}
	if name := c.Net(net).Name; name != "a" && name != "b" {
		t.Fatalf("decision must be a or b, got %s", name)
	}
	// p=1 needs all inputs 1; decision still lands on one of them with
	// value 1 (hardest-first).
	_, val, ok = v.backtrace(sys, p, 1)
	if !ok || val != 1 {
		t.Fatalf("AND=1 backtrace: val %d ok %v", val, ok)
	}
	// q=1 on an OR gate: one input at 1.
	q, _ := c.NetByName("q")
	_, val, ok = v.backtrace(sys, q, 1)
	if !ok || val != 1 {
		t.Fatalf("OR=1 backtrace: val %d ok %v", val, ok)
	}
	// q=0 needs all inputs 0.
	_, val, ok = v.backtrace(sys, q, 0)
	if !ok || val != 0 {
		t.Fatalf("OR=0 backtrace: val %d ok %v", val, ok)
	}
}

func TestUnjustifiedDetection(t *testing.T) {
	c := buildBacktraceCkt(t)
	v := NewVerifier(c, Options{}) // no learning: keep domains loose
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()
	sys.Mark()
	// Pin p to 0 without pinning its inputs: p is unjustified.
	p, _ := c.NetByName("p")
	sys.Narrow(p, waveform.SettledTo(0))
	sys.Fixpoint()
	if val, ok := v.unjustified(sys, p); !ok || val != 0 {
		t.Fatal("p must be reported unjustified")
	}
	// Now justify it: a = 0 controls the AND.
	a, _ := c.NetByName("a")
	sys.Narrow(a, waveform.SettledTo(0))
	sys.Fixpoint()
	if _, ok := v.unjustified(sys, p); ok {
		t.Fatal("p is justified by a=0 now")
	}
}
