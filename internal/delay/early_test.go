package delay

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

func TestEarliestArrival(t *testing.T) {
	c := c17(t)
	e := NewEarly(c)
	// All gates have DMin = Delay = 10 by construction here.
	want := map[string]waveform.Time{
		"G1": 0, "G3": 0,
		"G10": 10, "G11": 10,
		"G16": 10, // min path: G2 → G16 (one gate)
		"G22": 20, // min path: e.g. G1 → G10 → G22
		"G23": 20,
	}
	for name, w := range want {
		if got := e.Earliest(id(t, c, name)); got != w {
			t.Errorf("earliest(%s) = %s, want %s", name, got, w)
		}
	}
	if e.ShortestPath() != 20 {
		t.Fatalf("shortest path = %s, want 20", e.ShortestPath())
	}
}

func TestEarliestWithUnequalDMin(t *testing.T) {
	b := circuit.NewBuilder("dmin")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.AND, 10, "x", "a", "b")
	b.Gate(circuit.OR, 10, "z", "x", "b")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Backannotate distinct DMin values.
	x, _ := c.NetByName("x")
	z, _ := c.NetByName("z")
	c.SetDelay(c.Net(x).Driver, 10, 4)
	c.SetDelay(c.Net(z).Driver, 10, 7)
	e := NewEarly(c)
	if got := e.Earliest(x); got != 4 {
		t.Fatalf("earliest(x) = %s, want 4", got)
	}
	// z: min(via b directly: 0+7, via x: 4+7) = 7.
	if got := e.Earliest(z); got != 7 {
		t.Fatalf("earliest(z) = %s, want 7", got)
	}
	a := New(c)
	lo, hi := Window(e, a, z)
	if lo != 7 || hi != 20 {
		t.Fatalf("window(z) = [%s,%s], want [7,20]", lo, hi)
	}
	if lo > hi {
		t.Fatal("window must be ordered")
	}
}

func TestEarliestNeverExceedsLatest(t *testing.T) {
	c := c17(t)
	e := NewEarly(c)
	a := New(c)
	for n := 0; n < c.NumNets(); n++ {
		id := circuit.NetID(n)
		if e.Earliest(id) > a.Arrival(id) {
			t.Fatalf("net %s: earliest %s > latest %s", c.Net(id).Name, e.Earliest(id), a.Arrival(id))
		}
	}
}
