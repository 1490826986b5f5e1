package circuit

import (
	"strings"
	"testing"
)

// buildC17 constructs the ISCAS'85 c17 netlist (the one benchmark small
// enough to be fully public knowledge): six 2-input NANDs.
func buildC17(t testing.TB, delay int64) *Circuit {
	t.Helper()
	b := NewBuilder("c17")
	for _, n := range []string{"G1", "G2", "G3", "G6", "G7"} {
		b.Input(n)
	}
	b.Gate(NAND, delay, "G10", "G1", "G3")
	b.Gate(NAND, delay, "G11", "G3", "G6")
	b.Gate(NAND, delay, "G16", "G2", "G11")
	b.Gate(NAND, delay, "G19", "G11", "G7")
	b.Gate(NAND, delay, "G22", "G10", "G16")
	b.Gate(NAND, delay, "G23", "G16", "G19")
	b.Output("G22")
	b.Output("G23")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("c17 build: %v", err)
	}
	return c
}

func TestBuilderBasic(t *testing.T) {
	c := buildC17(t, 10)
	if c.NumGates() != 6 {
		t.Fatalf("gates = %d", c.NumGates())
	}
	if c.NumNets() != 11 {
		t.Fatalf("nets = %d", c.NumNets())
	}
	if len(c.PrimaryInputs()) != 5 || len(c.PrimaryOutputs()) != 2 {
		t.Fatal("PI/PO counts wrong")
	}
	id, ok := c.NetByName("G16")
	if !ok {
		t.Fatal("G16 missing")
	}
	if c.Net(id).Driver == InvalidGate {
		t.Fatal("G16 must be driven")
	}
	if got := c.FanoutCount(id); got != 2 {
		t.Fatalf("fanout of G16 = %d, want 2", got)
	}
	if !c.IsStem(id) {
		t.Fatal("G16 is a fanout stem")
	}
}

func TestBuilderErrors(t *testing.T) {
	// Doubly driven net.
	b := NewBuilder("bad")
	b.Input("a")
	b.Input("b")
	b.Gate(AND, 1, "x", "a", "b")
	b.Gate(OR, 1, "x", "a", "b")
	b.Output("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "driven twice") {
		t.Fatalf("want driven-twice error, got %v", err)
	}

	// Undriven non-input net.
	b = NewBuilder("bad2")
	b.Input("a")
	b.Gate(AND, 1, "x", "a", "ghost")
	b.Output("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no driver") {
		t.Fatalf("want no-driver error, got %v", err)
	}

	// Driven primary input.
	b = NewBuilder("bad3")
	b.Input("a")
	b.Input("x")
	b.Gate(NOT, 1, "x", "a")
	b.Output("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "driven by a gate") {
		t.Fatalf("want driven-PI error, got %v", err)
	}

	// No outputs.
	b = NewBuilder("bad4")
	b.Input("a")
	b.Gate(NOT, 1, "x", "a")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no primary outputs") {
		t.Fatalf("want no-PO error, got %v", err)
	}

	// Negative delay.
	b = NewBuilder("bad5")
	b.Input("a")
	b.Gate(NOT, -3, "x", "a")
	b.Output("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "negative delay") {
		t.Fatalf("want negative-delay error, got %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder("cyc")
	b.Input("a")
	b.Gate(AND, 1, "x", "a", "y")
	b.Gate(AND, 1, "y", "a", "x")
	b.Output("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	c := buildC17(t, 10)
	pos := map[GateID]int{}
	for i, g := range c.TopoGates() {
		pos[g] = i
	}
	if len(pos) != c.NumGates() {
		t.Fatal("topo order must cover all gates")
	}
	for i := 0; i < c.NumGates(); i++ {
		g := c.Gate(GateID(i))
		for _, in := range g.Inputs {
			if d := c.Net(in).Driver; d != InvalidGate {
				if pos[d] >= pos[g.ID] {
					t.Fatalf("gate %d before its driver %d", g.ID, d)
				}
			}
		}
	}
}

func TestLevels(t *testing.T) {
	c := buildC17(t, 10)
	lvl := func(n string) int {
		id, _ := c.NetByName(n)
		return c.Level(id)
	}
	if lvl("G1") != 0 || lvl("G10") != 1 || lvl("G16") != 2 || lvl("G22") != 3 {
		t.Fatalf("levels: G1=%d G10=%d G16=%d G22=%d", lvl("G1"), lvl("G10"), lvl("G16"), lvl("G22"))
	}
	if c.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d", c.MaxLevel())
	}
}

func TestTransitiveFanin(t *testing.T) {
	c := buildC17(t, 10)
	g22, _ := c.NetByName("G22")
	fin := c.TransitiveFanin(g22)
	for _, name := range []string{"G22", "G10", "G16", "G11", "G1", "G2", "G3", "G6"} {
		id, _ := c.NetByName(name)
		if !fin[id] {
			t.Errorf("%s must be in fanin of G22", name)
		}
	}
	for _, name := range []string{"G7", "G19", "G23"} {
		id, _ := c.NetByName(name)
		if fin[id] {
			t.Errorf("%s must not be in fanin of G22", name)
		}
	}
}

func TestReconvergentStems(t *testing.T) {
	c := buildC17(t, 10)
	stems := c.ReconvergentStems()
	names := map[string]bool{}
	for _, s := range stems {
		names[c.Net(s).Name] = true
	}
	// G11 feeds G16 and G19 which reconverge at G23; G16 feeds G22 and
	// G23 which do not reconverge (no common successor).
	if !names["G11"] {
		t.Errorf("G11 must be a reconvergent stem, got %v", names)
	}
	if names["G16"] {
		t.Errorf("G16 branches do not reconverge, got %v", names)
	}

	// A pure tree has no reconvergent stems.
	b := NewBuilder("tree")
	b.Input("a")
	b.Input("b")
	b.Input("c")
	b.Input("d")
	b.Gate(AND, 1, "x", "a", "b")
	b.Gate(AND, 1, "y", "c", "d")
	b.Gate(OR, 1, "z", "x", "y")
	b.Output("z")
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.ReconvergentStems(); len(got) != 0 {
		t.Fatalf("tree must have no reconvergent stems, got %v", got)
	}
}

// evalNet evaluates the final value of a named net under the given PI
// assignment (zero-delay semantics), for tests.
func evalNet(c *Circuit, name string, pi map[string]int) int {
	vals := make([]int, c.NumNets())
	for i := range vals {
		vals[i] = -1
	}
	for n, v := range pi {
		id, ok := c.NetByName(n)
		if !ok {
			panic("unknown PI " + n)
		}
		vals[id] = v
	}
	for _, gid := range c.TopoGates() {
		g := c.Gate(gid)
		in := make([]int, len(g.Inputs))
		for i, x := range g.Inputs {
			if vals[x] < 0 {
				panic("unset net " + c.Net(x).Name)
			}
			in[i] = vals[x]
		}
		vals[g.Output] = g.Type.Eval(in)
	}
	id, ok := c.NetByName(name)
	if !ok {
		panic("unknown net " + name)
	}
	return vals[id]
}

func TestStats(t *testing.T) {
	c := buildC17(t, 10)
	s := c.Stats()
	if s.Gates != 6 || s.Nets != 11 || s.PIs != 5 || s.POs != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxFanin != 2 || s.MaxFanout != 2 || s.Levels != 3 {
		t.Fatalf("stats = %+v", s)
	}
}
