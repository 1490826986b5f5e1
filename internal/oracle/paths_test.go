package oracle

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/waveform"
)

func TestKLongestPathsChain(t *testing.T) {
	c := gen.C17(10)
	g22 := id(t, c, "G22")
	paths := KLongestPaths(c, g22, 10)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Longest paths to G22 have length 30 (G3/G6 → G11 → G16 → G22).
	if paths[0].Length != 30 {
		t.Fatalf("longest = %s, want 30", paths[0].Length)
	}
	// Descending lengths.
	for i := 1; i < len(paths); i++ {
		if paths[i].Length > paths[i-1].Length {
			t.Fatal("paths not sorted by length")
		}
	}
	// Every path is structurally valid: starts at a PI, ends at G22,
	// consecutive nets connected through a gate.
	for _, p := range paths {
		if !c.Net(p.Nets[0]).IsPI {
			t.Fatalf("path must start at a PI: %v", PathNames(c, p))
		}
		if p.Nets[len(p.Nets)-1] != g22 {
			t.Fatalf("path must end at sink: %v", PathNames(c, p))
		}
		var length waveform.Time
		for i := 1; i < len(p.Nets); i++ {
			g := c.Gate(c.Net(p.Nets[i]).Driver)
			found := false
			for _, in := range g.Inputs {
				if in == p.Nets[i-1] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("path edge %d invalid: %v", i, PathNames(c, p))
			}
			length = length.Add(waveform.Time(g.Delay))
		}
		if length != p.Length {
			t.Fatalf("path length %s inconsistent with structure %s", p.Length, length)
		}
	}
}

func TestKLongestPathsCount(t *testing.T) {
	c := gen.C17(10)
	g22 := id(t, c, "G22")
	// G22 has exactly 4 input-to-output paths:
	// G1→G10→G22, G3→G10→G22, G3→G11→G16→G22, G6→G11→G16→G22, G2→G16→G22.
	all := KLongestPaths(c, g22, 100)
	if len(all) != 5 {
		for _, p := range all {
			t.Logf("path: %v (%s)", PathNames(c, p), p.Length)
		}
		t.Fatalf("got %d paths, want 5", len(all))
	}
	two := KLongestPaths(c, g22, 2)
	if len(two) != 2 || two[0].Length != 30 || two[1].Length != 30 {
		t.Fatalf("top-2 wrong: %v", two)
	}
	if KLongestPaths(c, g22, 0) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestKLongestPathsDegenerate(t *testing.T) {
	// A PI that is also a PO has one zero-length path.
	b := circuit.NewBuilder("deg")
	b.Input("a")
	b.Output("a")
	b.Input("b")
	b.Gate(circuit.NOT, 5, "z", "b")
	b.Output("z")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.NetByName("a")
	paths := KLongestPaths(c, a, 5)
	if len(paths) != 1 || paths[0].Length != 0 || len(paths[0].Nets) != 1 {
		t.Fatalf("degenerate path wrong: %+v", paths)
	}
}
