package gen

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestIndustrialDeterministic(t *testing.T) {
	a := Industrial(7, 6, 5)
	b := Industrial(7, 6, 5)
	if circuit.BenchString(a) != circuit.BenchString(b) {
		t.Fatal("Industrial must be deterministic per seed")
	}
	c := Industrial(8, 6, 5)
	if circuit.BenchString(a) == circuit.BenchString(c) {
		t.Fatal("different seeds must differ")
	}
}

func TestIndustrialShapes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := Industrial(seed, 8, 5)
		st := c.Stats()
		if st.Gates < 10 {
			t.Fatalf("seed %d: too small (%d gates)", seed, st.Gates)
		}
		if st.POs == 0 || st.PIs == 0 {
			t.Fatalf("seed %d: missing ports: %+v", seed, st)
		}
	}
}

// TestIndustrialSoak is the engine soak test: on mid-size hierarchical
// circuits the exact floating delay must match the exhaustive oracle on
// every output. Slow-ish; skipped with -short.
func TestIndustrialSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := int64(0); seed < 12; seed++ {
		c := Industrial(seed, 5, 5)
		if len(c.PrimaryInputs()) > 16 {
			continue // keep the oracle tractable
		}
		v := core.NewVerifier(c, core.Default())
		for _, po := range c.PrimaryOutputs() {
			want, _, err := sim.FloatingDelayExhaustive(c, po)
			if err != nil {
				t.Fatal(err)
			}
			got, err := v.ExactFloatingDelayCtx(context.Background(), po, core.Request{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Exact || got.Delay != want {
				t.Fatalf("seed %d output %s: engine %s (exact=%v), oracle %s",
					seed, c.Net(po).Name, got.Delay, got.Exact, want)
			}
		}
	}
}
