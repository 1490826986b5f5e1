package gen

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestStemGadgetStages pins the defining property of the gadget: the
// full-length timing check survives plain narrowing AND dominator
// implications, and is refuted exactly by stem correlation — the
// paper's c2670/c6288 situation.
func TestStemGadgetStages(t *testing.T) {
	c := StemGadget(6, 10)
	z, _ := c.NetByName("z")
	exact, _, err := sim.FloatingDelayExhaustive(c, z)
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewVerifier(c, core.Default())
	if v.Topological() != 100 {
		t.Fatalf("top = %s, want 100", v.Topological())
	}
	if exact >= 100 {
		t.Fatalf("the full-length path must be false, exact = %s", exact)
	}
	rep := v.Run(context.Background(), core.Request{Sink: z, Delta: exact.Add(1)})
	if rep.BeforeGITD != core.PossibleViolation {
		t.Fatalf("plain narrowing must NOT refute (the branch disjunction hides the conflict), got %s", rep.BeforeGITD)
	}
	if rep.AfterGITD != core.PossibleViolation {
		t.Fatalf("dominators must NOT refute (they only narrow the shared chain), got %s", rep.AfterGITD)
	}
	if rep.AfterStem != core.NoViolation {
		t.Fatalf("stem correlation must refute, got %s (CA=%s)", rep.AfterStem, rep.CaseAnalysis)
	}
	rep2 := v.Run(context.Background(), core.Request{Sink: z, Delta: exact})
	if rep2.Final != core.ViolationFound {
		t.Fatalf("δ=exact must be witnessed, got %s", rep2.Final)
	}
}

// TestStemGadgetExactness double-checks the engine against the oracle
// on several gadget sizes.
func TestStemGadgetExactness(t *testing.T) {
	for _, depth := range []int{3, 5, 8} {
		c := StemGadget(depth, 10)
		z, _ := c.NetByName("z")
		want, _, err := sim.FloatingDelayExhaustive(c, z)
		if err != nil {
			t.Fatal(err)
		}
		v := core.NewVerifier(c, core.Default())
		got, err := v.ExactFloatingDelayCtx(context.Background(), z, core.Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Exact || got.Delay != want {
			t.Fatalf("depth %d: engine %s (exact=%v), oracle %s", depth, got.Delay, got.Exact, want)
		}
	}
}
