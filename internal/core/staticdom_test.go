package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
)

// TestStaticDominatorOption: enabling Lemma-3 static-dominator
// narrowing must preserve exactness and never weaken verdicts.
func TestStaticDominatorOption(t *testing.T) {
	opts := Default()
	opts.UseStaticDominators = true
	for seed := int64(0); seed < 15; seed++ {
		c := gen.Random(seed+210, 5, 12, 4)
		po := c.PrimaryOutputs()[0]
		want, _, err := sim.FloatingDelayExhaustive(c, po)
		if err != nil {
			t.Fatal(err)
		}
		v := NewVerifier(c, opts)
		got, err := v.ExactFloatingDelayCtx(context.Background(), po, Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Exact || got.Delay != want {
			t.Fatalf("seed %d: engine %s (exact=%v), oracle %s", seed, got.Delay, got.Exact, want)
		}
	}
}

// TestStaticDominatorsAloneRefuteChain: on a pure chain the static
// dominators already pin every net, so the Lemma-3 pre-pass plus the
// plain fixpoint refutes just past the exact delay without the dynamic
// machinery.
func TestStaticDominatorsAloneRefuteChain(t *testing.T) {
	c := gen.CarrySkipAdder(8, 4, 10)
	cout, _ := c.NetByName("cout")
	ref := NewVerifier(c, Default())
	res, err := ref.ExactFloatingDelayCtx(context.Background(), cout, Request{})
	if err != nil || !res.Exact {
		t.Fatalf("reference: %v %+v", err, res)
	}
	withStatic := NewVerifier(c, Options{UseStaticDominators: true, MaxBacktracks: 1 << 20})
	rep := withStatic.Run(context.Background(), Request{Sink: cout, Delta: res.Delay.Add(1)})
	if rep.Final != NoViolation {
		t.Fatalf("static-dominator config must still refute exactly, got %s", rep.Final)
	}
	rep = withStatic.Run(context.Background(), Request{Sink: cout, Delta: res.Delay})
	if rep.Final != ViolationFound {
		t.Fatalf("δ=exact must still be witnessed, got %s", rep.Final)
	}
}
