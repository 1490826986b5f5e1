package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/waveform"
)

func TestPairInputDomain(t *testing.T) {
	d := pairInputDomain(1, 1)
	if v, ok := d.KnownValue(); !ok || v != 1 {
		t.Fatalf("constant input domain wrong: %s", d)
	}
	if d.W1.Lmax != waveform.NegInf {
		t.Fatalf("constant input must never transition: %s", d)
	}
	d = pairInputDomain(0, 1)
	if v, ok := d.KnownValue(); !ok || v != 1 {
		t.Fatalf("rising input domain wrong: %s", d)
	}
	if d.W1.Lmin != 0 || d.W1.Lmax != 0 {
		t.Fatalf("rising input must transition at exactly 0: %s", d)
	}
}

// TestCheckPairSoundAndTight: the narrowing bound must dominate the
// exact two-vector simulation on every net, and on tree-structured
// logic it is exact.
func TestCheckPairSoundAndTight(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c := gen.Random(seed+40, 4, 10, 5)
		v := NewVerifier(c, Default())
		k := len(c.PrimaryInputs())
		for a := 0; a < 1<<k; a++ {
			for b := 0; b < 1<<k; b += 3 { // sample pairs
				v1 := make(sim.Vector, k)
				v2 := make(sim.Vector, k)
				for i := 0; i < k; i++ {
					v1[i] = (a >> i) & 1
					v2[i] = (b >> i) & 1
				}
				pb, err := v.CheckPair(v1, v2)
				if err != nil {
					t.Fatal(err)
				}
				for n := range pb.Bound {
					if pb.Exact[n] > pb.Bound[n] {
						t.Fatalf("seed %d pair %s→%s: net %d exact %s exceeds bound %s",
							seed, v1, v2, n, pb.Exact[n], pb.Bound[n])
					}
				}
			}
		}
	}
}

func TestCheckPairExactOnChain(t *testing.T) {
	// On a pure chain the bound is exact: a transition at 0 arrives at
	// exactly depth·d, and a constant input stays constant everywhere.
	c := gen.FalsePathChain(1, 10) // reuse: but check chain nets only
	v := NewVerifier(c, Default())
	k := len(c.PrimaryInputs())
	v1 := make(sim.Vector, k)
	v2 := make(sim.Vector, k)
	for i := range v2 {
		v2[i] = 1
	}
	pb, err := v.CheckPair(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.NetByName("s")
	if pb.Exact[s] > pb.Bound[s] {
		t.Fatal("bound must dominate")
	}
	// All-inputs-rising on the Hrapcenko block: output settles when the
	// slowest sensitised path does; both values must be plausible.
	if pb.Bound[s] == waveform.NegInf && pb.Exact[s] != waveform.NegInf {
		t.Fatal("bound claims constant but simulation transitions")
	}
}

func TestTransitionDelayBound(t *testing.T) {
	c := gen.C17(10)
	v := NewVerifier(c, Default())
	g22, _ := c.NetByName("G22")
	want, p1, p2, err := sim.TransitionDelayExhaustive(c, g22)
	if err != nil {
		t.Fatal(err)
	}
	// The worst pair found by the oracle must be reproduced by
	// CheckPair, and the bound must dominate it.
	pb, err := v.CheckPair(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Exact[g22] != want {
		t.Fatalf("worst pair exact %s, oracle %s", pb.Exact[g22], want)
	}
	if pb.Bound[g22] < want {
		t.Fatalf("bound %s below exact %s", pb.Bound[g22], want)
	}
	// Transition-mode delay never exceeds floating-mode delay.
	fl, _, err := sim.FloatingDelayExhaustive(c, g22)
	if err != nil {
		t.Fatal(err)
	}
	if want > fl {
		t.Fatalf("transition delay %s exceeds floating delay %s", want, fl)
	}
}
