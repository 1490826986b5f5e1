package dom

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/waveform"
)

func sameDominators(a, b Dominators) bool {
	return slices.Equal(a.Nets, b.Nets) && slices.Equal(a.Dist, b.Dist)
}

// TestLevelOrder: a permutation of the nets, by decreasing level then
// increasing id.
func TestLevelOrder(t *testing.T) {
	c := randomCircuit(t, 7, 6, 80)
	order := LevelOrder(c)
	if len(order) != c.NumNets() {
		t.Fatalf("order has %d nets, circuit %d", len(order), c.NumNets())
	}
	seen := make([]bool, c.NumNets())
	for i, n := range order {
		if seen[n] {
			t.Fatalf("net %d listed twice", n)
		}
		seen[n] = true
		if i == 0 {
			continue
		}
		p := order[i-1]
		if c.Level(p) < c.Level(n) || (c.Level(p) == c.Level(n) && p > n) {
			t.Fatalf("order[%d]=%d (level %d) after %d (level %d)", i, n, c.Level(n), p, c.Level(p))
		}
	}
}

// TestWorkspaceReuseMatchesFresh drives one Workspace across circuits
// that shrink and grow, several sinks each and several δ, and requires
// every result to equal a fresh computation and the independent
// oracle. Stale counter or mask entries from a larger earlier circuit
// would show up as a mismatch.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	var w Workspace
	sizes := [][2]int{{4, 14}, {8, 160}, {3, 6}, {10, 400}, {5, 30}, {8, 160}, {4, 10}}
	checked := 0
	for i, sz := range sizes {
		c := randomCircuit(t, int64(300+i), sz[0], sz[1])
		lv := NewLevels(c)
		a := delay.New(c)
		sinks := []circuit.NetID{c.PrimaryOutputs()[0], circuit.NetID(c.NumNets() / 2), circuit.NetID(c.NumNets() - 2)}
		for _, sink := range sinks {
			top := a.Arrival(sink)
			for _, delta := range []waveform.Time{top, top.Sub(1), top / 2} {
				if delta <= 0 {
					continue
				}
				sys := constraint.New(c)
				sys.Narrow(sink, waveform.CheckOutput(delta))
				sys.ScheduleAll()
				if !sys.Fixpoint() {
					continue
				}
				freshMask, freshDist := DynamicCarriers(sys, sink, delta)
				mask, dist := w.DynamicCarriers(sys, sink, delta)
				if !slices.Equal(mask, freshMask) || !slices.Equal(dist, freshDist) {
					t.Fatalf("circuit %d sink %d δ=%s: reused carriers differ from fresh", i, sink, delta)
				}
				got := w.FromCarriers(c, lv, mask, dist, sink)
				if fresh := FromCarriers(c, freshMask, freshDist, sink); !sameDominators(got, fresh) {
					t.Fatalf("circuit %d sink %d δ=%s: reused dominators %v, fresh %v", i, sink, delta, got, fresh)
				}
				if ref := refDominators(c, freshMask, freshDist, sink); !sameDominators(got, ref) {
					t.Fatalf("circuit %d sink %d δ=%s: dominators %v, oracle %v", i, sink, delta, got, ref)
				}
				if fresh := Dynamic(sys, sink, delta); !sameDominators(got, fresh) {
					t.Fatalf("circuit %d sink %d δ=%s: Dynamic %v, workspace %v", i, sink, delta, fresh, got)
				}
				static := w.Static(c, lv, a, sink, delta)
				if fresh := Static(c, a, sink, delta); !sameDominators(static, fresh) {
					t.Fatalf("circuit %d sink %d δ=%s: reused static dominators %v, fresh %v", i, sink, delta, static, fresh)
				}
				if ref := refDominators(c, delay.StaticCarrierMask(c, a, sink, delta), delay.ToNet(c, sink), sink); !sameDominators(static, ref) {
					t.Fatalf("circuit %d sink %d δ=%s: static dominators %v, oracle %v", i, sink, delta, static, ref)
				}
				checked++
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d consistent checks exercised", checked)
	}
}

// TestWorkspaceResultsAliasUntilNextCall pins the ownership contract
// the engine relies on: a result aliases the workspace, so the next
// call overwrites it, while the fresh-workspace wrappers own theirs.
func TestWorkspaceResultsAliasUntilNextCall(t *testing.T) {
	c := mustBuild(t, chain, 10)
	z := id(t, c, "z")
	a := delay.New(c)
	lv := NewLevels(c)
	var w Workspace
	first := w.Static(c, lv, a, z, 30)
	if len(first.Nets) != 4 {
		t.Fatalf("chain dominators = %v", names(c, first.Nets))
	}
	owned := Static(c, a, z, 30)
	w.Static(c, lv, a, id(t, c, "n2"), 20)
	if slices.Equal(first.Nets, owned.Nets) {
		t.Fatal("the next call must reuse the workspace's result storage")
	}
	if got := names(c, owned.Nets); !slices.Equal(got, []string{"z", "n2", "n1", "a"}) {
		t.Fatalf("wrapper result changed: %v", got)
	}
}

// BenchmarkDynamicDominators is the gitd layer's inner step: dynamic
// carriers plus the dominator chain on one fixpoint, through a reused
// workspace, on the deepest cones of the two largest suite circuits.
func BenchmarkDynamicDominators(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sink  string
		delta waveform.Time
	}{
		{"c6288", "p15", 1210},
		{"c7552", "", 550},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var c *circuit.Circuit
			for _, e := range gen.SubstituteSuite() {
				if e.Name == tc.name {
					c = e.Circuit
				}
			}
			sink := deepestOutput(c)
			if tc.sink != "" {
				sink, _ = c.NetByName(tc.sink)
			}
			cone, cm, err := circuit.ExtractConeMapped(c, sink)
			if err != nil {
				b.Fatal(err)
			}
			sys := constraint.New(cone)
			sys.Narrow(cm.Sink, waveform.CheckOutput(tc.delta))
			sys.ScheduleAll()
			if !sys.Fixpoint() {
				b.Fatal("δ = D must leave the cone consistent")
			}
			lv := NewLevels(cone)
			var w Workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mask, dist := w.DynamicCarriers(sys, cm.Sink, tc.delta)
				if len(w.FromCarriers(cone, lv, mask, dist, cm.Sink).Nets) == 0 {
					b.Fatal("expected dominators")
				}
			}
		})
	}
}

// deepestOutput is the primary output of highest level, smallest id on
// ties.
func deepestOutput(c *circuit.Circuit) circuit.NetID {
	best := c.PrimaryOutputs()[0]
	for _, po := range c.PrimaryOutputs() {
		if c.Level(po) > c.Level(best) {
			best = po
		}
	}
	return best
}
