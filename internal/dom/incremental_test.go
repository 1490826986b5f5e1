package dom

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// randomRestriction draws a domain restriction of the kinds the engine
// narrows with — a decided class, a check output, a settle-by bound —
// plus arbitrary intervals, times within [0, top].
func randomRestriction(r *rand.Rand, top int64) waveform.Signal {
	t := waveform.Time(r.Int63n(top + 1))
	switch r.Intn(4) {
	case 0:
		return waveform.SettledTo(r.Intn(2))
	case 1:
		return waveform.CheckOutput(t)
	case 2:
		return waveform.Signal{W0: waveform.StableAfter(t), W1: waveform.StableAfter(t)}
	default:
		u := waveform.Time(r.Int63n(top + 1))
		lo, hi := waveform.MinTime(t, u), waveform.MaxTime(t, u)
		return waveform.Signal{W0: waveform.Interval(waveform.NegInf, hi), W1: waveform.Interval(lo, waveform.PosInf)}
	}
}

// TestCarriersIncrementalMatchSweep is the differential property test
// of the incremental carrier round. One Workspace follows random
// sequences of Narrow, Fixpoint, Mark, Undo and Reset on the cones of
// seeded random circuits, and after every step its Carriers and
// Dominators must equal a fresh full sweep (DynamicCarriers) and
// FromCarriers on the same domains — masks, distances, dominator nets
// and dominator distances alike.
func TestCarriersIncrementalMatchSweep(t *testing.T) {
	var w Workspace // shared across cones and systems, as the engine's arena does
	incremental := 0
	for seed := int64(1); seed <= 10; seed++ {
		c := gen.Random(seed, 8, 120, 10)
		a := delay.New(c)
		r := rand.New(rand.NewSource(seed))
		pos := c.PrimaryOutputs()
		for _, po := range pos[:min(3, len(pos))] {
			cone, cm, err := circuit.ExtractConeMapped(c, po)
			if err != nil {
				t.Fatal(err)
			}
			sink, lv := cm.Sink, NewLevels(cone)
			top := int64(a.Arrival(po))
			delta := waveform.Time(top - r.Int63n(top/3+1))
			sys := constraint.New(cone)
			start := func() {
				sys.Narrow(sink, waveform.CheckOutput(delta))
				sys.ScheduleAll()
				sys.Fixpoint()
			}
			start()
			for step := 0; step < 300; step++ {
				switch op := r.Intn(20); {
				case op < 9:
					n := circuit.NetID(r.Intn(cone.NumNets()))
					sys.Narrow(n, randomRestriction(r, top))
					if r.Intn(2) == 0 {
						sys.Fixpoint()
					}
				case op < 13:
					sys.Mark()
				case op < 19:
					sys.Undo()
				default:
					sys.Reset()
					start()
				}
				mask, dist := w.Carriers(sys, lv, sink, delta)
				if k := len(w.changes); k > 0 && 4*k <= cone.NumNets() {
					incremental++
				}
				wantMask, wantDist := DynamicCarriers(sys, sink, delta)
				if !slices.Equal(mask, wantMask) || !slices.Equal(dist, wantDist) {
					t.Fatalf("seed %d sink %d step %d: incremental carriers differ from the full sweep", seed, po, step)
				}
				got := w.Dominators(lv)
				if want := FromCarriers(cone, wantMask, wantDist, sink); !sameDominators(got, want) {
					t.Fatalf("seed %d sink %d step %d: dominators %v %v, full computation %v %v",
						seed, po, step, got.Nets, got.Dist, want.Nets, want.Dist)
				}
			}
		}
	}
	if incremental < 1000 {
		t.Fatalf("only %d rounds took the incremental path; the test must exercise it", incremental)
	}
}

// TestCarriersResyncAfterOtherCalls: calls that overwrite the
// workspace's results — a full DynamicCarriers, Static, FromCarriers on
// another mask, or Carriers for another check — must not leave a later
// Carriers or Dominators call reporting stale results.
func TestCarriersResyncAfterOtherCalls(t *testing.T) {
	c := gen.Random(7, 8, 120, 10)
	a := delay.New(c)
	lv := NewLevels(c)
	po := c.PrimaryOutputs()[0]
	other := c.PrimaryOutputs()[1]
	delta := a.Arrival(po)
	sys := constraint.New(c)
	sys.Narrow(po, waveform.CheckOutput(delta))
	sys.ScheduleAll()
	sys.Fixpoint()
	var w Workspace
	check := func(what string) {
		t.Helper()
		mask, dist := w.Carriers(sys, lv, po, delta)
		wantMask, wantDist := DynamicCarriers(sys, po, delta)
		if !slices.Equal(mask, wantMask) || !slices.Equal(dist, wantDist) {
			t.Fatalf("after %s: carriers differ from the full sweep", what)
		}
		if got, want := w.Dominators(lv), FromCarriers(c, wantMask, wantDist, po); !sameDominators(got, want) {
			t.Fatalf("after %s: dominators %v, want %v", what, got.Nets, want.Nets)
		}
	}
	check("the first round")
	w.Static(c, lv, a, other, a.Arrival(other))
	check("Static")
	w.DynamicCarriers(sys, other, a.Arrival(other))
	check("DynamicCarriers on another sink")
	w.Carriers(sys, lv, other, a.Arrival(other))
	check("Carriers on another sink")
	sys.Narrow(c.PrimaryInputs()[0], waveform.SettledTo(1))
	check("a narrowing")
}
