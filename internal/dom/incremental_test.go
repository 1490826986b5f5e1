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
// plus arbitrary intervals, times within [0, top]. draw(n) returns a
// number in [0, n).
func randomRestriction(draw func(n int) int, top int64) waveform.Signal {
	t := waveform.Time(draw(int(top) + 1))
	switch draw(4) {
	case 0:
		return waveform.SettledTo(draw(2))
	case 1:
		return waveform.CheckOutput(t)
	case 2:
		return waveform.Signal{W0: waveform.StableAfter(t), W1: waveform.StableAfter(t)}
	default:
		u := waveform.Time(draw(int(top) + 1))
		lo, hi := waveform.MinTime(t, u), waveform.MaxTime(t, u)
		return waveform.Signal{W0: waveform.Interval(waveform.NegInf, hi), W1: waveform.Interval(lo, waveform.PosInf)}
	}
}

// carriersRun drives workspace w through steps random operations —
// Narrow, Fixpoint, Mark, Undo and Reset — on a fresh system of cone c
// checking (sink, δ below top), draws taken from draw. After every
// step Carriers and Dominators must equal a fresh full sweep
// (DynamicCarriers) and FromCarriers on the same domains, masks,
// distances, dominator nets and dominator distances alike; after an
// Undo the change-log entries Carriers read must name no net the Undo
// restored. It returns the number of rounds that took the incremental
// path.
func carriersRun(t testing.TB, w *Workspace, c *circuit.Circuit, sink circuit.NetID, top int64, draw func(n int) int, steps int) (incremental int) {
	t.Helper()
	lv := NewLevels(c)
	delta := waveform.Time(top - int64(draw(int(top/3)+1)))
	sys := constraint.New(c)
	start := func() {
		sys.Narrow(sink, waveform.CheckOutput(delta))
		sys.ScheduleAll()
		sys.Fixpoint()
		w.Carriers(sys, lv, sink, delta) // subscribe with no level open
	}
	start()
	var restored []circuit.NetID
	for step := 0; step < steps; step++ {
		restored = restored[:0]
		switch op := draw(20); {
		case op < 9:
			n := circuit.NetID(draw(c.NumNets()))
			sys.Narrow(n, randomRestriction(draw, top))
			if draw(2) == 0 {
				sys.Fixpoint()
			}
		case op < 13:
			sys.Mark()
		case op < 19:
			if sys.Levels() > 0 {
				restored = sys.AppendTouched(restored)
			}
			sys.Undo()
		default:
			sys.Reset()
			start()
		}
		mask, dist := w.Carriers(sys, lv, sink, delta)
		if k := len(w.changes); k > 0 && 4*k <= c.NumNets() {
			incremental++
		}
		for _, n := range restored {
			if slices.Contains(w.changes, n) {
				t.Fatalf("%s step %d: Changes after an Undo names restored net %d", c.Name, step, n)
			}
		}
		wantMask, wantDist := DynamicCarriers(sys, sink, delta)
		if !slices.Equal(mask, wantMask) || !slices.Equal(dist, wantDist) {
			t.Fatalf("%s step %d: incremental carriers differ from the full sweep", c.Name, step)
		}
		got := w.Dominators(lv)
		if want := FromCarriers(c, wantMask, wantDist, sink); !sameDominators(got, want) {
			t.Fatalf("%s step %d: dominators %v %v, full computation %v %v",
				c.Name, step, got.Nets, got.Dist, want.Nets, want.Dist)
		}
	}
	return incremental
}

// TestCarriersIncrementalMatchSweep is the differential property test
// of the incremental carrier round: carriersRun on the cones of seeded
// random circuits, with one Workspace shared across cones and systems,
// as the engine's arena shares it.
func TestCarriersIncrementalMatchSweep(t *testing.T) {
	var w Workspace
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
			incremental += carriersRun(t, &w, cone, cm.Sink, int64(a.Arrival(po)), r.Intn, 300)
		}
	}
	if incremental < 1000 {
		t.Fatalf("only %d rounds took the incremental path; the test must exercise it", incremental)
	}
}

// FuzzCarriersIncremental is TestCarriersIncrementalMatchSweep driven
// by fuzz input: the first bytes pick a gen.Random circuit and an
// output cone, the rest draw the operations (0 past the end).
func FuzzCarriersIncremental(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for range 8 {
		seed := make([]byte, 200)
		r.Read(seed)
		f.Add(seed)
	}
	var w Workspace
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c := gen.Random(int64(data[0]), 2+int(data[1]%7), 10+int(data[2]%100), 10)
		pos := c.PrimaryOutputs()
		po := pos[int(data[1]/8)%len(pos)]
		cone, cm, err := circuit.ExtractConeMapped(c, po)
		if err != nil {
			t.Fatal(err)
		}
		top := int64(delay.New(c).Arrival(po))
		if top < 1 {
			return
		}
		in := data[3:]
		draw := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			if n > 256 && len(in) > 0 {
				b = b<<8 | int(in[0])
				in = in[1:]
			}
			return b % n
		}
		carriersRun(t, &w, cone, cm.Sink, top, draw, 1+len(data)/3)
	})
}

// TestCarriersResyncAfterOtherCalls: calls that overwrite the
// workspace's results — Static, FromCarriers on another mask, or
// Carriers for another check — must not leave a later
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
	w.Carriers(sys, lv, other, a.Arrival(other))
	check("Carriers on another sink")
	sys.Narrow(c.PrimaryInputs()[0], waveform.SettledTo(1))
	check("a narrowing")
}
