package learn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// narrowing is one domain change as SetTraceFunc reports it.
type narrowing struct {
	net      circuit.NetID
	old, new waveform.Signal
}

// twin drives two systems of one circuit through the same steps: inc
// applies the table through one long-lived Cursor (the event-driven
// pass after the first call), ref through a fresh Cursor every call,
// which is always the first-call full scan. Every Apply must return
// the same value and issue the same narrowings in the same order.
type twin struct {
	t        *testing.T
	tab      *Table
	inc, ref *constraint.System
	cur      Cursor
	applies  int
	r        *rand.Rand
}

func newTwin(t *testing.T, tab *Table, c *circuit.Circuit) *twin {
	return &twin{t: t, tab: tab, inc: constraint.New(c), ref: constraint.New(c), r: rand.New(rand.NewSource(1))}
}

func (tw *twin) both(f func(s *constraint.System)) {
	f(tw.inc)
	f(tw.ref)
}

func (tw *twin) apply(what string) bool {
	tw.t.Helper()
	var got, want []narrowing
	tw.inc.SetTraceFunc(func(n circuit.NetID, o, nw waveform.Signal) { got = append(got, narrowing{n, o, nw}) })
	tw.ref.SetTraceFunc(func(n circuit.NetID, o, nw waveform.Signal) { want = append(want, narrowing{n, o, nw}) })
	g := tw.tab.Apply(tw.inc, &tw.cur)
	w := tw.tab.Apply(tw.ref, new(Cursor))
	tw.inc.SetTraceFunc(nil)
	tw.ref.SetTraceFunc(nil)
	tw.applies++
	if g != w || !slices.Equal(got, want) {
		tw.t.Fatalf("%s: incremental Apply = %v with narrowings %v; full scan = %v with %v", what, g, got, w, want)
	}
	return g
}

// evaluate is core's evaluate loop without dominators: fixpoint, then
// learning, until learning changes nothing. It reports consistency; a
// consistent return is a closed state.
func (tw *twin) evaluate(what string) bool {
	tw.t.Helper()
	for {
		okI, okR := tw.inc.Fixpoint(), tw.ref.Fixpoint()
		if okI != okR {
			tw.t.Fatalf("%s: fixpoints disagree on consistency", what)
		}
		if !okI {
			return false
		}
		if !tw.apply(what) {
			return true
		}
		// At times apply again before the fixpoint, so that nets a pass
		// settled behind its position reach the next call unchanged.
		if tw.r.Intn(2) == 0 {
			tw.apply(what + " again")
		}
	}
}

// TestApplyIncrementalMatchesFullScan is the differential property test
// of event-driven learning. On seeded random circuits, with the
// precomputed table and its projections onto output cones (which carry
// forced facts), random search steps run on two systems: decisions
// (Mark at a closed state, settle a net, evaluate), further narrowings
// inside a level, undos, and resets. After every Undo — the
// undo-after-settle case — Apply must find nothing to do, which is the
// closure-at-mark invariant the cursor's exactness rests on.
func TestApplyIncrementalMatchesFullScan(t *testing.T) {
	applies, forced := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		c := gen.Random(seed, 8, 100, 10)
		full := Precompute(c)
		type instance struct {
			name string
			c    *circuit.Circuit
			tab  *Table
			sink circuit.NetID
		}
		insts := []instance{{"whole", c, full, c.PrimaryOutputs()[0]}}
		for _, po := range c.PrimaryOutputs()[:2] {
			cone, cm, err := circuit.ExtractConeMapped(c, po)
			if err != nil {
				t.Fatal(err)
			}
			tab := full.Project(cone, cm.ToCone, cm.FromCone)
			forced += len(tab.forced)
			insts = append(insts, instance{fmt.Sprintf("cone %d", po), cone, tab, cm.Sink})
		}
		for _, in := range insts {
			r := rand.New(rand.NewSource(seed))
			tw := newTwin(t, in.tab, in.c)
			start := func() bool {
				delta := waveform.Time(10 * r.Int63n(4))
				tw.both(func(s *constraint.System) {
					s.Narrow(in.sink, waveform.CheckOutput(delta))
					s.ScheduleAll()
				})
				return tw.evaluate(fmt.Sprintf("seed %d %s start", seed, in.name))
			}
			closed := start()
			for step := 0; step < 150; step++ {
				what := fmt.Sprintf("seed %d %s step %d", seed, in.name, step)
				n := circuit.NetID(r.Intn(in.c.NumNets()))
				v := r.Intn(2)
				switch op := r.Intn(10); {
				case op < 4 && closed:
					tw.both(func(s *constraint.System) {
						s.Mark()
						s.Narrow(n, waveform.SettledTo(v))
					})
					closed = tw.evaluate(what)
				case op < 6:
					// A narrowing inside the level, as dominator rounds
					// and stem unions make.
					tw.both(func(s *constraint.System) { s.Narrow(n, waveform.SettledTo(v)) })
					closed = tw.evaluate(what)
				case op < 9 && tw.inc.Levels() > 0:
					tw.both(func(s *constraint.System) { s.Undo() })
					if tw.apply(what + " after undo") {
						t.Fatalf("%s: Apply right after Undo narrowed something; the level was opened at a closed state", what)
					}
					closed = true
				case !closed && tw.inc.Levels() == 0 || op == 9:
					tw.both(func(s *constraint.System) { s.Reset() })
					closed = start()
				}
			}
			applies += tw.applies
		}
	}
	if applies < 2000 || forced == 0 {
		t.Fatalf("%d Apply calls compared, %d forced facts seen: the test must exercise both", applies, forced)
	}
}

// TestApplyUndoAfterSettle walks the undo-after-settle case by hand:
// a decision settles a net whose learned implication settles another,
// Undo restores both, and the next decision's implications still come
// out exactly as from a full scan.
func TestApplyUndoAfterSettle(t *testing.T) {
	c := mustBuild(t, `
INPUT(a)
INPUT(b)
INPUT(cc)
OUTPUT(z)
p = AND(a, b)
q = AND(a, cc)
z = OR(p, q)
`, 10)
	tw := newTwin(t, Precompute(c), c)
	tw.both(func(s *constraint.System) { s.ScheduleAll() })
	if !tw.evaluate("initial") {
		t.Fatal("the unconstrained circuit must be consistent")
	}
	z, a := id(t, c, "z"), id(t, c, "a")
	tw.both(func(s *constraint.System) {
		s.Mark()
		s.Narrow(z, waveform.SettledTo(1))
	})
	if !tw.evaluate("z=1") {
		t.Fatal("z=1 must be consistent")
	}
	if v, ok := tw.inc.Domain(a).KnownValue(); !ok || v != 1 {
		t.Fatalf("learning must settle a to 1 under z=1, got %s", tw.inc.Domain(a))
	}
	tw.both(func(s *constraint.System) { s.Undo() })
	if tw.apply("after undo") {
		t.Fatal("Apply right after Undo must be a no-op")
	}
	if _, ok := tw.inc.Domain(a).KnownValue(); ok {
		t.Fatal("Undo must restore a")
	}
	tw.both(func(s *constraint.System) {
		s.Mark()
		s.Narrow(z, waveform.SettledTo(0))
	})
	if !tw.evaluate("z=0") {
		t.Fatal("z=0 must be consistent")
	}
	if v, ok := tw.inc.Domain(a).KnownValue(); ok && v == 1 {
		t.Fatal("z=0 does not imply a=1")
	}
}
