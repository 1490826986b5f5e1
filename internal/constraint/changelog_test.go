package constraint

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// This file pins the change-log contract the incremental stage-2–4
// consumers rely on: off until the first Subscribe, one entry per
// effective narrowing, each consumer's Restorer called at every Mark
// and Undo, an Undo that cuts the log back to the mark and rewinds
// every cursor there, so no restored net is ever logged; entries a
// consumer had not read at an open mark kept for it; cleared with a
// new generation by Reset and Restore; truncated once every subscriber
// has read it — and, with the log on, still allocation-free in steady
// state.

// levels is a test Restorer: it counts the hook calls and keeps the
// depth of the levels it saw opened.
type levels struct {
	marks, undos, depth int
}

func (l *levels) OnMark(*System) { l.marks++; l.depth++ }
func (l *levels) OnUndo(*System) { l.undos++; l.depth-- }

func TestChangeLogOffUntilSubscribe(t *testing.T) {
	c := chainCircuit(t, 8)
	s := New(c)
	s.Narrow(id(t, c, "n8"), waveform.CheckOutput(3))
	s.ScheduleAll()
	s.Fixpoint()
	if s.logLen() != 0 {
		t.Fatalf("log holds %d entries before any Subscribe, want 0", s.logLen())
	}
	sub := s.Subscribe(new(levels))
	if got := s.Changes(sub, nil); len(got) != 0 {
		t.Fatalf("a new subscriber sees %v, want only later changes", got)
	}
}

// TestChangeLogRecordsNarrowAndUndo: every effective narrowing is
// logged once, and every Undo calls the consumers' hooks, cuts the log
// back to its mark and rewinds the cursors there, whoever read what
// since.
func TestChangeLogRecordsNarrowAndUndo(t *testing.T) {
	c := chainCircuit(t, 8)
	a, b, z := id(t, c, "n2"), id(t, c, "n5"), id(t, c, "n8")
	// setup subscribes, logs two narrowings and has the first readers
	// read them, then narrows z and b under a new mark.
	setup := func(t *testing.T, subs, readers int) (*System, []int, []*levels) {
		s := New(c)
		var ids []int
		var hooks []*levels
		for range subs {
			h := new(levels)
			ids, hooks = append(ids, s.Subscribe(h)), append(hooks, h)
		}
		s.Narrow(b, waveform.SettledTo(1))
		s.Narrow(a, waveform.SettledTo(0))
		s.Narrow(a, waveform.SettledTo(0)) // no change: not logged
		for _, sub := range ids[:readers] {
			if got := s.Changes(sub, nil); !slices.Equal(got, []circuit.NetID{b, a}) {
				t.Fatalf("changes %v, want [%d %d]", got, b, a)
			}
		}
		s.Mark()
		s.Narrow(z, waveform.CheckOutput(5))
		s.Narrow(b, waveform.CheckOutput(2))
		if got := s.AppendTouched(nil); !slices.Equal(got, []circuit.NetID{z, b}) {
			t.Fatalf("trail since the mark touches %v, want [%d %d]", got, z, b)
		}
		for i, h := range hooks {
			if h.marks != 1 || h.depth != 1 {
				t.Fatalf("subscriber %d: %d OnMark calls at depth %d, want 1 at 1", i, h.marks, h.depth)
			}
		}
		return s, ids, hooks
	}
	// undo closes the mark and checks what every Undo must leave: the
	// hooks undone, the log at its length at the mark, b's domain
	// restored and no level open.
	undo := func(t *testing.T, s *System, hooks []*levels, markLen int) {
		t.Helper()
		s.Undo()
		for i, h := range hooks {
			if h.undos != 1 || h.depth != 0 {
				t.Fatalf("subscriber %d: %d OnUndo calls at depth %d, want 1 at 0", i, h.undos, h.depth)
			}
		}
		if s.logLen() != markLen {
			t.Fatalf("log holds %d entries after the Undo, want its %d at the mark", s.logLen(), markLen)
		}
		if got := s.Domain(b); !got.Equal(waveform.SettledTo(1).Intersect(waveform.FullSignal)) {
			t.Fatalf("b restored to %v", got)
		}
		if got := s.AppendTouched(nil); len(got) != 0 {
			t.Fatalf("no mark open: AppendTouched = %v, want none", got)
		}
	}
	t.Run("rewound", func(t *testing.T) {
		// Neither consumer read the two narrowings: they are undone
		// unseen.
		s, ids, hooks := setup(t, 2, 2)
		undo(t, s, hooks, s.logLen()-2)
		for _, sub := range ids {
			if got := s.Changes(sub, nil); len(got) != 0 {
				t.Fatalf("changes %v after the Undo, want none", got)
			}
		}
	})
	t.Run("rewound past a reader", func(t *testing.T) {
		// One consumer reads past the mark while the other lags. The
		// Undo puts the reader's state back with its hook, so it is
		// told nothing about the restored nets, and neither is the
		// consumer that never saw them narrowed.
		s, ids, hooks := setup(t, 2, 2)
		markLen := s.logLen() - 2
		if got := s.Changes(ids[0], nil); !slices.Equal(got, []circuit.NetID{z, b}) {
			t.Fatalf("changes %v, want [%d %d]", got, z, b)
		}
		undo(t, s, hooks, markLen)
		for _, sub := range ids {
			if got := s.Changes(sub, nil); len(got) != 0 {
				t.Fatalf("changes %v after the Undo, want none", got)
			}
		}
	})
	t.Run("rewound after truncation", func(t *testing.T) {
		// The only consumer reads to the end, which cuts the log back to
		// the open mark's length, not to empty.
		s, ids, hooks := setup(t, 1, 1)
		s.Changes(ids[0], nil)
		if s.logLen() != 0 {
			t.Fatalf("log holds %d entries once its reader caught up at a mark taken on an empty log", s.logLen())
		}
		undo(t, s, hooks, 0)
		if got := s.Changes(ids[0], nil); len(got) != 0 {
			t.Fatalf("changes %v after the Undo, want none", got)
		}
	})
	t.Run("unread entries kept for a lagging consumer", func(t *testing.T) {
		// The second consumer had not read b and a when the mark was
		// taken. Both read everything inside the level, so the log is
		// cut back to the mark's length, which keeps those two. The
		// Undo rewinds the lagging cursor to them: the consumer's state
		// is the mark's again, and so is what it has yet to read.
		s, ids, hooks := setup(t, 2, 1)
		if got := s.Changes(ids[0], nil); !slices.Equal(got, []circuit.NetID{z, b}) {
			t.Fatalf("reader: changes %v, want [%d %d]", got, z, b)
		}
		if got := s.Changes(ids[1], nil); !slices.Equal(got, []circuit.NetID{b, a, z, b}) {
			t.Fatalf("lagging consumer: changes %v, want [%d %d %d %d]", got, b, a, z, b)
		}
		if s.logLen() != 2 {
			t.Fatalf("log holds %d entries with everyone caught up, want the 2 below the mark", s.logLen())
		}
		undo(t, s, hooks, 2)
		if got := s.Changes(ids[0], nil); len(got) != 0 {
			t.Fatalf("reader: changes %v after the Undo, want none", got)
		}
		if got := s.Changes(ids[1], nil); !slices.Equal(got, []circuit.NetID{b, a}) {
			t.Fatalf("lagging consumer: changes %v after the Undo, want its unread [%d %d]", got, b, a)
		}
		if s.logLen() != 0 {
			t.Fatalf("log holds %d entries with everyone caught up and no mark open", s.logLen())
		}
	})
	t.Run("subscribe with a level open panics", func(t *testing.T) {
		// A consumer subscribing after a mark would hold no state for
		// that level to be put back to.
		s := New(c)
		s.Mark()
		s.Narrow(z, waveform.CheckOutput(5))
		defer func() {
			if recover() == nil {
				t.Fatal("Subscribe with a level open did not panic")
			}
		}()
		s.Subscribe(new(levels))
	})
}

func TestChangeLogGenerations(t *testing.T) {
	c := chainCircuit(t, 8)
	s := New(c)
	snap := s.Snapshot(nil)
	for i, reset := range []func(){s.Reset, func() { s.Restore(snap) }} {
		h := new(levels)
		s.Subscribe(h)
		gen := s.Generation()
		s.Mark()
		s.Narrow(id(t, c, "n3"), waveform.SettledTo(1))
		reset()
		if s.Generation() == gen {
			t.Fatalf("reset %d kept generation %d", i, gen)
		}
		if s.logLen() != 0 || len(s.cursors) != 0 || len(s.hooks) != 0 || s.logOn {
			t.Fatalf("reset %d left the log on with %d entries and %d subscribers", i, s.logLen(), len(s.cursors))
		}
		s.Mark()
		s.Narrow(id(t, c, "n4"), waveform.SettledTo(1))
		s.Undo()
		if s.logLen() != 0 || h.marks != 1 || h.undos != 0 {
			t.Fatalf("reset %d: the log must stay off and the old subscriber unhooked until the next Subscribe", i)
		}
	}
}

// TestChangeLogTruncatedWhenAllCaughtUp: with two subscribers over a
// long search of nested marks, narrowings, fixpoints and undos, one
// reading after every step and one every third, the log is cut back to
// the innermost mark's length whenever both have caught up, and stays
// bounded by the steps the lagging subscriber has not read.
func TestChangeLogTruncatedWhenAllCaughtUp(t *testing.T) {
	const n = 64
	c := chainCircuit(t, n)
	po := id(t, c, fmt.Sprintf("n%d", n))
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	a, b := s.Subscribe(new(levels)), s.Subscribe(new(levels))
	var buf []circuit.NetID
	for i := 0; i < 1000; i++ {
		switch {
		case i%5 == 4 && s.Levels() > 0:
			s.Undo()
		case s.Levels() < 3:
			s.Mark()
			fallthrough
		default:
			s.Narrow(po, waveform.CheckOutput(waveform.Time(i%n)))
			s.Fixpoint()
		}
		buf = s.Changes(a, buf[:0])
		if i%3 == 0 {
			buf = s.Changes(b, buf[:0])
			want := 0
			if k := len(s.logMarks); k > 0 {
				want = s.logMarks[k-1]
			}
			if s.logLen() != want {
				t.Fatalf("step %d: %d entries left after every subscriber caught up, want the innermost mark's %d", i, s.logLen(), want)
			}
		}
		if s.logLen() > 3*4*(n+1) {
			t.Fatalf("step %d: log holds %d entries", i, s.logLen())
		}
	}
}

// TestChangeLogSteadyStateAllocs: a warmed mark/narrow/fixpoint/undo
// cycle with a subscriber reading the log after each allocates nothing.
func TestChangeLogSteadyStateAllocs(t *testing.T) {
	const n = 512
	c := chainCircuit(t, n)
	po := id(t, c, fmt.Sprintf("n%d", n))
	s := New(c)
	sub := s.Subscribe(new(levels))
	var buf []circuit.NetID
	cycle := func() {
		s.Mark()
		s.Narrow(po, waveform.CheckOutput(5))
		s.ScheduleAll()
		s.Fixpoint()
		buf = s.Changes(sub, buf[:0])
		s.Undo()
		buf = s.Changes(sub, buf[:0])
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("cycle with the change log on allocates %.1f objects/run, want 0", allocs)
	}
}
