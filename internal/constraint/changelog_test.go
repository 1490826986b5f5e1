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
// effective narrowing, cut back to the mark by an Undo no consumer has
// read past and one entry per restored net otherwise, cleared with a
// new generation by Reset and Restore, truncated once every subscriber
// has read it — and, with the log on, still allocation-free in steady
// state.

func TestChangeLogOffUntilSubscribe(t *testing.T) {
	c := chainCircuit(t, 8)
	s := New(c)
	s.Narrow(id(t, c, "n8"), waveform.CheckOutput(3))
	s.ScheduleAll()
	s.Fixpoint()
	if s.logLen() != 0 {
		t.Fatalf("log holds %d entries before any Subscribe, want 0", s.logLen())
	}
	sub := s.Subscribe()
	if got := s.Changes(sub, nil); len(got) != 0 {
		t.Fatalf("a new subscriber sees %v, want only later changes", got)
	}
}

// TestChangeLogRecordsNarrowAndUndo: every effective narrowing is
// logged once; an Undo no consumer has read past cuts the log back to
// its mark, and any other Undo logs each net it restores.
func TestChangeLogRecordsNarrowAndUndo(t *testing.T) {
	c := chainCircuit(t, 8)
	a, b, z := id(t, c, "n2"), id(t, c, "n5"), id(t, c, "n8")
	// setup subscribes, logs two narrowings and reads them, then
	// narrows z and b under a new mark.
	setup := func(t *testing.T, subs int) (*System, []int) {
		s := New(c)
		var ids []int
		for range subs {
			ids = append(ids, s.Subscribe())
		}
		s.Narrow(b, waveform.SettledTo(1))
		s.Narrow(a, waveform.SettledTo(0))
		s.Narrow(a, waveform.SettledTo(0)) // no change: not logged
		for _, sub := range ids {
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
		return s, ids
	}
	t.Run("rewound", func(t *testing.T) {
		s, ids := setup(t, 2)
		before := s.logLen()
		s.Undo()
		// Neither consumer read the two narrowings: they are undone
		// unseen, and the log is back to its length at the mark.
		if s.logLen() != before-2 {
			t.Fatalf("log holds %d entries after the Undo, want %d", s.logLen(), before-2)
		}
		for _, sub := range ids {
			if got := s.Changes(sub, nil); len(got) != 0 {
				t.Fatalf("changes %v after a rewound Undo, want none", got)
			}
		}
		if got := s.Domain(b); !got.Equal(waveform.SettledTo(1).Intersect(waveform.FullSignal)) {
			t.Fatalf("b restored to %v", got)
		}
		if got := s.AppendTouched(nil); len(got) != 0 {
			t.Fatalf("no mark open: AppendTouched = %v, want none", got)
		}
	})
	t.Run("logged", func(t *testing.T) {
		// One consumer reads past the mark while the other lags, so
		// the log is not truncated: the restorations are logged, in
		// reverse trail order, one entry per restored net.
		s, ids := setup(t, 2)
		if got := s.Changes(ids[0], nil); !slices.Equal(got, []circuit.NetID{z, b}) {
			t.Fatalf("changes %v, want [%d %d]", got, z, b)
		}
		s.Undo()
		if got, want := s.Changes(ids[0], nil), []circuit.NetID{b, z}; !slices.Equal(got, want) {
			t.Fatalf("reader: changes %v, want %v", got, want)
		}
		if got, want := s.Changes(ids[1], nil), []circuit.NetID{z, b, b, z}; !slices.Equal(got, want) {
			t.Fatalf("lagging consumer: changes %v, want %v", got, want)
		}
		if got := s.AppendTouched(nil); len(got) != 0 {
			t.Fatalf("no mark open: AppendTouched = %v, want none", got)
		}
	})
	t.Run("logged after truncation", func(t *testing.T) {
		// The only consumer read to the end, truncating the log.
		s, ids := setup(t, 1)
		s.Changes(ids[0], nil)
		s.Undo()
		if got, want := s.Changes(ids[0], nil), []circuit.NetID{b, z}; !slices.Equal(got, want) {
			t.Fatalf("changes %v, want %v", got, want)
		}
	})
	t.Run("logged for a later subscriber", func(t *testing.T) {
		// A consumer that subscribed after the mark saw the narrowed
		// domains, so the Undo must report the restored nets to it.
		s := New(c)
		s.Mark()
		s.Narrow(z, waveform.CheckOutput(5))
		sub := s.Subscribe()
		s.Undo()
		if got := s.Changes(sub, nil); !slices.Equal(got, []circuit.NetID{z}) {
			t.Fatalf("changes %v, want [%d]", got, z)
		}
	})
}

func TestChangeLogGenerations(t *testing.T) {
	c := chainCircuit(t, 8)
	s := New(c)
	snap := s.Snapshot(nil)
	for i, reset := range []func(){s.Reset, func() { s.Restore(snap) }} {
		s.Subscribe()
		gen := s.Generation()
		s.Narrow(id(t, c, "n3"), waveform.SettledTo(1))
		reset()
		if s.Generation() == gen {
			t.Fatalf("reset %d kept generation %d", i, gen)
		}
		if s.logLen() != 0 || len(s.cursors) != 0 || s.logOn {
			t.Fatalf("reset %d left the log on with %d entries and %d subscribers", i, s.logLen(), len(s.cursors))
		}
		s.Narrow(id(t, c, "n4"), waveform.SettledTo(1))
		if s.logLen() != 0 {
			t.Fatalf("reset %d: the log must stay off until the next Subscribe", i)
		}
	}
}

// TestChangeLogTruncatedWhenAllCaughtUp: with two subscribers reading
// after every step of a long mark/narrow/fixpoint/undo search, the log
// never holds more than one step's changes, and a subscriber that lags
// keeps the entries it has not read.
func TestChangeLogTruncatedWhenAllCaughtUp(t *testing.T) {
	const n = 64
	c := chainCircuit(t, n)
	po := id(t, c, fmt.Sprintf("n%d", n))
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	a, b := s.Subscribe(), s.Subscribe()
	var buf []circuit.NetID
	for i := 0; i < 1000; i++ {
		s.Mark()
		s.Narrow(po, waveform.CheckOutput(waveform.Time(i%n)))
		s.Fixpoint()
		s.Undo()
		if s.logLen() > 4*(n+1) {
			t.Fatalf("step %d: log holds %d entries for one step's changes", i, s.logLen())
		}
		buf = s.Changes(a, buf[:0])
		if s.logLen() == 0 && len(buf) > 0 {
			t.Fatal("the log was truncated while a subscriber had not read it")
		}
		lagging := len(buf)
		buf = s.Changes(b, buf[:0])
		if len(buf) != lagging {
			t.Fatalf("step %d: the second subscriber read %d entries, the first %d", i, len(buf), lagging)
		}
		if s.logLen() != 0 {
			t.Fatalf("step %d: %d entries left after every subscriber caught up", i, s.logLen())
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
	sub := s.Subscribe()
	var buf []circuit.NetID
	cycle := func() {
		s.Mark()
		s.Narrow(po, waveform.CheckOutput(5))
		s.ScheduleAll()
		s.Fixpoint()
		s.Undo()
		buf = s.Changes(sub, buf[:0])
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("cycle with the change log on allocates %.1f objects/run, want 0", allocs)
	}
}
