package constraint

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// This file pins the structure-of-arrays kernel's new lifecycle APIs —
// Snapshot/Restore/Reset — and the trail-growth fix: a long-lived
// System reused across many checks must keep its trail bounded, never
// alias its domain storage out through Snapshot, and run the whole
// snapshot/restore/solve cycle without allocating.

func allDomains(s *System) []waveform.Signal {
	out := make([]waveform.Signal, s.c.NumNets())
	for i := range out {
		out[i] = s.Domain(circuit.NetID(i))
	}
	return out
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := chainCircuit(t, 32)
	po, _ := c.NetByName("n32")
	s := New(c)
	s.Narrow(po, waveform.CheckOutput(20))
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("δ=20 on a 32-deep chain must be consistent")
	}
	want := allDomains(s)
	snap := s.Snapshot(nil)

	// Perturb the system thoroughly: deeper narrowing, an open level,
	// even an inconsistency.
	s.Mark()
	s.Narrow(po, waveform.CheckOutput(33))
	s.ScheduleAll()
	s.Fixpoint()

	s.Restore(snap)
	if got := allDomains(s); !signalsEqual(got, want) {
		t.Fatal("Restore must reproduce the snapshotted domains exactly")
	}
	if s.Levels() != 0 || s.Inconsistent() || s.Stopped() {
		t.Fatal("Restore must clear all per-run state")
	}
	if s.Propagations != 0 || s.Narrowings != 0 || s.QueueHighWater() != 0 {
		t.Fatal("Restore must zero the statistics counters")
	}

	// The restored fixpoint must be a fixpoint: re-solving is a no-op.
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("restored system must stay consistent")
	}
	if got := allDomains(s); !signalsEqual(got, want) {
		t.Fatal("restored fixpoint must be stable under re-solving")
	}
}

func TestSnapshotDoesNotAliasDomains(t *testing.T) {
	c := chainCircuit(t, 4)
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	before := allDomains(s)
	snap := s.Snapshot(nil)
	for i := range snap {
		snap[i] = -12345 // corrupt the caller's copy
	}
	if got := allDomains(s); !signalsEqual(got, before) {
		t.Fatal("mutating a snapshot must not touch the system's domains")
	}
}

func TestRestoreLengthMismatchPanics(t *testing.T) {
	s := New(chainCircuit(t, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("Restore with a wrong-circuit snapshot must panic")
		}
	}()
	s.Restore(make([]int64, 3))
}

func TestResetMatchesNew(t *testing.T) {
	c := chainCircuit(t, 16)
	po, _ := c.NetByName("n16")
	s := New(c)
	s.Narrow(po, waveform.CheckOutput(17)) // inconsistent: beyond top
	s.ScheduleAll()
	if s.Fixpoint() {
		t.Fatal("δ=17 beyond top=16 must refute")
	}
	s.Reset()

	fresh := New(c)
	if !signalsEqual(allDomains(s), allDomains(fresh)) {
		t.Fatal("Reset must restore the initial domains")
	}
	if s.Inconsistent() || s.Levels() != 0 || s.Propagations != 0 {
		t.Fatal("Reset must clear all per-run state")
	}

	// And the reset system must solve identically to a fresh one.
	for _, sys := range []*System{s, fresh} {
		sys.Narrow(po, waveform.CheckOutput(10))
		sys.ScheduleAll()
		if !sys.Fixpoint() {
			t.Fatal("δ=10 must stay consistent")
		}
	}
	if !signalsEqual(allDomains(s), allDomains(fresh)) {
		t.Fatal("reset system must solve bit-identically to a fresh one")
	}
}

// TestTrailBoundedAcrossLongSweep is the regression test for trail
// growth on a reused System: every check in a long sweep must leave the
// trail empty again (decision levels unwound, and Restore/Reset
// truncating whatever top-level narrowings accumulated), so the arena's
// length — not just its capacity — stays bounded no matter how many
// checks one System serves.
func TestTrailBoundedAcrossLongSweep(t *testing.T) {
	const depth = 64
	c := chainCircuit(t, depth)
	po, _ := c.NetByName(fmt.Sprintf("n%d", depth))
	s := New(c)
	s.ScheduleAll()
	if !s.Fixpoint() {
		t.Fatal("base solve must be consistent")
	}
	snap := s.Snapshot(nil)

	for delta := waveform.Time(0); delta < 200; delta = delta.Add(1) {
		s.Restore(snap)
		s.Mark()
		s.Narrow(po, waveform.CheckOutput(delta))
		s.ScheduleAll()
		s.Fixpoint()
		s.Undo()
		if n := s.trail.len(); n != 0 {
			t.Fatalf("δ=%d: trail holds %d entries after undo, want 0", delta, n)
		}
		if s.Levels() != 0 {
			t.Fatalf("δ=%d: %d levels still open", delta, s.Levels())
		}
	}
}

// TestSnapshotRestoreSteadyStateAllocs extends the zero-allocs
// assertion to the seeded-solve cycle: restore a fixpoint snapshot,
// narrow, re-solve, snapshot again — all into caller-reused buffers —
// without a single allocation.
func TestSnapshotRestoreSteadyStateAllocs(t *testing.T) {
	const n = 512
	c := chainCircuit(t, n)
	po, ok := c.NetByName(fmt.Sprintf("n%d", n))
	if !ok {
		t.Fatal("missing chain output")
	}
	s := New(c)
	s.ScheduleAll()
	s.Fixpoint()
	seed := s.Snapshot(nil)
	buf := make([]int64, 0, len(seed))
	cycle := func() {
		s.Restore(seed)
		s.Narrow(po, waveform.CheckOutput(5))
		s.ScheduleAll()
		s.Fixpoint()
		buf = s.Snapshot(buf)
	}
	cycle() // warm up: size the queue and scratch once
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("snapshot/restore cycle allocates %.1f objects/run, want 0", allocs)
	}
}

func signalsEqual(a, b []waveform.Signal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
