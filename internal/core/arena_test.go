package core

import (
	"context"
	"testing"

	"repro/internal/gen"
)

// TestArenaSweepMatchesFresh pins the arena's transparency: an
// arena-backed serial sweep must report exactly what freshly allocated
// reports do, at every δ of a schedule, seeded or cold.
func TestArenaSweepMatchesFresh(t *testing.T) {
	c := gen.Industrial(5, 32, 10)
	res, err := NewVerifier(c, Default()).CircuitFloatingDelayCtx(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seeded := range []bool{true, false} {
		prep := Prepare(c)
		plain := prep.NewVerifier(Default())
		arened := prep.NewVerifier(Default())
		arena := new(ReportArena)
		for _, delta := range deltaSchedules(res.Delay)["gaps"] {
			req := Request{Delta: delta, Workers: 1}
			var want, got string
			run := func() {
				want = searchCanonicalCircuit(plain.RunAll(context.Background(), req))
				req.Arena = arena
				got = searchCanonicalCircuit(arened.RunAll(context.Background(), req))
			}
			if seeded {
				run()
			} else {
				solveCold(run)
			}
			if got != want {
				t.Fatalf("seeded=%v δ=%s arena sweep diverged:\nfresh: %s\narena: %s", seeded, delta, want, got)
			}
		}
	}
}

// TestArenaReusesReportStorage pins the ownership contract: the next
// call on the same arena hands back the same backing report.
func TestArenaReusesReportStorage(t *testing.T) {
	c := gen.C17(10)
	opts := Default()
	opts.UseConeSlicing = false
	v := NewVerifier(c, opts)
	po := c.PrimaryOutputs()[0]
	arena := new(ReportArena)
	req := Request{Sink: po, Delta: v.Topological().Add(1), Arena: arena}

	first := v.Run(context.Background(), req)
	second := v.Run(context.Background(), req)
	if first != second {
		t.Fatal("consecutive arena-backed Runs must reuse the report slot")
	}
	if second.Final != NoViolation {
		t.Fatalf("reused report carries wrong verdict %s", second.Final)
	}
}

// TestArenaParallelFallsBackToAllocation: a parallel RunAll must
// ignore the arena (per-goroutine checks cannot share it) and still
// produce the serial sweep's aggregate.
func TestArenaParallelFallsBackToAllocation(t *testing.T) {
	prep := Prepare(gen.Industrial(5, 32, 10))
	v := prep.NewVerifier(Default())
	delta := v.Topological().Add(1)
	want := searchCanonicalCircuit(prep.NewVerifier(Default()).RunAll(context.Background(),
		Request{Delta: delta, Workers: 4}))
	arena := new(ReportArena)
	got := searchCanonicalCircuit(v.RunAll(context.Background(),
		Request{Delta: delta, Workers: 4, Arena: arena}))
	if got != want {
		t.Fatalf("parallel sweep with arena diverged:\nwant %s\ngot  %s", want, got)
	}
	if len(arena.reports) != 0 {
		t.Fatalf("parallel RunAll touched the arena (%d report slots)", len(arena.reports))
	}
}

// TestArenaSweepSteadyStateAllocs extends the kernel's zero-allocs
// guarantee to the whole sweep path: arena-backed, a repeated serial
// RunAll performs no allocations at all. At δ = top+1 every check is
// refuted by its cone's base without a system.
func TestArenaSweepSteadyStateAllocs(t *testing.T) {
	c := gen.Industrial(5, 32, 10)
	v := NewVerifier(c, Default())
	delta := v.Topological().Add(1)
	req := Request{Delta: delta, Workers: 1, Arena: new(ReportArena)}
	if v.RunAll(context.Background(), req).Final != NoViolation {
		t.Fatal("δ=top+1 must be refuted")
	}
	avg := testing.AllocsPerRun(50, func() {
		if v.RunAll(context.Background(), req).Final != NoViolation {
			t.Fatal("δ=top+1 must be refuted")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state arena sweep allocates %.1f times per run, want 0", avg)
	}
}

// TestArenaSolveSweepSteadyStateAllocs is the same guarantee for a
// sweep whose checks solve: at δ = top every check restores its cone's
// base into the arena's system for that cone and runs the fixpoint.
// It holds BenchmarkIndustrialSweepConeSolve's 0 allocs/op.
func TestArenaSolveSweepSteadyStateAllocs(t *testing.T) {
	c := gen.Industrial(7, 48, 10)
	v := NewVerifier(c, Default())
	req := Request{Delta: v.Topological(), Workers: 1, Arena: new(ReportArena)}
	first := v.RunAll(context.Background(), req)
	if first.Propagations == 0 {
		t.Fatal("δ=top sweep did no propagations: it does not solve")
	}
	want := first.Final
	avg := testing.AllocsPerRun(50, func() {
		if v.RunAll(context.Background(), req).Final != want {
			t.Fatal("verdict changed between sweeps")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state solving sweep allocates %.1f times per run, want 0", avg)
	}
}
