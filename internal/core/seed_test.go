package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// This file is the base-seed differential suite. Every check starts
// stage 1 from the base snapshot of its circuit or cone (DESIGN.md
// §14); the reference is the cold path, which solves from the initial
// domains with every gate scheduled and which a circuit takes for good
// when its base is built under solveCold. Seeded checks must reproduce
// the cold checks' verdicts, stages, backtrack and decision counts and
// witnesses at every δ schedule — ascending, descending, gapped and
// repeated — serially and in parallel, on suite and random circuits.
// Only the work statistics (propagations, narrowings, queue
// high-water) may differ; they are left out of the canonical form. The
// Warm* tests keep the names they had when the seed was warm start's
// per-sink memo: "warm" is the seeded side.

// searchCanonical renders every field of a report that the seed must not
// change.
func searchCanonical(r *Report) string {
	return fmt.Sprintf("sink=%d δ=%s %s|%s|%s|%s final=%s bt=%d wit=%v@%s dom=%d domrounds=%d dec=%d splits=%d",
		r.Sink, r.Delta, r.BeforeGITD, r.AfterGITD, r.AfterStem, r.CaseAnalysis,
		r.Final, r.Backtracks, r.Witness, r.WitnessSettle,
		r.Dominators, r.DominatorRounds, r.Stats.Decisions, r.Stats.StemSplits)
}

// searchCanonicalCircuit renders a sweep aggregate the same way.
func searchCanonicalCircuit(cr *CircuitReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "δ=%s %s|%s|%s|%s final=%s bt=%d wo=%d dom=%d domrounds=%d\n",
		cr.Delta, cr.BeforeGITD, cr.AfterGITD, cr.AfterStem, cr.CaseAnalysis,
		cr.Final, cr.Backtracks, cr.WitnessOutput, cr.Dominators, cr.DominatorRounds)
	for _, r := range cr.PerOutput {
		fmt.Fprintf(&b, "  %s\n", searchCanonical(r))
	}
	return b.String()
}

// solveCold runs f with base builds disabled: every circuit or cone
// whose base is first asked for inside f gets none, and its checks
// solve cold from then on.
func solveCold(f func()) {
	saved := buildBase
	buildBase = func(*constraint.System) []int64 { return nil }
	defer func() { buildBase = saved }()
	f()
}

// deltaSchedules builds the δ sequences around a circuit's floating
// delay D: ascending, descending, gaps mixing forward jumps with
// backward steps, and repeated thresholds (including top-side
// refutations above D).
func deltaSchedules(d waveform.Time) map[string][]waveform.Time {
	return map[string][]waveform.Time{
		"ascending":  {d.Sub(3), d.Sub(2), d.Sub(1), d, d.Add(1), d.Add(2), d.Add(3)},
		"descending": {d.Add(3), d.Add(1), d, d.Sub(1), d.Sub(3)},
		"gaps":       {d.Sub(4), d.Sub(1), d.Add(2), d.Sub(2), d.Add(1), d.Add(4)},
		"repeated":   {d, d, d.Add(1), d.Add(1), d.Sub(1), d.Add(1)},
	}
}

func TestWarmVsColdDifferentialSweep(t *testing.T) {
	circuits := map[string]func() *circuit.Circuit{
		"c17":  func() *circuit.Circuit { return gen.C17(10) },
		"c432": func() *circuit.Circuit { return suiteCircuit(t, "c432") },
		"c880": func() *circuit.Circuit { return suiteCircuit(t, "c880") },
	}
	for seed := int64(0); seed < 6; seed++ {
		s := seed
		circuits[fmt.Sprintf("rand%d", seed)] = func() *circuit.Circuit {
			return gen.Random(s+700, 4+int(s%5), 10+int(s)*7, 5)
		}
	}

	for name, build := range circuits {
		t.Run(name, func(t *testing.T) {
			c := build()
			res, err := NewVerifier(c, Default()).CircuitFloatingDelayCtx(context.Background(), Request{})
			if err != nil {
				t.Fatal(err)
			}
			for sched, deltas := range deltaSchedules(res.Delay) {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/workers=%d", sched, workers), func(t *testing.T) {
						cold := Prepare(c).NewVerifier(Default())
						warm := Prepare(c).NewVerifier(Default())
						for _, delta := range deltas {
							req := Request{Delta: delta, Workers: workers}
							var want string
							solveCold(func() { want = searchCanonicalCircuit(cold.RunAll(context.Background(), req)) })
							got := searchCanonicalCircuit(warm.RunAll(context.Background(), req))
							if got != want {
								t.Fatalf("δ=%s seeded sweep diverged:\ncold:\n%s\nseeded:\n%s", delta, want, got)
							}
						}
					})
				}
			}
		})
	}
}

// TestWarmVsColdSingleSinkSchedules drives Run directly (no sweep
// aggregation) through every schedule on every primary output.
func TestWarmVsColdSingleSinkSchedules(t *testing.T) {
	c := suiteCircuit(t, "c432")
	res, err := NewVerifier(c, Default()).CircuitFloatingDelayCtx(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	for sched, deltas := range deltaSchedules(res.Delay) {
		t.Run(sched, func(t *testing.T) {
			warm := Prepare(c).NewVerifier(Default())
			cold := Prepare(c).NewVerifier(Default())
			for _, po := range c.PrimaryOutputs() {
				for _, delta := range deltas {
					req := Request{Sink: po, Delta: delta}
					var want string
					solveCold(func() { want = searchCanonical(cold.Run(context.Background(), req)) })
					got := searchCanonical(warm.Run(context.Background(), req))
					if got != want {
						t.Fatalf("sink %d δ=%s:\ncold:   %s\nseeded: %s", po, delta, want, got)
					}
				}
			}
		})
	}
}

// TestWarmConcurrentSameSink starts many first checks of one sink at
// once on a fresh circuit (meaningful under -race): one of them builds
// the cone's base, the others wait for it, and every report must
// match the cold check.
func TestWarmConcurrentSameSink(t *testing.T) {
	c := suiteCircuit(t, "c880")
	po := c.PrimaryOutputs()[0]
	for _, delta := range []waveform.Time{390, 391} {
		req := Request{Sink: po, Delta: delta}
		var want string
		solveCold(func() { want = searchCanonical(NewVerifier(c, Default()).Run(context.Background(), req)) })

		v := NewVerifier(c, Default())
		const goroutines = 8
		got := make([]string, goroutines)
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got[i] = searchCanonical(v.Run(context.Background(), req))
				}
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Fatalf("δ=%s goroutine %d diverged:\nwant %s\ngot  %s", delta, i, want, g)
			}
		}
	}
}

// TestWarmRefutationMemo pins the base's refutation shortcut: a check
// whose sink has no transition at or after δ in the base (every δ
// above the sink's topological arrival) is answered N in stage 1 with
// zero propagations, the first check on the circuit included — the
// base build is charged to no check — while a check the base cannot
// refute still solves.
func TestWarmRefutationMemo(t *testing.T) {
	opts := Default()
	opts.UseConeSlicing = false
	c := gen.C17(10)
	v := NewVerifier(c, opts)
	po := c.PrimaryOutputs()[0]
	top := v.Topological()
	for _, delta := range []waveform.Time{top.Add(1), top.Add(5)} {
		rep := v.Run(context.Background(), Request{Sink: po, Delta: delta})
		if rep.Final != NoViolation || rep.BeforeGITD != NoViolation {
			t.Fatalf("δ=%s: verdict %s/%s, want N in stage 1", delta, rep.BeforeGITD, rep.Final)
		}
		if rep.Propagations != 0 || rep.Stats.Narrowings != 0 {
			t.Fatalf("δ=%s: %d propagations and %d narrowings, want 0", delta, rep.Propagations, rep.Stats.Narrowings)
		}
	}
	if rep := v.Run(context.Background(), Request{Sink: po, Delta: 20}); rep.Propagations == 0 {
		t.Fatalf("δ=20 did no propagations: %+v", rep)
	}
}

// TestCaseAnalysisUnwindsDecisionStack is the trail-leak regression
// test at the engine level: witness and abandon exits from case
// analysis must close every decision level, because an arena keeps
// each circuit's system alive across checks.
func TestCaseAnalysisUnwindsDecisionStack(t *testing.T) {
	opts := Default()
	opts.UseConeSlicing = false
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, opts)
	s, _ := c.NetByName("s")
	arena := new(ReportArena)

	rep := v.Run(context.Background(), Request{Sink: s, Delta: 60, Arena: arena})
	if rep.Final != ViolationFound {
		t.Fatalf("Hrapcenko δ=60 should witness, got %s", rep.Final)
	}
	assertNoOpenLevels(t, arena, "witness exit")

	rep = v.Run(context.Background(), Request{Sink: s, Delta: 60, Budgets: Budgets{MaxBacktracks: 1}, Arena: arena})
	if rep.Final != ViolationFound && rep.Final != Abandoned {
		t.Fatalf("tight budget: got %s", rep.Final)
	}
	assertNoOpenLevels(t, arena, "budget exit")
}

func assertNoOpenLevels(t *testing.T, a *ReportArena, when string) {
	t.Helper()
	if len(a.systems) == 0 {
		t.Fatalf("%s: the arena holds no system to inspect", when)
	}
	for c, sys := range a.systems {
		if lv := sys.Levels(); lv != 0 {
			t.Fatalf("%s: the system of a %d-net circuit has %d decision levels open", when, c.NumNets(), lv)
		}
	}
}

// Outcomes of checkBaseSeed.
const (
	seedShortcut     = iota // refuted by the base without a system
	seedInconsistent        // refuted by the seeded fixpoint
	seedConsistent          // consistent, domains compared
)

// checkBaseSeed compares the seeded stage 1 of (sink, δ) on v — on the
// sink's cone when v slices — with a cold solve of the same system:
// the same consistency and, when consistent, the same domains lane for
// lane. It returns which of the three outcomes it compared.
func checkBaseSeed(t testing.TB, v *Verifier, sink circuit.NetID, delta waveform.Time) int {
	t.Helper()
	sub := v
	if v.opts.UseConeSlicing {
		if cv := v.coneFor(sink); cv != nil {
			sub, sink = cv.sub, cv.sub.cm.Sink
		}
	}
	var rs runState
	seeded, res := sub.plain(&rs, nil, sink, delta)

	cold := constraint.New(sub.c)
	cold.Narrow(sink, waveform.CheckOutput(delta))
	cold.ScheduleAll()
	if sub.opts.UseStaticDominators {
		var ws dom.Workspace
		dom.NarrowDominators(cold, ws.Static(sub.c, sub.levels, sub.analysis, sink, delta), delta)
	}
	coldOK := cold.Fixpoint()

	if (res == PossibleViolation) != coldOK {
		t.Fatalf("sink %d δ=%s: seeded stage 1 says %s, cold fixpoint consistent=%v", sink, delta, res, coldOK)
	}
	if seeded == nil {
		if res != NoViolation {
			t.Fatalf("sink %d δ=%s: no system but verdict %s", sink, delta, res)
		}
		return seedShortcut
	}
	if seeded.Inconsistent() == coldOK {
		t.Fatalf("sink %d δ=%s: seeded inconsistent=%v, cold consistent=%v", sink, delta, seeded.Inconsistent(), coldOK)
	}
	if coldOK && !slices.Equal(seeded.Snapshot(nil), cold.Snapshot(nil)) {
		for n := 0; n < sub.c.NumNets(); n++ {
			if a, b := seeded.Domain(circuit.NetID(n)), cold.Domain(circuit.NetID(n)); !a.Equal(b) {
				t.Fatalf("sink %d δ=%s: net %s seeded %s, cold %s", sink, delta, sub.c.Net(circuit.NetID(n)).Name, a, b)
			}
		}
		t.Fatalf("sink %d δ=%s: seeded and cold lanes differ", sink, delta)
	}
	if !coldOK {
		return seedInconsistent
	}
	return seedConsistent
}

// TestBaseSeedMatchesCold holds §14's identity gfp(B ⊓ CheckOutput(δ))
// = gfp(D0 ⊓ CheckOutput(δ)) on the kernel: on every output of suite,
// random and industrial circuits, at δ below every arrival, D−10, D,
// D+1 and top+1, with and without static dominators, cone-sliced and
// whole-circuit.
func TestBaseSeedMatchesCold(t *testing.T) {
	type load struct {
		name string
		c    *circuit.Circuit
		d    waveform.Time
	}
	var loads []load
	for _, e := range gen.SubstituteSuite() {
		if testing.Short() && e.Name != "c432" && e.Name != "c880" {
			continue
		}
		loads = append(loads, load{e.Name, e.Circuit, waveform.Time(goldenSuiteDelay[e.Name])})
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, c := range []*circuit.Circuit{gen.Random(seed, 10, 80, 10), gen.Industrial(seed, 6, 10)} {
			res, err := NewVerifier(c, Default()).CircuitFloatingDelayCtx(context.Background(), Request{})
			if err != nil {
				t.Fatal(err)
			}
			loads = append(loads, load{fmt.Sprintf("%s/%d", c.Name, seed), c, res.Delay})
		}
	}
	var outcomes [3]int
	for _, l := range loads {
		p := Prepare(l.c)
		top := p.analysis.Topological()
		deltas := []waveform.Time{-1, l.d.Sub(10), l.d, l.d.Add(1), top.Add(1)}
		for _, static := range []bool{false, true} {
			for _, cone := range []bool{true, false} {
				opts := Default()
				opts.UseStaticDominators = static
				opts.UseConeSlicing = cone
				v := p.NewVerifier(opts)
				for _, po := range l.c.PrimaryOutputs() {
					for _, delta := range deltas {
						outcomes[checkBaseSeed(t, v, po, delta)]++
					}
				}
			}
		}
	}
	t.Logf("outcomes: %d base refutations, %d seeded refutations, %d consistent fixpoints", outcomes[0], outcomes[1], outcomes[2])
	for i, n := range outcomes {
		if n == 0 {
			t.Errorf("outcome %d never compared", i)
		}
	}
}

// FuzzBaseSeed is TestBaseSeedMatchesCold on random circuits, sinks
// and thresholds.
func FuzzBaseSeed(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(30), int64(40), uint8(0), false)
	f.Add(int64(7), uint8(10), uint8(80), int64(75), uint8(3), true)
	f.Add(int64(42), uint8(3), uint8(5), int64(-2), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, pis, gates uint8, delta int64, sink uint8, static bool) {
		c := gen.Random(seed, 2+int(pis%14), 1+int(gates%120), 10)
		opts := Default()
		opts.UseStaticDominators = static
		v := NewVerifier(c, opts)
		pos := c.PrimaryOutputs()
		d := waveform.Time(delta % 2000)
		checkBaseSeed(t, v, pos[int(sink)%len(pos)], d)
	})
}
