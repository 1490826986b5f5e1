package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/waveform"
)

// This file is the warm-start differential suite: a warm-started
// verifier must produce bit-identical verdicts, stages, backtrack and
// decision counts, and witnesses to cold solves at every δ schedule —
// ascending (the seeded fast path), descending and gapped (fallback
// paths), and repeated — serially and in parallel, on suite and random
// circuits. Only the work statistics (propagations, narrowings, queue
// high-water) may differ; they are excluded from the canonical form.

// warmCanonical renders every warm-start-invariant field of a report.
func warmCanonical(r *Report) string {
	return fmt.Sprintf("sink=%d δ=%s %s|%s|%s|%s final=%s bt=%d wit=%v@%s dom=%d domrounds=%d dec=%d splits=%d",
		r.Sink, r.Delta, r.BeforeGITD, r.AfterGITD, r.AfterStem, r.CaseAnalysis,
		r.Final, r.Backtracks, r.Witness, r.WitnessSettle,
		r.Dominators, r.DominatorRounds, r.Stats.Decisions, r.Stats.StemSplits)
}

// warmCanonicalCircuit renders a sweep aggregate the same way.
func warmCanonicalCircuit(cr *CircuitReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "δ=%s %s|%s|%s|%s final=%s bt=%d wo=%d dom=%d domrounds=%d\n",
		cr.Delta, cr.BeforeGITD, cr.AfterGITD, cr.AfterStem, cr.CaseAnalysis,
		cr.Final, cr.Backtracks, cr.WitnessOutput, cr.Dominators, cr.DominatorRounds)
	for _, r := range cr.PerOutput {
		fmt.Fprintf(&b, "  %s\n", warmCanonical(r))
	}
	return b.String()
}

// deltaSchedules builds the δ sequences around a circuit's floating
// delay D: ascending seeds every step from the previous fixpoint,
// descending forces the cold fallback each step, gaps mixes seeded
// jumps with backward resets, and repeated replays equal thresholds
// (including the refutation-memo path above D).
func deltaSchedules(d waveform.Time) map[string][]waveform.Time {
	return map[string][]waveform.Time{
		"ascending":  {d.Sub(3), d.Sub(2), d.Sub(1), d, d.Add(1), d.Add(2), d.Add(3)},
		"descending": {d.Add(3), d.Add(1), d, d.Sub(1), d.Sub(3)},
		"gaps":       {d.Sub(4), d.Sub(1), d.Add(2), d.Sub(2), d.Add(1), d.Add(4)},
		"repeated":   {d, d, d.Add(1), d.Add(1), d.Sub(1), d.Add(1)},
	}
}

func TestWarmVsColdDifferentialSweep(t *testing.T) {
	circuits := map[string]func() *Prepared{
		"c17":  func() *Prepared { return Prepare(gen.C17(10)) },
		"c432": func() *Prepared { return Prepare(suiteCircuit(t, "c432")) },
		"c880": func() *Prepared { return Prepare(suiteCircuit(t, "c880")) },
	}
	for seed := int64(0); seed < 6; seed++ {
		s := seed
		circuits[fmt.Sprintf("rand%d", seed)] = func() *Prepared {
			return Prepare(gen.Random(s+700, 4+int(s%5), 10+int(s)*7, 5))
		}
	}

	for name, build := range circuits {
		t.Run(name, func(t *testing.T) {
			prep := build()
			ref := prep.NewVerifier(Default())
			res, err := ref.CircuitFloatingDelayCtx(context.Background(), Request{})
			if err != nil {
				t.Fatal(err)
			}
			for sched, deltas := range deltaSchedules(res.Delay) {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/workers=%d", sched, workers), func(t *testing.T) {
						coldOpts := Default()
						coldOpts.UseWarmStart = false
						cold := prep.NewVerifier(coldOpts)
						warm := prep.NewVerifier(Default())
						for _, delta := range deltas {
							req := Request{Delta: delta, Workers: workers}
							want := warmCanonicalCircuit(cold.RunAll(context.Background(), req))
							got := warmCanonicalCircuit(warm.RunAll(context.Background(), req))
							if got != want {
								t.Fatalf("δ=%s warm sweep diverged:\ncold:\n%s\nwarm:\n%s", delta, want, got)
							}
						}
					})
				}
			}
		})
	}
}

// TestWarmVsColdSingleSinkSchedules drives Run directly (no sweep
// aggregation) through every schedule on every primary output, so the
// per-sink memo sees exactly the δ sequence under test.
func TestWarmVsColdSingleSinkSchedules(t *testing.T) {
	prep := Prepare(suiteCircuit(t, "c432"))
	ref := prep.NewVerifier(Default())
	res, err := ref.CircuitFloatingDelayCtx(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := Default()
	coldOpts.UseWarmStart = false
	for sched, deltas := range deltaSchedules(res.Delay) {
		t.Run(sched, func(t *testing.T) {
			warm := prep.NewVerifier(Default())
			cold := prep.NewVerifier(coldOpts)
			for _, po := range ref.Circuit().PrimaryOutputs() {
				for _, delta := range deltas {
					req := Request{Sink: po, Delta: delta}
					want := warmCanonical(cold.Run(context.Background(), req))
					got := warmCanonical(warm.Run(context.Background(), req))
					if got != want {
						t.Fatalf("sink %d δ=%s:\ncold: %s\nwarm: %s", po, delta, want, got)
					}
				}
			}
		})
	}
}

// TestWarmConcurrentSameSink hammers one sink's memo from many
// goroutines (meaningful under -race): TryLock losers must solve cold
// and every report must carry the same canonical verdict.
func TestWarmConcurrentSameSink(t *testing.T) {
	prep := Prepare(suiteCircuit(t, "c880"))
	v := prep.NewVerifier(Default())
	po := v.Circuit().PrimaryOutputs()[0]
	delta := v.Topological().Add(1)
	want := warmCanonical(prep.NewVerifier(Default()).Run(context.Background(), Request{Sink: po, Delta: delta}))

	const goroutines = 8
	got := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got[i] = warmCanonical(v.Run(context.Background(), Request{Sink: po, Delta: delta}))
			}
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d diverged:\nwant %s\ngot  %s", i, want, g)
		}
	}
}

// TestWarmRefutationMemo pins the monotone refutation shortcut: once a
// sink stage-1-refutes at δ, a later check at δ' ≥ δ answers from the
// memo without solving (zero propagations) and still reports N.
func TestWarmRefutationMemo(t *testing.T) {
	opts := Default()
	opts.UseConeSlicing = false // keep the memo on this verifier itself
	c := gen.C17(10)
	v := NewVerifier(c, opts)
	po := c.PrimaryOutputs()[0]
	delta := v.Topological().Add(1)

	first := v.Run(context.Background(), Request{Sink: po, Delta: delta})
	if first.Final != NoViolation || first.Propagations == 0 {
		t.Fatalf("first refutation should solve for real: %+v", first)
	}
	second := v.Run(context.Background(), Request{Sink: po, Delta: delta.Add(5)})
	if second.Final != NoViolation {
		t.Fatalf("memoed refutation verdict = %s, want N", second.Final)
	}
	if second.Propagations != 0 {
		t.Fatalf("memoed refutation did %d propagations, want 0", second.Propagations)
	}
}

// TestCaseAnalysisUnwindsDecisionStack is the trail-leak regression
// test at the engine level: witness, abandon, and cancel exits from
// case analysis must close every decision level, because warm-start
// keeps the system alive across checks.
func TestCaseAnalysisUnwindsDecisionStack(t *testing.T) {
	opts := Default()
	opts.UseConeSlicing = false // the memo under test lives on v itself
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, opts)
	s, _ := c.NetByName("s")

	rep := v.Run(context.Background(), Request{Sink: s, Delta: 60})
	if rep.Final != ViolationFound {
		t.Fatalf("Hrapcenko δ=60 should witness, got %s", rep.Final)
	}
	assertNoOpenLevels(t, v, "witness exit")

	rep = v.Run(context.Background(), Request{Sink: s, Delta: 60, Budgets: Budgets{MaxBacktracks: 1}})
	if rep.Final != ViolationFound && rep.Final != Abandoned {
		t.Fatalf("tight budget: got %s", rep.Final)
	}
	assertNoOpenLevels(t, v, "budget exit")
}

func assertNoOpenLevels(t *testing.T, v *Verifier, when string) {
	t.Helper()
	v.warmMu.Lock()
	defer v.warmMu.Unlock()
	checked := 0
	for sink, w := range v.warm {
		w.mu.Lock()
		if w.sys != nil {
			checked++
			if lv := w.sys.Levels(); lv != 0 {
				w.mu.Unlock()
				t.Fatalf("%s: sink %d's system has %d decision levels open", when, sink, lv)
			}
		}
		w.mu.Unlock()
	}
	if checked == 0 {
		t.Fatalf("%s: no warm system to inspect — memo plumbing broken", when)
	}
}
