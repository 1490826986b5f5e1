package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/waveform"
)

// TestCaseAnalysisAllocsIndependentOfBudget pins that case analysis
// allocates nothing per decision or backtrack: one c6288 check that
// exhausts its backtrack budget allocates the same at a budget of 400
// as at 100, up to a small constant.
func TestCaseAnalysisAllocsIndependentOfBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("c6288 case analysis takes a second; skipped in -short")
	}
	c := suiteCircuit(t, "c6288")
	sink, _ := c.NetByName("p14")
	allocs := func(budget int) float64 {
		v := NewVerifier(c, Default())
		req := Request{Sink: sink, Delta: 1210}
		req.Budgets.MaxBacktracks = budget
		var rep *Report
		a := testing.AllocsPerRun(2, func() { rep = v.Run(context.Background(), req) })
		if rep.Final != Abandoned || rep.Backtracks != budget+1 {
			t.Fatalf("budget %d: got %s after %d backtracks, want A past the budget", budget, rep.Final, rep.Backtracks)
		}
		return a
	}
	lo, hi := allocs(100), allocs(400)
	t.Logf("allocs per check: %.0f at budget 100, %.0f at budget 400", lo, hi)
	if hi-lo > 8 {
		t.Fatalf("case analysis allocates per backtrack: %.0f allocs at budget 100, %.0f at 400", lo, hi)
	}
}

// TestArenaSweepStage2SteadyStateAllocs extends the zero-allocation
// sweep guarantee past the plain fixpoint: warm-started, arena-backed
// serial sweeps whose checks run the dominator loop (c1908) and stem
// correlation (c2670) allocate nothing once the arena has grown.
func TestArenaSweepStage2SteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delta  waveform.Time
		reach  Stage
		stages [5]Result // before/after GITD, after stems, case analysis, final
	}{
		{"c1908", 401, StageGITD, [5]Result{PossibleViolation, NoViolation, StageSkipped, StageSkipped, NoViolation}},
		{"c2670", 471, StageStem, [5]Result{PossibleViolation, PossibleViolation, NoViolation, StageSkipped, NoViolation}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifier(suiteCircuit(t, tc.name), Default())
			req := Request{Delta: tc.delta, Workers: 1, Arena: new(ReportArena)}
			check := func() {
				cr := v.RunAll(context.Background(), req)
				if got := [5]Result{cr.BeforeGITD, cr.AfterGITD, cr.AfterStem, cr.CaseAnalysis, cr.Final}; got != tc.stages {
					t.Fatalf("stages %v, want %v", got, tc.stages)
				}
			}
			check()
			if avg := testing.AllocsPerRun(20, check); avg != 0 {
				t.Fatalf("steady-state arena sweep through %s allocates %.1f times per run, want 0", tc.reach, avg)
			}
		})
	}
}

// TestRetainedDominatorSetSurvivesReuse pins the copy contract: a
// report's DominatorSet is its own storage, not the workspace's, so
// later checks on the same verifier — with or without an arena — leave
// a retained set untouched, and the reports of one arena sweep do not
// share one.
func TestRetainedDominatorSetSurvivesReuse(t *testing.T) {
	c := suiteCircuit(t, "c2670")
	opts := Default()
	opts.UseConeSlicing = false
	v := NewVerifier(c, opts)
	pos := c.PrimaryOutputs()
	first := v.Run(context.Background(), Request{Sink: pos[0], Delta: 470})
	if len(first.DominatorSet.Nets) == 0 {
		t.Fatal("the check must report dominators for the test to mean anything")
	}
	wantNets := slices.Clone(first.DominatorSet.Nets)
	wantDist := slices.Clone(first.DominatorSet.Dist)

	arena := new(ReportArena)
	for _, delta := range []waveform.Time{470, 471, 400} {
		for _, po := range pos {
			v.Run(context.Background(), Request{Sink: po, Delta: delta})
			v.Run(context.Background(), Request{Sink: po, Delta: delta, Arena: arena})
		}
		v.RunAll(context.Background(), Request{Delta: delta, Workers: 1, Arena: arena})
	}
	if got := first.DominatorSet; !slices.Equal(got.Nets, wantNets) || !slices.Equal(got.Dist, wantDist) {
		t.Fatalf("retained dominator set changed under later checks:\nwas %v %v\nnow %v %v", wantNets, wantDist, got.Nets, got.Dist)
	}

	// Within one arena-backed sweep every check shares the run's
	// workspace, yet each per-output report must keep its own set. On
	// this multiplier two outputs reach the dominator loop before the
	// sweep's witness.
	mult := gen.ArrayMultiplier(4, 10)
	for _, cone := range []bool{false, true} {
		opts.UseConeSlicing = cone
		v := NewVerifier(mult, opts)
		delta := v.Topological().Sub(10)
		sweep := v.RunAll(context.Background(), Request{Delta: delta, Workers: 1, Arena: new(ReportArena)})
		ref := NewVerifier(mult, opts)
		withDoms := 0
		for _, r := range sweep.PerOutput {
			want := ref.Run(context.Background(), Request{Sink: r.Sink, Delta: delta}).DominatorSet
			if !slices.Equal(r.DominatorSet.Nets, want.Nets) || !slices.Equal(r.DominatorSet.Dist, want.Dist) {
				t.Fatalf("cone=%v sink %d: sweep reports dominators %v, a lone check %v", cone, r.Sink, r.DominatorSet.Nets, want.Nets)
			}
			if len(want.Nets) > 0 {
				withDoms++
			}
		}
		if withDoms < 2 {
			t.Fatalf("cone=%v: only %d outputs report dominators; the sweep must share the workspace between several", cone, withDoms)
		}
	}
}

// BenchmarkCaseAnalysis is the casean layer on its heaviest suite
// instance: the c6288 check at δ = D = 1210 on the output the full
// search witnesses, cut at 500 backtracks. Each iteration re-runs the
// check on one verifier, so after the first the cone and warm-start
// memo are built and the time is the pipeline through case analysis.
func BenchmarkCaseAnalysis(b *testing.B) {
	c := suiteCircuit(b, "c6288")
	sink, _ := c.NetByName("p15")
	v := NewVerifier(c, Default())
	req := Request{Sink: sink, Delta: 1210}
	req.Budgets.MaxBacktracks = 500
	v.Run(context.Background(), req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := v.Run(context.Background(), req); rep.Final != Abandoned {
			b.Fatalf("got %s, want A past the 500-backtrack budget", rep.Final)
		}
	}
}
