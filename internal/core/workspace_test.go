package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/oracle"
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
// sweep guarantee past the plain fixpoint: arena-backed serial sweeps
// whose checks run the dominator loop (c1908) and stem correlation
// (c2670, and c1355's 64 splits per check) allocate nothing in stages
// 2–3 once the arena has grown — the change log, the level-bucket
// carrier queue, the learning cursor and the stem buffers included.
// c1355's sweep then reaches case analysis, whose first leaf witnesses
// the violation: the candidate vector and its simulation live in the
// workspace, and the witness, expanded to the circuit's inputs, in the
// arena's report slot, so that leaf allocates nothing either.
func TestArenaSweepStage2SteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delta  waveform.Time
		reach  Stage
		stages [5]Result // before/after GITD, after stems, case analysis, final
		leaf   float64   // allocations of the one witnessing leaf
	}{
		{"c1908", 401, StageGITD, [5]Result{PossibleViolation, NoViolation, StageSkipped, StageSkipped, NoViolation}, 0},
		{"c2670", 471, StageStem, [5]Result{PossibleViolation, PossibleViolation, NoViolation, StageSkipped, NoViolation}, 0},
		{"c1355", 330, StageCase, [5]Result{PossibleViolation, PossibleViolation, PossibleViolation, ViolationFound, ViolationFound}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifier(suiteCircuit(t, tc.name), Default())
			req := Request{Delta: tc.delta, Workers: 1, Arena: new(ReportArena)}
			check := func() {
				cr := v.RunAll(context.Background(), req)
				if got := [5]Result{cr.BeforeGITD, cr.AfterGITD, cr.AfterStem, cr.CaseAnalysis, cr.Final}; got != tc.stages {
					t.Fatalf("stages %v, want %v", got, tc.stages)
				}
				if cr.Backtracks != 0 {
					t.Fatalf("%d backtracks: the sweep must reach at most one leaf", cr.Backtracks)
				}
			}
			check()
			if avg := testing.AllocsPerRun(20, check); avg != tc.leaf {
				t.Fatalf("steady-state arena sweep through %s allocates %.1f times per run, want %.0f", tc.reach, avg, tc.leaf)
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
// check on one verifier, so after the first the cone and its base
// snapshot are built and the time is the pipeline through case
// analysis.
// It reports the gate-constraint applications per check (props/op).
func BenchmarkCaseAnalysis(b *testing.B) {
	c := suiteCircuit(b, "c6288")
	sink, _ := c.NetByName("p15")
	v := NewVerifier(c, Default())
	req := Request{Sink: sink, Delta: 1210}
	req.Budgets.MaxBacktracks = 500
	v.Run(context.Background(), req)
	b.ReportAllocs()
	b.ResetTimer()
	var props int64
	for i := 0; i < b.N; i++ {
		rep := v.Run(context.Background(), req)
		if rep.Final != Abandoned {
			b.Fatalf("got %s, want A past the 500-backtrack budget", rep.Final)
		}
		props += rep.Propagations
	}
	b.ReportMetric(float64(props)/float64(b.N), "props/op")
}

// stemStage sets up the stems layer on its heaviest warm check:
// c1355's z0 cone at δ = D = 330, whose stem correlation makes 64
// splits. The returned run restores the state stage 2 left and replays
// stage 2's evaluate on it, which narrows nothing but leaves the
// learning cursor and the carrier workspace subscribed and current, as
// a check hands them to the stage; then it runs stem correlation
// through the same reused workspace. The time per run is therefore the
// stage's plus one full learning scan, carrier sweep and dominator
// computation. run reports the workspace's cut sweeps and carrier
// refreshes (dom.Workspace.Counts) during the stage alone.
func stemStage(tb testing.TB) (run func() (sweeps, refreshes int)) {
	c := suiteCircuit(tb, "c1355")
	z0, _ := c.NetByName("z0")
	cv := NewVerifier(c, Default()).coneFor(z0)
	v, sink, delta := cv.sub, cv.sub.cm.Sink, waveform.Time(330)
	rs := new(runState)
	v.initRunState(rs, context.Background(), &Request{})
	sys := constraint.New(v.c)
	sys.Narrow(sink, waveform.CheckOutput(delta))
	sys.ScheduleAll()
	var rep Report
	if res := v.evaluate(rs, sys, sink, delta, &rep); res != PossibleViolation {
		tb.Fatalf("stage 2 answered %s, want P", res)
	}
	snap := sys.Snapshot(nil)
	ws := rs.workspace()
	return func() (int, int) {
		sys.Restore(snap)
		if res := v.evaluate(rs, sys, sink, delta, &rep); res != PossibleViolation {
			tb.Fatalf("stage 2 replayed answered %s, want P", res)
		}
		sweeps0, refreshes0 := ws.dom.Counts()
		rep.Stats.StemSplits = 0
		if res := v.stemCorrelation(rs, sys, sink, delta, &rep); res != PossibleViolation || rep.Stats.StemSplits != 64 {
			tb.Fatalf("got %s after %d splits, want P after 64", res, rep.Stats.StemSplits)
		}
		sweeps, refreshes := ws.dom.Counts()
		return sweeps - sweeps0, refreshes - refreshes0
	}
}

// BenchmarkStemCorrelation times stemStage and reports its cut sweeps
// and carrier refreshes per stage (sweeps/op, refreshes/op).
func BenchmarkStemCorrelation(b *testing.B) {
	run := stemStage(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sweeps, refreshes int
	for i := 0; i < b.N; i++ {
		s, r := run()
		sweeps += s
		refreshes += r
	}
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(refreshes)/float64(b.N), "refreshes/op")
}

// TestStemCorrelationWork pins the work of stemStage: Mark and Undo
// restore the carriers and dominators of the mark, so a stem branch's
// Undo costs no carrier refresh and no dominator recomputation. Before
// that the stage made 122 cut sweeps and 5320 refreshes.
func TestStemCorrelationWork(t *testing.T) {
	sweeps, refreshes := stemStage(t)()
	if sweeps > 62 || refreshes > 3017 {
		t.Fatalf("the stage made %d cut sweeps and %d carrier refreshes, want at most 62 and 3017", sweeps, refreshes)
	}
	t.Logf("%d cut sweeps, %d carrier refreshes", sweeps, refreshes)
}

// TestWriteBackNarrowsInIDOrder: stem correlation's write-back makes
// exactly the narrowings that change a domain, in increasing net id
// order, as a scan of every net would, whatever order the branch
// recorded its nets in.
func TestWriteBackNarrowsInIDOrder(t *testing.T) {
	c := gen.Random(4, 6, 80, 10)
	sys := constraint.New(c)
	sys.ScheduleAll()
	sys.Fixpoint()
	r := rand.New(rand.NewSource(4))
	ws := new(workspace)
	var want []circuit.NetID
	for _, n := range r.Perm(c.NumNets())[:40] {
		sig := waveform.SettledTo(r.Intn(2))
		if r.Intn(3) == 0 {
			sig = sys.Domain(circuit.NetID(n)) // no change
		} else {
			want = append(want, circuit.NetID(n))
		}
		ws.branch = append(ws.branch, branchNet{circuit.NetID(n), sig})
	}
	slices.Sort(want)
	var got []circuit.NetID
	sys.SetTraceFunc(func(n circuit.NetID, _, _ waveform.Signal) { got = append(got, n) })
	ws.writeBack(sys)
	if !slices.Equal(got, want) {
		t.Fatalf("write-back narrowed %v, want %v", got, want)
	}
}

// TestStemFaninIsCarrierInfluence backs stem correlation's selection:
// while the checked output's domain is non-empty, the nets whose
// transitive fanout holds a dynamic carrier are exactly the output's
// fan-in cone. One workspace follows random narrowings, fixpoints,
// marks and undos on whole gen.Random circuits (where, unlike on a
// cone, many nets lie outside the fan-in) for random sinks at random
// δ, and after every step faninMask must equal the set computed from
// the carriers; the test also requires the carriers to be a strict
// subset of the fan-in often, so the equality is not trivial.
func TestStemFaninIsCarrierInfluence(t *testing.T) {
	ws := new(workspace) // shared across circuits, as an arena keeps it
	checked, strict := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		c := gen.Random(seed, 6, 80, 10)
		lv := Prepare(c).levels
		fanout := make([][]bool, c.NumNets())
		for n := range fanout {
			fanout[n] = oracle.TransitiveFanout(c, circuit.NetID(n))
		}
		r := rand.New(rand.NewSource(seed))
		for range 4 {
			sink := circuit.NetID(c.NumNets() - 1 - r.Intn(c.NumNets()/2))
			top := int64(delay.New(c).Arrival(sink))
			delta := waveform.Time(top - r.Int63n(top/2+1))
			sys := constraint.New(c)
			sys.Narrow(sink, waveform.CheckOutput(delta))
			sys.ScheduleAll()
			sys.Fixpoint()
			ws.dom.Carriers(sys, lv, sink, delta) // subscribe with no level open
			for step := 0; step < 100; step++ {
				switch op := r.Intn(4); {
				case op < 2:
					pis := c.PrimaryInputs()
					sys.Mark()
					sys.Narrow(pis[r.Intn(len(pis))], waveform.SettledTo(r.Intn(2)))
					sys.Fixpoint()
				case op < 3:
					sys.Undo()
				default:
					sys.Narrow(circuit.NetID(r.Intn(c.NumNets())), waveform.CheckOutput(waveform.Time(r.Int63n(top+1))))
				}
				if sys.Domain(sink).IsEmpty() {
					continue
				}
				carrier, _ := ws.dom.Carriers(sys, lv, sink, delta)
				got := ws.faninMask(c, lv, sink)
				for n := range got {
					want := false
					for m, in := range fanout[n] {
						want = want || in && carrier[m]
					}
					if got[n] != want {
						t.Fatalf("seed %d sink %d step %d: fan-in[%d] = %v, carrier influence %v", seed, sink, step, n, got[n], want)
					}
				}
				checked++
				if !slices.Equal(got, carrier) {
					strict++
				}
			}
		}
	}
	if checked < 1000 || strict < checked/2 {
		t.Fatalf("%d steps checked, %d with carriers short of the fan-in; the test must exercise both", checked, strict)
	}
}
