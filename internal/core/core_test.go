package core

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/waveform"
)

func sink(t testing.TB, c *circuit.Circuit, name string) circuit.NetID {
	t.Helper()
	n, ok := c.NetByName(name)
	if !ok {
		t.Fatalf("no net %q", name)
	}
	return n
}

// TestExample2 reproduces the paper's Example 2: on the Figure-1
// circuit with d=10 per gate, the timing check (s, 61) is refuted by
// plain waveform narrowing alone — no dominators, no case analysis.
func TestExample2NoViolationAt61(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Options{}) // everything off: plain narrowing
	rep := v.Run(context.Background(), Request{Sink: sink(t, c, "s"), Delta: 61})
	if rep.BeforeGITD != NoViolation {
		t.Fatalf("δ=61 must be refuted by the plain fixpoint, got %s", rep.BeforeGITD)
	}
	if rep.Final != NoViolation {
		t.Fatalf("final = %s", rep.Final)
	}
}

// TestExample2ViolationAt60 continues Example 2: at δ=60 (the exact
// floating delay) the case analysis must find a certified test vector.
func TestExample2ViolationAt60(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	rep := v.Run(context.Background(), Request{Sink: sink(t, c, "s"), Delta: 60})
	if rep.Final != ViolationFound {
		t.Fatalf("δ=60 must be violable, got %s (backtracks %d)", rep.Final, rep.Backtracks)
	}
	if rep.WitnessSettle < 60 {
		t.Fatalf("witness settle %s < 60", rep.WitnessSettle)
	}
	// The witness must actually work per the simulator.
	r, err := sim.Run(c, rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if r.Settle[sink(t, c, "s")] != rep.WitnessSettle {
		t.Fatal("witness settle mismatch")
	}
}

func TestExactFloatingDelayHrapcenko(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	res, err := v.ExactFloatingDelayCtx(context.Background(), sink(t, c, "s"), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Delay != 60 {
		t.Fatalf("delay = %s exact=%v, want 60 exact", res.Delay, res.Exact)
	}
	if v.Topological() != 70 {
		t.Fatalf("top = %s", v.Topological())
	}
}

// TestExactnessOnRandomCircuits is the end-to-end correctness property:
// on many random circuits the engine's exact floating delay must equal
// the exhaustive oracle, for every primary output.
func TestExactnessOnRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		c := gen.Random(seed, 5, 15, 3)
		v := NewVerifier(c, Default())
		for _, po := range c.PrimaryOutputs() {
			want, _, err := sim.FloatingDelayExhaustive(c, po)
			if err != nil {
				t.Fatal(err)
			}
			got, err := v.ExactFloatingDelayCtx(context.Background(), po, Request{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Exact {
				t.Fatalf("seed %d %s: search abandoned", seed, c.Net(po).Name)
			}
			if got.Delay != want {
				t.Fatalf("seed %d output %s: engine %s, oracle %s",
					seed, c.Net(po).Name, got.Delay, want)
			}
		}
	}
}

// TestExactnessWithAllStagesOff checks that the case analysis alone
// (no dominators, learning, or stem correlation) is still exact — the
// stages are accelerators, not correctness requirements.
func TestExactnessWithAllStagesOff(t *testing.T) {
	opts := Options{MaxBacktracks: 1 << 20}
	for seed := int64(50); seed < 70; seed++ {
		c := gen.Random(seed, 5, 12, 3)
		v := NewVerifier(c, opts)
		po := c.PrimaryOutputs()[0]
		want, _, err := sim.FloatingDelayExhaustive(c, po)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.ExactFloatingDelayCtx(context.Background(), po, Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Exact || got.Delay != want {
			t.Fatalf("seed %d: engine %s (exact=%v), oracle %s", seed, got.Delay, got.Exact, want)
		}
	}
}

func TestCheckAllAggregation(t *testing.T) {
	c := gen.C17(10)
	v := NewVerifier(c, Default())
	// Topological delay 30: δ=31 must be N, δ=30 must be V (c17's
	// longest paths are true paths).
	cr := v.RunAll(context.Background(), Request{Delta: 31, Workers: 1})
	if cr.Final != NoViolation {
		t.Fatalf("δ=31: %s", cr.Final)
	}
	cr = v.RunAll(context.Background(), Request{Delta: 30, Workers: 1})
	if cr.Final != ViolationFound {
		t.Fatalf("δ=30: %s", cr.Final)
	}
	if cr.WitnessOutput < 0 {
		t.Fatal("witness output missing")
	}
}

func TestCircuitFloatingDelayC17(t *testing.T) {
	c := gen.C17(10)
	v := NewVerifier(c, Default())
	res, err := v.CircuitFloatingDelayCtx(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.CircuitFloatingDelayExhaustive(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Delay != want {
		t.Fatalf("circuit delay %s (exact=%v), oracle %s", res.Delay, res.Exact, want)
	}
	if want != 30 {
		t.Fatalf("c17 floating delay = %s, want 30", want)
	}
}

func TestCarrySkipExactDelay(t *testing.T) {
	// E4 in miniature: a 6-bit carry-skip adder's carry output has a
	// floating delay strictly below topological, and the engine matches
	// the oracle exactly.
	c := gen.CarrySkipAdder(6, 3, 10)
	cout := sink(t, c, "cout")
	v := NewVerifier(c, Default())
	want, _, err := sim.FloatingDelayExhaustive(c, cout)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.ExactFloatingDelayCtx(context.Background(), cout, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact || got.Delay != want {
		t.Fatalf("engine %s (exact=%v), oracle %s", got.Delay, got.Exact, want)
	}
	if got.Delay >= v.Topological() {
		t.Fatalf("no false path: %s vs top %s", got.Delay, v.Topological())
	}
}

func TestDominatorsEnableRefutation(t *testing.T) {
	// A carry-skip spine where δ just above the floating delay needs
	// dominator implications: verify the staged behaviour — plain
	// narrowing P, dominators may prove N or the case analysis refutes
	// with zero surviving vectors; in all cases Final must be exact.
	c := gen.CarrySkipAdder(6, 3, 10)
	cout := sink(t, c, "cout")
	exact, _, err := sim.FloatingDelayExhaustive(c, cout)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(c, Default())
	rep := v.Run(context.Background(), Request{Sink: cout, Delta: exact.Add(1)})
	if rep.Final != NoViolation {
		t.Fatalf("δ=exact+1 must be refuted, got %s", rep.Final)
	}
	rep = v.Run(context.Background(), Request{Sink: cout, Delta: exact})
	if rep.Final != ViolationFound {
		t.Fatalf("δ=exact must be witnessed, got %s", rep.Final)
	}
}

func TestAbandonedOnTinyBudget(t *testing.T) {
	// With a zero backtrack budget, a check that needs search must be
	// abandoned rather than mis-reported.
	c := gen.CarrySkipAdder(8, 4, 10)
	cout := sink(t, c, "cout")
	v := NewVerifier(c, Options{MaxBacktracks: 1})
	exact, _, err := sim.FloatingDelayExhaustive(c, cout)
	if err != nil {
		t.Fatal(err)
	}
	rep := v.Run(context.Background(), Request{Sink: cout, Delta: exact.Add(1)})
	if rep.Final == ViolationFound {
		t.Fatal("δ=exact+1 can never be a violation")
	}
	// Either the narrowing proves N quickly or the search gives up:
	// both are acceptable; a silent wrong answer is not.
	if rep.Final != NoViolation && rep.Final != Abandoned {
		t.Fatalf("unexpected result %s", rep.Final)
	}
}

func TestVerifyOnly(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	if got := v.Run(context.Background(), Request{Sink: sink(t, c, "s"), Delta: 61, VerifyOnly: true}).Final; got != NoViolation {
		t.Fatalf("VerifyOnly(61) = %s", got)
	}
	if got := v.Run(context.Background(), Request{Sink: sink(t, c, "s"), Delta: 60, VerifyOnly: true}).Final; got != PossibleViolation {
		t.Fatalf("VerifyOnly(60) = %s", got)
	}
}

func TestResultString(t *testing.T) {
	cases := map[Result]string{
		PossibleViolation: "P", NoViolation: "N", ViolationFound: "V",
		Abandoned: "A", StageSkipped: "-",
	}
	for r, w := range cases {
		if r.String() != w {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), w)
		}
	}
}

func TestStagesRecordedInReport(t *testing.T) {
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	rep := v.Run(context.Background(), Request{Sink: sink(t, c, "s"), Delta: 60})
	if rep.BeforeGITD != PossibleViolation {
		t.Fatalf("BeforeGITD = %s", rep.BeforeGITD)
	}
	if rep.Delta != 60 || rep.Elapsed <= 0 || rep.Propagations <= 0 {
		t.Fatal("report bookkeeping missing")
	}
}

func TestWaveformDomainIntactAfterCheck(t *testing.T) {
	// Checks must not mutate the circuit or leak state between runs:
	// two identical checks give identical verdicts and witnesses.
	c := gen.Hrapcenko(10)
	v := NewVerifier(c, Default())
	s := sink(t, c, "s")
	r1 := v.Run(context.Background(), Request{Sink: s, Delta: 60})
	r2 := v.Run(context.Background(), Request{Sink: s, Delta: 60})
	if r1.Final != r2.Final || r1.Backtracks != r2.Backtracks || r1.Witness.String() != r2.Witness.String() {
		t.Fatal("checks must be deterministic and stateless")
	}
	_ = waveform.Time(0)
}
