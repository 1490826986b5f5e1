package repro_test

// End-to-end integration tests: the flows the examples and command-line
// tools exercise, asserted tightly enough to serve as acceptance tests
// for the reproduction (the headline numbers of the paper that must
// hold exactly).

import (
	"context"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/sdf"
	"repro/internal/sim"
)

// TestPaperHeadlines asserts the paper's exactly-reproducible claims.
func TestPaperHeadlines(t *testing.T) {
	// Figure 1 / Example 2: top 70, floating 60, δ=61 refuted by plain
	// narrowing without case analysis.
	tr := harness.Example2()
	if tr.Top != 70 || tr.Floating != 60 || !tr.RefutedAt61 {
		t.Fatalf("Example 2 mismatch: %+v", tr)
	}

	// Carry-skip adders: floating delay strictly below topological,
	// refutation at δ+1 and a certified witness at δ.
	ex := harness.CarrySkip(16, 4, 200000)
	if !ex.Exact || ex.Floating >= ex.Top {
		t.Fatalf("carry-skip 16 mismatch: %+v", ex)
	}

	// c1908-style anecdote: dominators prove a bound plain narrowing
	// cannot, far below the topological delay.
	an := harness.Anecdote()
	if an.WithDomVerdict != core.NoViolation || an.PlainVerdict != core.PossibleViolation {
		t.Fatalf("anecdote mismatch: %+v", an)
	}
	if an.ProvedBound >= an.Top {
		t.Fatalf("anecdote bound %s not below top %s", an.ProvedBound, an.Top)
	}
}

// TestBenchSDFRoundTripFlow drives the ltta-style flow: generate a
// circuit, serialise to .bench, re-read, back-annotate via SDF, check.
func TestBenchSDFRoundTripFlow(t *testing.T) {
	src := circuit.BenchString(gen.C17(10))
	c, err := circuit.ParseBenchString(src, circuit.BenchOptions{DefaultDelay: 1, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	// Delays round-trip through the !delay directives.
	if delay.New(c).Topological() != 30 {
		t.Fatal("delays lost in round trip")
	}
	// SDF override: make G22's driver slower; topological must move.
	an, err := sdf.ApplyString(c, `
(DELAYFILE (TIMESCALE 1ps)
  (CELL (CELLTYPE "NAND2") (INSTANCE G22)
    (DELAY (ABSOLUTE (IOPATH a y (25))))))
`)
	if err != nil {
		t.Fatal(err)
	}
	if an.Applied != 1 {
		t.Fatalf("applied = %d", an.Applied)
	}
	if got := delay.New(c).Topological(); got != 45 {
		t.Fatalf("top after SDF = %s, want 45", got)
	}
	v := core.NewVerifier(c, core.Default())
	g22, _ := c.NetByName("G22")
	res, err := v.ExactFloatingDelayCtx(context.Background(), g22, core.Request{})
	if err != nil || !res.Exact {
		t.Fatalf("exact delay failed: %v %+v", err, res)
	}
	want, _, err := sim.FloatingDelayExhaustive(c, g22)
	if err != nil || res.Delay != want {
		t.Fatalf("engine %s vs oracle %s (%v)", res.Delay, want, err)
	}
}

// TestSuiteRowShapes verifies the Table-1 qualitative shape on the fast
// suite circuits: the δ+1 check is refuted, the δ check witnessed, and
// the designated showcase circuits are decided by the designated stage.
func TestSuiteRowShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds")
	}
	wantStage := map[string]string{
		"c1908": "dominators", // the paper's dominator showcase
		"c2670": "stems",      // the paper's stem-correlation showcase
	}
	for _, e := range gen.SubstituteSuite() {
		switch e.Name {
		case "c17", "c1908", "c2670", "c880":
		default:
			continue // keep the integration test fast
		}
		rows := harness.CircuitRows(e.Name, e.Circuit, 200000)
		high, low := rows[0], rows[1]
		if low.CAResult != core.ViolationFound {
			t.Errorf("%s: δ row not witnessed: %+v", e.Name, low)
		}
		stage := "plain"
		switch {
		case high.BeforeGITD == core.NoViolation:
			stage = "plain"
		case high.AfterGITD == core.NoViolation:
			stage = "dominators"
		case high.AfterStem == core.NoViolation:
			stage = "stems"
		default:
			stage = "case-analysis"
		}
		if want, ok := wantStage[e.Name]; ok && stage != want {
			t.Errorf("%s: δ+1 decided by %s, want %s (row %+v)", e.Name, stage, want, high)
		}
	}
}

// TestLongestPathsAgainstVerifier cross-checks the path enumerator: the
// longest structural path equals the topological arrival, and the
// engine's exact floating delay never exceeds it.
func TestLongestPathsAgainstVerifier(t *testing.T) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	paths := oracle.KLongestPaths(c, s, 4)
	if len(paths) == 0 || paths[0].Length != 70 {
		t.Fatalf("longest path = %+v", paths)
	}
	names := strings.Join(oracle.PathNames(c, paths[0]), " ")
	if !strings.HasSuffix(names, "s") {
		t.Fatalf("path does not end at s: %s", names)
	}
	v := core.NewVerifier(c, core.Default())
	res, err := v.ExactFloatingDelayCtx(context.Background(), s, core.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > paths[0].Length {
		t.Fatal("floating delay cannot exceed the longest structural path")
	}
}
