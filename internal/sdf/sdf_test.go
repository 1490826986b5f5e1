package sdf

import (
	"strings"
	"testing"

	"repro/internal/circuit"
)

func mustBuild(t testing.TB, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(src, circuit.BenchOptions{DefaultDelay: 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const testCkt = `
INPUT(a)
INPUT(b)
OUTPUT(z)
x = AND(a, b)
z = OR(x, b)
`

const testSDF = `
(DELAYFILE
  (SDFVERSION "3.0")
  (DESIGN "testckt")
  (TIMESCALE 1ns)
  (CELL (CELLTYPE "AND2") (INSTANCE x)
    (DELAY (ABSOLUTE
      (IOPATH a y (2:3:4) (2:3:4))
      (IOPATH b y (1:2:3) (1:2:3))
    ))
  )
  (CELL (CELLTYPE "OR2") (INSTANCE z)
    (DELAY (ABSOLUTE
      (IOPATH a y (5))
    ))
  )
)
`

func gateOf(t testing.TB, c *circuit.Circuit, net string) circuit.Gate {
	t.Helper()
	id, ok := c.NetByName(net)
	if !ok {
		t.Fatalf("no net %q", net)
	}
	return c.Gate(c.Net(id).Driver)
}

func TestApplyBasic(t *testing.T) {
	c := mustBuild(t, testCkt)
	an, err := ApplyString(c, testSDF)
	if err != nil {
		t.Fatal(err)
	}
	if an.Design != "testckt" || an.Version != "3.0" {
		t.Fatalf("header wrong: %+v", an)
	}
	if an.Applied != 2 || len(an.Missing) != 0 {
		t.Fatalf("applied %d missing %v", an.Applied, an.Missing)
	}
	// 1ns timescale → values in ps: max over IOPATHs.
	if g := gateOf(t, c, "x"); g.Delay != 4000 {
		t.Fatalf("x delay = %d, want 4000", g.Delay)
	}
	if g := gateOf(t, c, "z"); g.Delay != 5000 {
		t.Fatalf("z delay = %d, want 5000", g.Delay)
	}
}

func TestApplyTimescalePs(t *testing.T) {
	c := mustBuild(t, testCkt)
	sdf := strings.Replace(testSDF, "1ns", "100ps", 1)
	if _, err := ApplyString(c, sdf); err != nil {
		t.Fatal(err)
	}
	if g := gateOf(t, c, "x"); g.Delay != 400 {
		t.Fatalf("x delay = %d, want 400 (100ps scale)", g.Delay)
	}
}

func TestApplyMissingInstance(t *testing.T) {
	c := mustBuild(t, testCkt)
	sdf := strings.Replace(testSDF, "(INSTANCE x)", "(INSTANCE ghost)", 1)
	an, err := ApplyString(c, sdf)
	if err != nil {
		t.Fatal(err)
	}
	if an.Applied != 1 || len(an.Missing) != 1 || an.Missing[0] != "ghost" {
		t.Fatalf("annotation = %+v", an)
	}
}

func TestApplyDefaultTimescale(t *testing.T) {
	c := mustBuild(t, testCkt)
	sdf := `(DELAYFILE (CELL (INSTANCE z) (DELAY (ABSOLUTE (IOPATH a y (2))))))`
	if _, err := ApplyString(c, sdf); err != nil {
		t.Fatal(err)
	}
	if g := gateOf(t, c, "z"); g.Delay != 2000 {
		t.Fatalf("default timescale must be 1ns: got %d", g.Delay)
	}
}

func TestParseErrors(t *testing.T) {
	c := mustBuild(t, testCkt)
	cases := []struct {
		src, wantSub string
	}{
		{`(CELL)`, "DELAYFILE"},
		{`(DELAYFILE (CELL (INSTANCE z) (DELAY (ABSOLUTE (IOPATH a y (x:y:z))))))`, "bad rtriple"},
		{`(DELAYFILE`, "missing )"},
		{`(DELAYFILE) extra`, "trailing"},
		{`(DELAYFILE (TIMESCALE 1lightyear))`, "TIMESCALE"},
		{`(DELAYFILE (SDFVERSION "unterminated`, "unterminated string"},
	}
	for _, tc := range cases {
		_, err := ApplyString(c, tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("src %q: err = %v, want containing %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	c := mustBuild(t, testCkt)
	sdf := "// leading comment\n" + testSDF
	if _, err := ApplyString(c, sdf); err != nil {
		t.Fatal(err)
	}
}

func TestUnsupportedConstructsIgnored(t *testing.T) {
	c := mustBuild(t, testCkt)
	sdf := `
(DELAYFILE
  (TIMESCALE 1ps)
  (CELL (CELLTYPE "AND2") (INSTANCE x)
    (DELAY (ABSOLUTE (IOPATH a y (7))))
    (TIMINGCHECK (SETUP d (posedge clk) (3)))
  )
)`
	an, err := ApplyString(c, sdf)
	if err != nil {
		t.Fatal(err)
	}
	if an.Applied != 1 {
		t.Fatalf("applied = %d", an.Applied)
	}
	if g := gateOf(t, c, "x"); g.Delay != 7 {
		t.Fatalf("x delay = %d, want 7", g.Delay)
	}
}

// TestDelayBounds: a delay that is negative, not finite, has its min
// above its max, or reaches waveform.PosInf once scaled is an error and
// stores nothing; values at the edge of the range apply. Only d_max is
// stored, but the min of a triple is still checked.
func TestDelayBounds(t *testing.T) {
	cases := []struct {
		timescale, value string
		dmax             int64 // -1: rejected
	}{
		{"1ns", "(1e30)", -1},
		{"1ns", "(Inf)", -1},
		{"1ns", "(-Inf)", -1},
		{"1ns", "(NaN)", -1},
		{"1ns", "(0:1:Inf)", -1},
		{"1ns", "(-5:1:2)", -1},
		{"1ns", "(-5)", -1},
		{"1ns", "(9:0:1)", -1},
		{"1ns", "(NaN:1:2)", -1},
		{"1ns", "(2305843009213694)", -1},
		{"1ps", "(2305843009213693952)", -1},
		{"1ps", "(2305843009213693000)", 2305843009213692928},
		{"1ns", "(0)", 0},
		{"1ns", "(1:1:1)", 1000},
		{"1ns", "(1:5:9)", 9000},
	}
	for _, tc := range cases {
		c := mustBuild(t, testCkt)
		src := "(DELAYFILE (TIMESCALE " + tc.timescale + ") (CELL (INSTANCE x) (DELAY (ABSOLUTE (IOPATH a y " + tc.value + ")))))"
		_, err := ApplyString(c, src)
		g := gateOf(t, c, "x")
		switch {
		case tc.dmax < 0 && err == nil:
			t.Errorf("%s at %s: applied %d, want an error", tc.value, tc.timescale, g.Delay)
		case tc.dmax < 0 && g.Delay != 10:
			t.Errorf("%s at %s: rejected but stored %d", tc.value, tc.timescale, g.Delay)
		case tc.dmax >= 0 && err != nil:
			t.Errorf("%s at %s: %v", tc.value, tc.timescale, err)
		case tc.dmax >= 0 && g.Delay != tc.dmax:
			t.Errorf("%s at %s: stored %d, want %d", tc.value, tc.timescale, g.Delay, tc.dmax)
		}
	}
}
