package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// The golden differential test pins the engine's observable behaviour
// check by check, in two hashes per check:
//
//   - the search hash covers the Decision/Backtrack/StemSplit/
//     DominatorRound event sequence and every search field of the
//     Report: stage verdicts, backtracks, witness, dominators and their
//     set, dominator rounds, decisions and stem splits;
//   - the work hash covers the fixpoint's work counters: gate
//     applications (prop), narrowings (narrow) and the worklist's high
//     water (qhw).
//
// The file under testdata/ was recorded once and is compared verbatim,
// so a refactor or optimisation of the pipeline must reproduce the
// search exactly — the same decisions in the same order, the same
// backtracks, the same dominators. A scheduling change that reaches
// the same fixpoints with fewer applications (DESIGN.md §17) moves
// only the work column.
//
// Regenerate only for an intended behaviour change:
//
//	go test ./internal/core -run TestGoldenFingerprints -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_fingerprints.txt from the current engine")

const goldenFile = "testdata/golden_fingerprints.txt"

// goldenSuiteDelay is each substitute circuit's exact floating delay D
// (EXPERIMENTS.md, E3).
var goldenSuiteDelay = map[string]int64{
	"c17": 30, "c432": 530, "c499": 180, "c880": 390, "c1355": 330, "c1908": 400,
	"c2670": 470, "c3540": 430, "c5315": 510, "c6288": 1210, "c7552": 550,
}

// fingerprintTracer hashes the search events of the check in flight
// and emits one fingerprint line per finished check.
type fingerprintTracer struct {
	c     *circuit.Circuit
	label string
	h     hash.Hash // search events of the check in flight
	work  hash.Hash
	lines []string
}

func newFingerprintTracer(c *circuit.Circuit, label string) *fingerprintTracer {
	return &fingerprintTracer{c: c, label: label, h: sha256.New(), work: sha256.New()}
}

func (t *fingerprintTracer) CheckStart(circuit.NetID, waveform.Time) { t.h.Reset() }
func (t *fingerprintTracer) StageEnter(Stage)                        {}
func (t *fingerprintTracer) StageExit(Stage, Result, time.Duration)  {}
func (t *fingerprintTracer) DominatorRound(round, doms int, narrowed bool) {
	fmt.Fprintf(t.h, "R%d,%d,%v;", round, doms, narrowed)
}
func (t *fingerprintTracer) Decision(depth int, n circuit.NetID, val int) {
	fmt.Fprintf(t.h, "D%d,%d,%d;", depth, n, val)
}
func (t *fingerprintTracer) Backtrack(total int) { fmt.Fprintf(t.h, "B%d;", total) }
func (t *fingerprintTracer) StemSplit(split int, stem circuit.NetID) {
	fmt.Fprintf(t.h, "S%d,%d;", split, stem)
}

func (t *fingerprintTracer) CheckDone(r *Report) {
	fmt.Fprintf(t.h, "|%s%s%s%s%s bt=%d wit=%v@%s dom=%d set=%v/%v rounds=%d dec=%d splits=%d",
		r.BeforeGITD, r.AfterGITD, r.AfterStem, r.CaseAnalysis, r.Final,
		r.Backtracks, r.Witness, r.WitnessSettle, r.Dominators,
		r.DominatorSet.Nets, r.DominatorSet.Dist, r.DominatorRounds,
		r.Stats.Decisions, r.Stats.StemSplits)
	t.work.Reset()
	fmt.Fprintf(t.work, "prop=%d narrow=%d qhw=%d", r.Propagations, r.Stats.Narrowings, r.Stats.QueueHighWater)
	t.lines = append(t.lines, fmt.Sprintf("%s %s δ=%s %s%s%s%s%s bt=%d %s %s",
		t.label, t.c.Net(r.Sink).Name, r.Delta,
		r.BeforeGITD, r.AfterGITD, r.AfterStem, r.CaseAnalysis, r.Final,
		r.Backtracks, hex.EncodeToString(t.h.Sum(nil))[:24], hex.EncodeToString(t.work.Sum(nil))[:16]))
}

// goldenConfigs are the option sets the fingerprints cover: the
// paper's full pipeline and a variant without dynamic dominators
// (whose case analysis computes its own carriers), each cone-sliced
// and whole-circuit.
func goldenConfigs() []struct {
	name string
	opts Options
} {
	full := Default()
	noDom := Default()
	noDom.UseDominators = false
	var out []struct {
		name string
		opts Options
	}
	for _, base := range []struct {
		name string
		opts Options
	}{{"default", full}, {"nodom", noDom}} {
		for _, cone := range []bool{true, false} {
			o := base.opts
			o.UseConeSlicing = cone
			name := base.name + "/cone"
			if !cone {
				name = base.name + "/whole"
			}
			out = append(out, struct {
				name string
				opts Options
			}{name, o})
		}
	}
	return out
}

// goldenLines runs every fingerprinted check and returns the lines in
// a fixed order: per configuration, per circuit, a fresh verifier runs
// the serial sweep at each δ in ascending order.
func goldenLines(t *testing.T) []string {
	type workload struct {
		name   string
		c      *circuit.Circuit
		deltas func(top waveform.Time) []waveform.Time
		budget int
	}
	var loads []workload
	for _, e := range gen.SubstituteSuite() {
		d := waveform.Time(goldenSuiteDelay[e.Name])
		budget := 0
		if e.Name == "c6288" {
			budget = 2000
		}
		loads = append(loads, workload{e.Name, e.Circuit, func(top waveform.Time) []waveform.Time {
			return dedupeTimes(d, d.Add(1), top.Add(1))
		}, budget})
	}
	for seed := int64(1); seed <= 20; seed++ {
		c := gen.Random(seed, 10, 80, 10)
		res, err := NewVerifier(c, Default()).CircuitFloatingDelayCtx(context.Background(), Request{})
		if err != nil {
			t.Fatal(err)
		}
		d := res.Delay
		loads = append(loads, workload{fmt.Sprintf("rand%d", seed), c,
			func(top waveform.Time) []waveform.Time {
				return dedupeTimes(d.Sub(10), d, d.Add(1), top.Add(1))
			}, 0})
	}

	var lines []string
	for _, cfg := range goldenConfigs() {
		for _, w := range loads {
			prep := Prepare(w.c)
			v := prep.NewVerifier(cfg.opts)
			tr := newFingerprintTracer(w.c, cfg.name+" "+w.name)
			for _, delta := range w.deltas(v.Topological()) {
				req := Request{Delta: delta, Workers: 1, Tracer: tr}
				req.Budgets.MaxBacktracks = w.budget
				v.RunAll(context.Background(), req)
			}
			lines = append(lines, tr.lines...)
		}
	}
	return lines
}

func dedupeTimes(ts ...waveform.Time) []waveform.Time {
	var out []waveform.Time
	for _, t := range ts {
		if t <= 0 {
			continue
		}
		dup := false
		for _, o := range out {
			dup = dup || o == t
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// TestGoldenFingerprints asserts the engine reproduces the recorded
// per-check fingerprints exactly.
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("golden differential run takes seconds; skipped in -short")
	}
	if raceEnabled && !*updateGolden {
		// Serial and deterministic: the race detector has nothing to
		// find here and would stretch ~10 s of case analysis to minutes.
		t.Skip("serial golden run skipped under -race")
	}
	got := goldenLines(t)
	if *updateGolden {
		body := "# ltta golden check fingerprints: config circuit sink δ stages(before,gitd,stem,ca,final) backtracks search-sha256-prefix work-sha256-prefix\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenFile)
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d checks fingerprinted, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("check %d diverged:\n got  %s\n want %s", i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d fingerprints diverged", bad, len(want))
	}
}
