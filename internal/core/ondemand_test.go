package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/waveform"
)

// buildCounts counts the on-demand builds of every Prepared created
// while a test runs.
type buildCounts struct{ learn, project, stems atomic.Int32 }

func (n *buildCounts) String() string {
	return fmt.Sprintf("learn %d, project %d, stems %d", n.learn.Load(), n.project.Load(), n.stems.Load())
}

// countBuilds wraps the on-demand builds in counters until the test
// ends. Tests that use it must not run in parallel with others.
func countBuilds(t *testing.T) *buildCounts {
	n := new(buildCounts)
	pl, pj, rs := precomputeLearning, projectLearning, reconvergentStems
	precomputeLearning = func(c *circuit.Circuit) *learn.Table {
		n.learn.Add(1)
		return pl(c)
	}
	projectLearning = func(t *learn.Table, sub *circuit.Circuit, toSub, fromSub []circuit.NetID) *learn.Table {
		n.project.Add(1)
		return pj(t, sub, toSub, fromSub)
	}
	reconvergentStems = func(c *circuit.Circuit) []circuit.NetID {
		n.stems.Add(1)
		return rs(c)
	}
	t.Cleanup(func() { precomputeLearning, projectLearning, reconvergentStems = pl, pj, rs })
	return n
}

func (n *buildCounts) want(t *testing.T, when string, learn, project, stems int32) {
	t.Helper()
	if n.learn.Load() != learn || n.project.Load() != project || n.stems.Load() != stems {
		t.Fatalf("%s: built %s; want learn %d, project %d, stems %d", when, n, learn, project, stems)
	}
}

// onDemandCircuit is a two-output random netlist whose output g79 has
// a proper fan-in cone and, at the deltas below, checks that end in
// each of the four stages.
func onDemandCircuit(t *testing.T) (*circuit.Circuit, circuit.NetID) {
	c := gen.Random(1, 10, 80, 10)
	sink, ok := c.NetByName("g79")
	if !ok {
		t.Fatal("no net g79")
	}
	return c, sink
}

const (
	deltaStage2 = 300 // g79: refuted by global implications
	deltaStage3 = 255 // g79: refuted by stem correlation
	deltaStage4 = 230 // g79: witnessed by case analysis
)

// forceAnalyses builds every on-demand analysis of p up front: the
// learning table and stems, and each output cone's projections.
func forceAnalyses(p *Prepared) {
	p.LearnTable()
	p.stems()
	for _, po := range p.c.PrimaryOutputs() {
		if cp := p.coneFor(po); cp != nil {
			cp.learnTable()
			cp.stems()
		}
	}
}

// TestOnDemandAnalyses pins when a fresh Prepared builds its on-demand
// analyses: checks that end in stage 1 build none, the first stage-2
// check builds the learning table (and its cone projection) exactly
// once, and the stems wait for the first stage-3 check — or, with stem
// correlation off, for case analysis. Reports equal those of a
// Prepared whose analyses were all forced up front.
func TestOnDemandAnalyses(t *testing.T) {
	c, sink := onDemandCircuit(t)
	for _, cone := range []bool{true, false} {
		t.Run(fmt.Sprintf("cone=%v", cone), func(t *testing.T) {
			n := countBuilds(t)
			opts := Default()
			opts.UseConeSlicing = cone
			p := Prepare(c)
			v := p.NewVerifier(opts)
			top := v.Topological()
			for _, po := range c.PrimaryOutputs() {
				r := v.Run(context.Background(), Request{Sink: po, Delta: top.Add(1)})
				if r.Final != NoViolation || r.AfterGITD != StageSkipped {
					t.Fatalf("δ=top+1 on %s: %s%s, want a stage-1 refutation", c.Net(po).Name, r.BeforeGITD, r.AfterGITD)
				}
			}
			n.want(t, "after stage-1 checks", 0, 0, 0)
			projections := int32(0)
			if cone {
				projections = 1
				if p.coneFor(sink) == nil {
					t.Fatal("g79's cone spans the whole circuit")
				}
			}
			if r := v.Run(context.Background(), Request{Sink: sink, Delta: deltaStage2}); r.AfterGITD != NoViolation {
				t.Fatalf("δ=%d: stage 2 gave %s, want N", deltaStage2, r.AfterGITD)
			}
			n.want(t, "after a stage-2 check", 1, projections, 0)
			if r := v.Run(context.Background(), Request{Sink: sink, Delta: deltaStage3}); r.AfterStem != NoViolation {
				t.Fatalf("δ=%d: stage 3 gave %s, want N", deltaStage3, r.AfterStem)
			}
			n.want(t, "after a stage-3 check", 1, projections, 1)
			if r := v.Run(context.Background(), Request{Sink: sink, Delta: deltaStage4}); r.CaseAnalysis != ViolationFound {
				t.Fatalf("δ=%d: case analysis gave %s, want V", deltaStage4, r.CaseAnalysis)
			}
			n.want(t, "after a stage-4 check", 1, projections, 1)

			// With stem correlation off, case analysis is the first reader.
			noStem := opts
			noStem.UseStemCorrelation = false
			p = Prepare(c)
			if r := p.NewVerifier(noStem).Run(context.Background(), Request{Sink: sink, Delta: deltaStage3}); r.CaseAnalysis == StageSkipped {
				t.Fatalf("δ=%d without stem correlation: no case analysis", deltaStage3)
			}
			n.want(t, "after case analysis without stem correlation", 2, 2*projections, 2)
		})
	}

	// The reports (every non-timing field plus the search events) of the
	// same check sequence, on-demand vs forced, in every golden
	// configuration.
	deltas := []waveform.Time{deltaStage2, deltaStage3, deltaStage4}
	for _, cfg := range goldenConfigs() {
		var lines [2][]string
		for i, force := range []bool{false, true} {
			p := Prepare(c)
			if force {
				forceAnalyses(p)
			}
			v := p.NewVerifier(cfg.opts)
			tr := newFingerprintTracer(c, cfg.name)
			for _, po := range c.PrimaryOutputs() {
				v.Run(context.Background(), Request{Sink: po, Delta: v.Topological().Add(1), Tracer: tr})
				for _, d := range deltas {
					v.Run(context.Background(), Request{Sink: po, Delta: d, Tracer: tr})
				}
			}
			v.RunAll(context.Background(), Request{Delta: deltaStage4, Workers: 1, Tracer: tr})
			lines[i] = tr.lines
		}
		if !slices.Equal(lines[0], lines[1]) {
			t.Errorf("%s: on-demand reports differ from forced ones:\n%v\n%v", cfg.name, lines[0], lines[1])
		}
	}
}

// TestOnDemandFirstUseConcurrent races the first use of the on-demand
// analyses from eight goroutines (run it under -race): every goroutine
// sees the same table, each analysis is built exactly once, and every
// check agrees with the serial answer.
func TestOnDemandFirstUseConcurrent(t *testing.T) {
	c, sink := onDemandCircuit(t)
	n := countBuilds(t)
	p := Prepare(c)
	const workers = 8
	tables := make([]*learn.Table, workers)
	finals := make([]Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			delta := waveform.Time(deltaStage2)
			if i%2 == 1 {
				delta = deltaStage3
			}
			r := p.NewVerifier(Default()).Run(context.Background(), Request{Sink: sink, Delta: delta})
			finals[i] = r.Final
			tables[i] = p.LearnTable()
		}(i)
	}
	wg.Wait()
	for i := range tables {
		if tables[i] != tables[0] {
			t.Fatalf("goroutine %d saw table %p, goroutine 0 saw %p", i, tables[i], tables[0])
		}
		if finals[i] != NoViolation {
			t.Fatalf("goroutine %d: verdict %s, want N", i, finals[i])
		}
	}
	n.want(t, "after concurrent first use", 1, 1, 1)
}

// TestOnDemandBuildPanicRepeats pins the build-once semantics on a
// failing build: a learning pass that panics panics again on every
// later use instead of leaving a nil table that silently turns
// learning off.
func TestOnDemandBuildPanicRepeats(t *testing.T) {
	c, sink := onDemandCircuit(t)
	countBuilds(t)
	builds := 0
	precomputeLearning = func(*circuit.Circuit) *learn.Table {
		builds++
		panic("learning pass failed")
	}
	p := Prepare(c)
	v := p.NewVerifier(Default())
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if r := recover(); r != "learning pass failed" {
					t.Fatalf("use %d: recovered %v, want the build's panic", i, r)
				}
			}()
			v.Run(context.Background(), Request{Sink: sink, Delta: deltaStage2})
		}()
	}
	if builds != 1 {
		t.Fatalf("learning pass ran %d times, want 1", builds)
	}
}
