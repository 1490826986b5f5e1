package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// coldLayerSample is how many cold circuits (the first ones, all sizes
// alike) the traced run times the layer functions on.
const coldLayerSample = 12

// runCold runs cold_uploads: an open loop of operations, each a PUT of
// a never-seen industrial circuit followed by one streamed batch
// checking every primary output at δ ∈ {top+1, top}. Set-up fills the
// daemon's 16-circuit registry with checked filler circuits, so every
// operation misses, parses, hashes, prepares, builds cones — and evicts.
func runCold(cfg config) (*outcome, error) {
	n := int(coldRate * float64(cfg.Seconds))
	windows := 1
	if cfg.Trace {
		windows = 2 // the traced window needs never-seen circuits too
	}
	ops, inputs, attempts, refs, err := buildColdOps(cfg.Seed, n, windows)
	if err != nil {
		return nil, err
	}
	fill := make([]*request, 0, 2*coldRegistrySize)
	for k := 0; k < coldRegistrySize; k++ {
		circ := len(inputs)
		in, err := fillerInput(cfg.Seed, k)
		if err != nil {
			return nil, err
		}
		fillRefs, err := referencesFor(circ, in, 0, true)
		if err != nil {
			return nil, err
		}
		for key, r := range fillRefs {
			refs[key] = r
		}
		check, err := checkRequest(in, circ, keysOf(circ, in))
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, &circuitInput{Name: in.Name, Hash: in.Hash})
		fill = append(fill, uploadRequest(in, circ), check)
	}
	inputOf := func(i int) *circuitInput { return inputs[i] }
	out := newOutcome(cfg)

	var dep *deployment
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if dep != nil {
			dep.stop()
		}
		start := time.Now()
		if dep, err = deploy(cfg.Lttad, wlCold); err != nil {
			return nil, err
		}
		if err := fillRegistry(dep.front(), fill, refs, inputOf); err != nil {
			dep.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer dep.stop()
	out.Metrics.set("setup_s", median(setups), len(setups))

	lc := newLoadClient(dep.front().url())
	defer lc.close()
	runs, t0 := runOpen(lc, ops[:n])
	plain := collect(runs, t0, refs, inputOf, true)
	rss, err := dep.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.addServed(plain, coldPasses(runs), rss)
	out.Tails = append(out.Tails, fmt.Sprintf("generator lateness: p50=%.4g ms p99=%.4g ms over %d ops at %g ops/s",
		median(plain.LateMs), percentile(sortedCopy(plain.LateMs), 0.99), len(plain.LateMs), coldRate))
	if !cfg.Trace {
		return out, nil
	}

	before, err := scrapeAll(dep.all())
	if err != nil {
		return nil, err
	}
	runs, t0 = runOpen(lc, ops[n:])
	traced := collect(runs, t0, refs, inputOf, true)
	after, err := scrapeAll(dep.all())
	if err != nil {
		return nil, err
	}
	var sample []*circuitInput
	for i := 0; i < min(coldLayerSample, n); i++ {
		in, err := coldInput(cfg.Seed, i, attempts[i])
		if err != nil {
			return nil, err
		}
		sample = append(sample, in)
	}
	lt, err := timeLayers(sample, true)
	if err != nil {
		return nil, err
	}
	out.addTracedServed(plain, traced, before, after, dep, lt, 2)
	out.addBacktracks(refs)
	return out, out.writeServedTrace(cfg, traced, inputs)
}

// fillRegistry uploads the filler circuits and checks each once, so each
// holds prepared state in the registry before the window opens.
func fillRegistry(front *daemon, fill []*request, refs refTable, inputOf func(int) *circuitInput) error {
	lc := newLoadClient(front.url())
	defer lc.close()
	for i := 0; i < len(fill); i += 2 {
		up, check := fill[i], fill[i+1]
		if err := verifyUpload(lc.do(context.Background(), up), inputOf(up.Circ), true); err != nil {
			return err
		}
		if _, err := verifyChecks(lc.do(context.Background(), check), refs); err != nil {
			return err
		}
	}
	return nil
}

// buildColdOps generates the seeded operation stream of the given
// number of windows, perWindow operations each, and its references,
// before any daemon starts. Operation i of a window is due i/coldRate
// seconds into it. A candidate circuit with a check that reaches case
// analysis (about a third of them) is skipped for the next attempt at
// the same size: every check after the upload is then cheap, as the
// workload intends, and case-analysis cost, whose long tail differs
// from seed to seed, stays in table1. The stream still depends on the
// seed alone.
func buildColdOps(seed int64, perWindow, windows int) ([]*op, []*circuitInput, []int, refTable, error) {
	total := perWindow * windows
	ops := make([]*op, total)
	inputs := make([]*circuitInput, total)
	attempts := make([]int, total)
	parts := make([]refTable, total)
	err := parallel(runtime.NumCPU(), total, func(i int) error {
		for j := 0; j < coldAttempts; j++ {
			in, err := coldInput(seed, i, j)
			if err != nil {
				return err
			}
			refs, err := referencesFor(i, in, coldBacktrackCap, false)
			if err == errTooHard || err == nil && reachesCaseAnalysis(refs) {
				continue
			}
			if err != nil {
				return err
			}
			check, err := checkRequest(in, i, keysOf(i, in))
			if err != nil {
				return err
			}
			ops[i] = &op{Reqs: []*request{uploadRequest(in, i), check}}
			// Keep what verification needs; drop the parse.
			inputs[i] = &circuitInput{Name: in.Name, Hash: in.Hash}
			attempts[i], parts[i] = j, refs
			return nil
		}
		return fmt.Errorf("cold op %d: no circuit that stays out of case analysis in %d draws", i, coldAttempts)
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	refs := refTable{}
	for _, p := range parts {
		for k, r := range p {
			refs[k] = r
		}
	}
	for i, o := range ops {
		o.Due = time.Duration(float64(i%perWindow) / coldRate * float64(time.Second))
	}
	return ops, inputs, attempts, refs, nil
}

// reachesCaseAnalysis reports whether any reference ran case analysis.
func reachesCaseAnalysis(refs refTable) bool {
	for _, r := range refs {
		if r.Want.CaseAnalysis != core.StageSkipped.String() {
			return true
		}
	}
	return false
}

// coldPasses measures each complete group of three consecutive
// operations — one circuit of each size — from the first one's due time
// to the last answer.
func coldPasses(runs []*opRun) []float64 {
	var out []float64
	for k := 0; k+2 < len(runs); k += 3 {
		var end time.Time
		ok := true
		for _, r := range runs[k : k+3] {
			last := r.Ex[len(r.Ex)-1]
			if last.Err != nil || last.Status/100 != 2 || len(r.Ex) != len(r.Op.Reqs) {
				ok = false
				break
			}
			if last.End.After(end) {
				end = last.End
			}
		}
		if ok {
			out = append(out, end.Sub(runs[k].Start).Seconds())
		}
	}
	return out
}
