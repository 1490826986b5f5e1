package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// DelayResult is the outcome of an exact floating-delay computation.
type DelayResult struct {
	// Delay is the exact floating-mode delay when Exact, otherwise the
	// best proven (sound) upper bound — the paper's "U" annotation.
	Delay waveform.Time
	// Lower is the largest witnessed delay (== Delay when Exact; −1
	// when no vector was witnessed at all).
	Lower waveform.Time
	// Exact reports whether Delay was certified by a test vector at
	// Delay and a refutation at Delay+1.
	Exact bool
	// Witness realises Lower.
	Witness sim.Vector
	// Checks counts the timing checks performed by the search.
	Checks int
	// Backtracks sums case-analysis backtracks across all checks.
	Backtracks int
}

// ExactFloatingDelayCtx computes the exact floating-mode delay of one
// output by binary search on δ: the check (sink, δ) is monotone in δ
// and each decided check is exact, so the largest violable δ is the
// delay. Abandoned checks never count as refutations — the search keeps
// navigating upward past them so the refuted region still tightens the
// upper bound (the paper's c6288 row: δ+1 refuted, δ abandoned, value
// reported as an upper bound "U"). The result is the sound bracket
// [Lower, Delay], exact iff the two meet.
//
// The request's Deadline, Budgets, and Tracer apply to every check of
// the search (Sink and Delta are overwritten). A cancelled check aborts
// the search: the partial bracket so far is returned together with the
// context's error (or context.DeadlineExceeded for a request deadline).
func (v *Verifier) ExactFloatingDelayCtx(ctx context.Context, sink circuit.NetID, req Request) (*DelayResult, error) {
	upper := v.analysis.Arrival(sink) // topological bound: delay ≤ top_sink
	if upper < 0 {
		return nil, fmt.Errorf("core: net %s has no arrival", v.c.Net(sink).Name)
	}
	res := &DelayResult{Lower: -1}
	cursor := waveform.Time(-1) // search navigation; may pass abandoned points
	for cursor < upper {
		mid := waveform.MidpointCeil(cursor, upper)
		req.Sink, req.Delta = sink, mid
		rep := v.Run(ctx, req)
		res.Checks++
		if rep.Backtracks > 0 {
			res.Backtracks += rep.Backtracks
		}
		switch rep.Final {
		case ViolationFound:
			cursor = mid
			res.Lower = mid
			res.Witness = append(sim.Vector(nil), rep.Witness...) // an arena reuses rep
		case NoViolation:
			upper = mid.Sub(1)
		case Cancelled:
			res.Delay = upper
			res.Exact = false
			return res, cancelErr(ctx)
		default: // Abandoned: move the cursor, claim nothing
			cursor = mid
		}
	}
	res.Delay = upper
	res.Exact = res.Lower == upper
	return res, nil
}

// cancelErr maps a cancelled check to the caller-visible error: the
// context's own error when it fired, context.DeadlineExceeded when the
// request deadline (invisible to ctx) did.
func cancelErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// CircuitReport aggregates a whole-circuit check at one δ: the paper's
// Table-1 rows check every output and report the strongest verdict.
type CircuitReport struct {
	Delta waveform.Time
	// PerOutput holds one report per primary output, in declaration
	// order.
	PerOutput []*Report
	// BeforeGITD/AfterGITD/AfterStem are NoViolation when EVERY output
	// was refuted at or before the stage (the paper's "N" means no
	// violation on any output), PossibleViolation otherwise.
	BeforeGITD, AfterGITD, AfterStem Result
	// Backtracks sums the case-analysis backtracks over all outputs.
	Backtracks int
	// CaseAnalysis is ViolationFound when any output has a witness,
	// Abandoned when some output was abandoned (and none violated),
	// NoViolation when everything was refuted.
	CaseAnalysis Result
	// Final is the overall verdict (Cancelled when some check was
	// interrupted and no violation decided the sweep first).
	Final Result
	// WitnessOutput is the PO index of the first witnessed violation.
	WitnessOutput int

	// Propagations, Dominators, and DominatorRounds sum the per-output
	// report counters, so circuit-level reports account for all work
	// done (not just backtracks).
	Propagations    int64
	Dominators      int
	DominatorRounds int
}

func sortNetsByArrivalDesc(nets []circuit.NetID, a *delay.Analysis) {
	sort.Slice(nets, func(i, j int) bool {
		ai, aj := a.Arrival(nets[i]), a.Arrival(nets[j])
		if ai != aj {
			return ai > aj
		}
		return nets[i] < nets[j]
	})
}

// mergeStage combines per-output stage verdicts: a stage that ran on
// any output dominates StageSkipped, and PossibleViolation dominates
// NoViolation (the paper's "N" means refuted on every output).
func mergeStage(acc, r Result) Result {
	switch {
	case r == StageSkipped:
		return acc
	case acc == StageSkipped:
		return r
	case r == PossibleViolation || acc == PossibleViolation:
		return PossibleViolation
	default:
		return acc
	}
}

// CircuitFloatingDelayCtx computes the exact floating-mode delay over
// all outputs (max of the per-output delays), with the same exactness
// caveat as ExactFloatingDelayCtx. The request's Deadline, Budgets, and
// Tracer apply to every check, and a cancellation aborts the sweep
// with the partial result and an error.
func (v *Verifier) CircuitFloatingDelayCtx(ctx context.Context, req Request) (*DelayResult, error) {
	best := &DelayResult{Delay: -1, Lower: -1}
	// Search outputs in decreasing topological-arrival order and skip
	// any output whose arrival (a hard upper bound on its delay) cannot
	// beat the best witnessed delay so far — on wide datapaths this
	// prunes most outputs after the slowest one is resolved.
	pos := append([]circuit.NetID(nil), v.c.PrimaryOutputs()...)
	sortNetsByArrivalDesc(pos, v.analysis)
	for _, po := range pos {
		if v.analysis.Arrival(po) <= best.Lower {
			continue
		}
		r, err := v.ExactFloatingDelayCtx(ctx, po, req)
		if err != nil {
			// Keep the bracket established so far: it is a sound partial
			// answer (Lower is witnessed, Delay bounds the outputs already
			// searched) even though the sweep is incomplete.
			if r != nil {
				best.Checks += r.Checks
				best.Backtracks += r.Backtracks
				if r.Lower > best.Lower {
					best.Lower = r.Lower
					best.Witness = r.Witness
				}
				if r.Delay > best.Delay {
					best.Delay = r.Delay
				}
			}
			best.Exact = false
			return best, err
		}
		best.Checks += r.Checks
		best.Backtracks += r.Backtracks
		if r.Lower > best.Lower {
			best.Lower = r.Lower
			best.Witness = r.Witness
		}
		if r.Delay > best.Delay {
			best.Delay = r.Delay
		}
	}
	// The circuit delay is exact when the largest witnessed delay meets
	// the largest sound upper bound — individual outputs may be inexact
	// as long as a slower exact output dominates them.
	best.Exact = best.Lower == best.Delay
	return best, nil
}
