package core

import (
	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/dom"
)

// ReportArena is caller-owned backing storage for the reports of
// serial checks and sweeps. With Request.Arena set, Run and a serial
// RunAll (Workers == 1) take their Report, CircuitReport, PerOutput
// slice, dominator sets, per-check bookkeeping, the constraint system
// of every circuit or cone slice it solves on, and the carrier,
// dominator and case-analysis workspace (witnesses included) from the
// arena instead of the heap, so a steady-state δ-sweep loop — a delay
// search, a benchmark, a long harness run — performs zero allocations
// per sweep once the arena has grown to the circuit's output count.
//
// The trade is ownership: everything returned from a call that used an
// arena is valid only until the next call using the same arena, which
// reuses the storage in place. Callers that retain reports (or compare
// reports across calls) must either copy what they keep or not pass an
// arena. A parallel RunAll ignores the arena entirely — its
// per-goroutine checks cannot share one backing store — and allocates
// as if Request.Arena were nil.
//
// An arena must not be shared by concurrent calls. The zero value is
// ready to use.
type ReportArena struct {
	reports []*Report        // per-check reports, allocated once and reused
	doms    []dom.Dominators // per report slot: its DominatorSet backing
	used    int
	sweep   []*Report // runAllSerial's collection slice
	perOut  []*Report // the aggregate's PerOutput backing
	cr      CircuitReport
	rs      runState
	systems map[*circuit.Circuit]*constraint.System
}

// begin starts a new top-level call: every report slot becomes
// reusable.
func (a *ReportArena) begin() { a.used = 0 }

// report hands out the next reusable report slot, zeroed, with the
// backing its DominatorSet is copied into.
func (a *ReportArena) report() (*Report, *dom.Dominators) {
	if a.used == len(a.reports) {
		a.reports = append(a.reports, new(Report))
		a.doms = append(a.doms, dom.Dominators{})
	}
	r, d := a.reports[a.used], &a.doms[a.used]
	a.used++
	*r = Report{}
	return r, d
}

// system returns the arena's constraint system for circuit c (a whole
// circuit or a cone slice), allocating it for the first check on c.
func (a *ReportArena) system(c *circuit.Circuit) *constraint.System {
	if a.systems[c] == nil {
		if a.systems == nil {
			a.systems = make(map[*circuit.Circuit]*constraint.System)
		}
		a.systems[c] = constraint.New(c)
	}
	return a.systems[c]
}
