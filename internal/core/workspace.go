package core

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/dom"
	"repro/internal/learn"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// workspace is the reusable scratch storage of pipeline stages 2–4:
// the incremental carrier and dominator state, the learning cursor,
// stem correlation's fan-in mask and branch domains, and case
// analysis's decision stack and objective lists. It lives on the run
// state, so one workspace serves a whole check; a ReportArena keeps it
// across the checks of serial sweeps, cone slices of different sizes
// included. Buffers grow to the largest circuit seen and are reused in
// place (DESIGN.md §14).
type workspace struct {
	dom   dom.Workspace
	learn learn.Cursor

	fanin     []bool
	stemOrder []circuit.NetID
	// A stem split's surviving domains, one entry per net, and the
	// read buffer of a branch's trail.
	branch  []branchNet
	trailed []circuit.NetID

	stack []decision
	objs  []objective
	// The candidate vector of a fully decided case, its simulation, and
	// its expansion to a cone's parent circuit.
	vec sim.Vector
	sim sim.Result
	wit sim.Vector
	// An epoch-stamped net set, seen[n] == epoch for its members: the
	// nets that already have an objective in case analysis, a branch's
	// trailed nets in stem correlation.
	seen  []uint32
	epoch uint32
}

// branchNet is a net a stem branch narrowed and its domain there.
type branchNet struct {
	net circuit.NetID
	sig waveform.Signal
}

// workspace returns the run's workspace, allocating it on first use so
// checks decided by the plain fixpoint never pay for one.
func (rs *runState) workspace() *workspace {
	if rs.ws == nil {
		rs.ws = new(workspace)
	}
	return rs.ws
}

// keepDominators copies a workspace dominator set into storage the
// report owns: the arena slot's backing for arena-backed runs, fresh
// slices otherwise. An empty set is the zero Dominators.
func (rs *runState) keepDominators(d dom.Dominators) dom.Dominators {
	if len(d.Nets) == 0 {
		return dom.Dominators{}
	}
	buf := rs.domBuf
	if buf == nil {
		buf = new(dom.Dominators)
	}
	buf.Nets = append(buf.Nets[:0], d.Nets...)
	buf.Dist = append(buf.Dist[:0], d.Dist...)
	return *buf
}

// witness returns the candidate vector as the report's witness,
// expanded on a cone slice to the parent circuit's primary inputs with
// those outside the cone at 0 (they cannot affect the sink). It lives
// in the workspace: the check's own, or a ReportArena's under the
// arena's ownership contract (a sweep stops at its first witness).
func (ws *workspace) witness(v *Verifier) sim.Vector {
	if v.cm == nil {
		return ws.vec
	}
	ws.wit = slices.Grow(ws.wit[:0], v.parentPIs)[:v.parentPIs]
	clear(ws.wit)
	for i, val := range ws.vec {
		ws.wit[v.cm.PIIndex[i]] = val
	}
	return ws.wit
}

// newEpoch starts an empty seen-set over n nets: stamps from earlier
// calls are all below the new epoch, so nothing needs clearing except
// when the counter wraps.
func (ws *workspace) newEpoch(n int) {
	if cap(ws.seen) < n {
		ws.seen = make([]uint32, n)
	}
	ws.seen = ws.seen[:n]
	ws.epoch++
	if ws.epoch == 0 {
		clear(ws.seen[:cap(ws.seen)])
		ws.epoch = 1
	}
}
