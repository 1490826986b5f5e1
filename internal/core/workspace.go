package core

import (
	"repro/internal/circuit"
	"repro/internal/dom"
	"repro/internal/learn"
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
	// A stem split's surviving domains: the trailed nets in increasing
	// id order and their domains; touched1 is the second branch's trail.
	touched  []circuit.NetID
	branch   []waveform.Signal
	touched1 []circuit.NetID

	stack []decision
	objs  []objective
	seen  []uint32 // seen[n] == epoch: n already has an objective
	epoch uint32
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
