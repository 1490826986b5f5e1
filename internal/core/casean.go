package core

import (
	"cmp"
	"slices"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/dom"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// This file implements the case analysis of Section 5: a FAN-derived
// branch-and-narrow search that splits net domains one class at a time.
// Objectives (k, n0(k), n1(k)) carry path-delay weights ("a path to s
// of delay n0 is potentially enabled by setting net k to 0"); the
// backtrace takes the largest incoming weight at fanout joins (the
// paper's max rule) and SCOAP controllability breaks ties. Decisions
// follow the paper's three phases: (1) inside consecutive
// dynamic-dominator segments, (2) on the whole circuit, (3) directly on
// the primary inputs. Because every candidate vector is certified
// against the floating-mode simulator before being reported, and the
// narrowing layers are sound, the search verdicts are exact; only the
// decision *order* is heuristic.

// decision is one entry of the decision stack.
type decision struct {
	net     circuit.NetID
	val     int
	flipped bool
}

// caseAnalysis searches for a test vector violating (sink, δ), returns
// NoViolation when the search space is exhausted, Abandoned past the
// backtrack (or propagation) budget, or Cancelled when the run's
// context or deadline fires. rep.Backtracks and rep.Witness are filled
// in.
func (v *Verifier) caseAnalysis(rs *runState, sys *constraint.System, sink circuit.NetID, delta waveform.Time, rep *Report) Result {
	ws := rs.workspace()
	ws.stack = ws.stack[:0]
	rep.Backtracks = 0
	stems := v.stems() // built here on first use, then the deadline is polled
	if rs.stoppedNow() {
		return rs.stopVerdict()
	}

	// unwind closes every decision level still open. Exhausted searches
	// unwind through backtrack() naturally, but witness/abandon/cancel
	// exits used to return with the whole stack's marks open — a trail
	// leak in a system a ReportArena keeps alive across checks.
	unwind := func() {
		for range ws.stack {
			sys.Undo()
		}
		ws.stack = ws.stack[:0]
	}

	backtrack := func() bool {
		for len(ws.stack) > 0 {
			top := &ws.stack[len(ws.stack)-1]
			sys.Undo()
			if !top.flipped {
				top.flipped = true
				top.val = 1 - top.val
				sys.Mark()
				sys.Narrow(top.net, waveform.SettledTo(top.val))
				return true
			}
			ws.stack = ws.stack[:len(ws.stack)-1]
		}
		return false
	}

	// conflict records one refuted branch and moves to the next, or
	// reports the search exhausted/over budget.
	conflict := func() (Result, bool) {
		rep.Backtracks++
		if rs.tracer != nil {
			rs.tracer.Backtrack(rep.Backtracks)
		}
		if rs.maxBack > 0 && rep.Backtracks > rs.maxBack {
			return Abandoned, true
		}
		if !backtrack() {
			return NoViolation, true
		}
		return 0, false
	}

	for {
		switch res := v.evaluate(rs, sys, sink, delta, rep); res {
		case Cancelled, Abandoned:
			unwind()
			return res
		case NoViolation:
			if res, done := conflict(); done {
				unwind()
				return res
			}
			continue
		}
		// Consistent at fixpoint: decide the next net.
		net, val, ok := v.pickDecision(ws, sys, sink, delta, stems)
		if !ok {
			// Every primary input is classed: candidate vector.
			ws.vec = v.extractVector(sys, ws.vec)
			err := sim.RunInto(&ws.sim, v.c, ws.vec)
			if err == nil && ws.sim.Settle[sink] >= delta {
				rep.Witness = ws.witness(v)
				rep.WitnessSettle = ws.sim.Settle[sink]
				unwind() // after extraction: the vector needs the decided domains
				return ViolationFound
			}
			// Local consistency was too optimistic: treat as conflict.
			if res, done := conflict(); done {
				unwind()
				return res
			}
			continue
		}
		sys.Mark()
		ws.stack = append(ws.stack, decision{net: net, val: val})
		rep.Stats.Decisions++
		if rs.tracer != nil {
			rs.tracer.Decision(len(ws.stack), net, val)
		}
		sys.Narrow(net, waveform.SettledTo(val))
	}
}

// extractVector reads the decided class of every primary input into
// dst, grown as needed.
func (v *Verifier) extractVector(sys *constraint.System, dst sim.Vector) sim.Vector {
	pis := v.c.PrimaryInputs()
	vec := slices.Grow(dst[:0], len(pis))[:len(pis)]
	for i, pi := range pis {
		if val, ok := sys.Domain(pi).KnownValue(); ok {
			vec[i] = val
		} else {
			vec[i] = 0 // unreachable when pickDecision reports done
		}
	}
	return vec
}

// objective is a net-value goal with a path-delay weight.
type objective struct {
	net    circuit.NetID
	val    int
	weight waveform.Time
	seg    int // dominator segment index (phase 1 ordering)
}

// pickDecision selects the next decision net and class, following the
// paper's phase structure. It returns ok = false when all primary
// inputs are already single-class. It runs right after evaluate
// returned PossibleViolation, so with dominators on the carriers and
// dominators of evaluate's last round are current and come back from
// the workspace without recomputation. stems is the verifier's
// reconvergent-stem list, read once per case analysis.
func (v *Verifier) pickDecision(ws *workspace, sys *constraint.System, sink circuit.NetID, delta waveform.Time, stems []circuit.NetID) (circuit.NetID, int, bool) {
	carrier, dist := ws.dom.Carriers(sys, v.levels, sink, delta)
	var doms dom.Dominators
	if v.opts.UseDominators {
		doms = ws.dom.Dominators(v.levels)
	}

	// Phase 1: sensitising objectives on the non-carrier inputs of
	// gates in the dynamic-carrier circuit, dominator segment by
	// dominator segment, longest potential path first.
	for _, o := range v.initialObjectives(ws, sys, carrier, dist, doms) {
		if n, val, ok := v.backtrace(sys, o.net, o.val); ok {
			return n, val, true
		}
	}

	// Phase 2: decisions on the whole circuit — the undecided
	// reconvergent fanout stem inside the carrier circuit with the
	// longest dynamic distance, smallest id on ties (the profound-effect
	// nets the paper's modified FAN splits on).
	best := circuit.InvalidNet
	for _, stem := range stems {
		if !carrier[stem] {
			continue
		}
		if _, known := sys.Domain(stem).KnownValue(); known {
			continue
		}
		if best == circuit.InvalidNet || dist[stem] > dist[best] ||
			(dist[stem] == dist[best] && stem < best) {
			best = stem
		}
	}
	if best != circuit.InvalidNet {
		return best, v.preferredClass(sys, best), true
	}

	// Phase 3: complete backtrace from unjustified nets — outputs whose
	// class is decided but not yet justified by their inputs — down to
	// primary inputs, deepest first (justification decisions near the
	// output constrain the most); then the undecided primary input of
	// cheapest controllability, smallest id on ties.
	if n, val, ok := v.backtraceUnjustified(sys); ok {
		return n, val, true
	}
	pi, piCost := circuit.InvalidNet, int64(0)
	for _, in := range v.c.PrimaryInputs() {
		if _, known := sys.Domain(in).KnownValue(); known {
			continue
		}
		cost := min(v.cc.Cost(in, 0), v.cc.Cost(in, 1))
		if pi == circuit.InvalidNet || cost < piCost || (cost == piCost && in < pi) {
			pi, piCost = in, cost
		}
	}
	if pi == circuit.InvalidNet {
		return circuit.InvalidNet, 0, false
	}
	return pi, v.preferredClass(sys, pi), true
}

// preferredClass picks the class to try first on a decision net: the
// only one its domain still allows, else the cheaper to control (0 on
// ties).
func (v *Verifier) preferredClass(sys *constraint.System, n circuit.NetID) int {
	d := sys.Domain(n)
	if d.W0.IsEmpty() || (!d.W1.IsEmpty() && v.cc.Cost(n, 1) < v.cc.Cost(n, 0)) {
		return 1
	}
	return 0
}

// backtraceUnjustified backtraces from the paper's Phase-3 sources,
// the unjustified gate outputs, deepest first and smallest id on ties
// (the level order), returning the first decision point a backtrace
// reaches.
func (v *Verifier) backtraceUnjustified(sys *constraint.System) (circuit.NetID, int, bool) {
	for _, n := range v.levels.Order {
		val, ok := v.unjustified(sys, n)
		if !ok {
			continue
		}
		if d, dval, ok := v.backtrace(sys, n, val); ok {
			return d, dval, true
		}
	}
	return circuit.InvalidNet, 0, false
}

// unjustified reports the decided class of net n when n is a gate
// output whose domain is restricted to one class while the gate's
// inputs do not yet force that class. A gate output with class v is
// justified when either some input is pinned to a controlling value
// producing v, or every input is pinned non-controlling and v is the
// resulting value (with the parity/unate analogues).
func (v *Verifier) unjustified(sys *constraint.System, n circuit.NetID) (int, bool) {
	l := v.c.Layout()
	drv := l.Driver(n)
	if drv == circuit.InvalidGate {
		return 0, false
	}
	val, known := sys.Domain(n).KnownValue()
	if !known || justified(sys, l.Type[drv], l.Inputs(drv), val) {
		return 0, false
	}
	return val, true
}

// justified reports whether the decided output class val of a gate of
// type t is already forced by its inputs' decided classes.
func justified(sys *constraint.System, t circuit.GateType, ins []circuit.NetID, val int) bool {
	switch {
	case t.Unate():
		_, known := sys.Domain(ins[0]).KnownValue()
		return known
	case t.Parity():
		for _, x := range ins {
			if _, known := sys.Domain(x).KnownValue(); !known {
				return false
			}
		}
		return true
	default:
		ctrl, _ := t.HasControlling()
		controlled := ctrl
		if t.Inverting() {
			controlled = 1 - ctrl
		}
		if val == controlled {
			// Justified iff some input is pinned controlling.
			for _, x := range ins {
				if xv, known := sys.Domain(x).KnownValue(); known && xv == ctrl {
					return true
				}
			}
			return false
		}
		// Non-controlled output: justified iff all inputs pinned
		// non-controlling.
		for _, x := range ins {
			if xv, known := sys.Domain(x).KnownValue(); !known || xv == ctrl {
				return false
			}
		}
		return true
	}
}

// initialObjectives computes the paper's initial objectives: inputs of
// gates of the dynamic-carrier circuit Ψ that are not themselves
// dynamic carriers should take the non-controlling value of the gate
// they feed (sensitising the paths inside Ψ). Objectives are weighted
// by the dynamic distance of the carrier output (favouring long paths)
// and grouped by dominator segment. The returned slice is workspace
// storage.
func (v *Verifier) initialObjectives(ws *workspace, sys *constraint.System, carrier []bool, dist []waveform.Time, doms dom.Dominators) []objective {
	segOf := func(n circuit.NetID) int {
		// Segment i covers nets at levels between dominator i+1
		// (exclusive) and dominator i (inclusive).
		if len(doms.Nets) == 0 {
			return 0
		}
		lvl := v.c.Level(n)
		for i := len(doms.Nets) - 1; i >= 0; i-- {
			if lvl <= v.c.Level(doms.Nets[i]) {
				return i
			}
		}
		return 0
	}
	l := v.c.Layout()
	objs := ws.objs[:0]
	ws.newEpoch(v.c.NumNets())
	for n := 0; n < v.c.NumNets(); n++ {
		if !carrier[n] {
			continue
		}
		y := circuit.NetID(n)
		drv := l.Driver(y)
		if drv == circuit.InvalidGate {
			continue
		}
		ctrl, has := l.Type[drv].HasControlling()
		if !has {
			continue // parity gates have no sensitising side value
		}
		for _, x := range l.Inputs(drv) {
			if carrier[x] || ws.seen[x] == ws.epoch {
				continue
			}
			if _, known := sys.Domain(x).KnownValue(); known {
				continue
			}
			ws.seen[x] = ws.epoch
			objs = append(objs, objective{
				net:    x,
				val:    1 - ctrl,
				weight: dist[y],
				seg:    segOf(y),
			})
		}
	}
	slices.SortFunc(objs, func(a, b objective) int {
		if a.seg != b.seg {
			return cmp.Compare(a.seg, b.seg)
		}
		if a.weight != b.weight {
			return cmp.Compare(b.weight, a.weight)
		}
		return cmp.Compare(a.net, b.net)
	})
	ws.objs = objs
	return objs
}

// backtrace walks an objective (net, val) backwards to a decision
// point: a fanout stem or a primary input whose class is still
// undecided. At each gate it picks the input that can produce the
// needed output value, preferring — per FAN — the hardest input for
// "all inputs must cooperate" objectives (largest SCOAP cost) and the
// easiest for "one input suffices" objectives (smallest SCOAP cost).
// It reports ok = false when the chain dead-ends in already-decided
// nets.
func (v *Verifier) backtrace(sys *constraint.System, net circuit.NetID, val int) (circuit.NetID, int, bool) {
	l := v.c.Layout()
	for hop := 0; hop < v.c.NumNets()+1; hop++ {
		d := sys.Domain(net)
		if _, known := d.KnownValue(); known {
			return circuit.InvalidNet, 0, false // objective already decided
		}
		if d.Wave(val).IsEmpty() {
			return circuit.InvalidNet, 0, false // objective unreachable
		}
		drv := l.Driver(net)
		if drv == circuit.InvalidGate || v.c.IsStem(net) {
			return net, val, true
		}
		t, ins := l.Type[drv], l.Inputs(drv)
		switch {
		case t.Unate():
			if t == circuit.NOT {
				val = 1 - val
			}
			net = ins[0]
		case t.Parity():
			// Choose the first undecided input; the needed value is the
			// parity residue assuming the others settle as decided (or
			// 0 when unknown).
			residue := val
			if t == circuit.XNOR {
				residue ^= 1
			}
			var pick circuit.NetID = circuit.InvalidNet
			for _, x := range ins {
				if xv, known := sys.Domain(x).KnownValue(); known {
					residue ^= xv
				} else if pick == circuit.InvalidNet {
					pick = x
				}
			}
			if pick == circuit.InvalidNet {
				return circuit.InvalidNet, 0, false
			}
			net, val = pick, residue
		default:
			ctrl, _ := t.HasControlling()
			want := val
			if t.Inverting() {
				want = 1 - val
			}
			// want == ctrl needs ONE controlling input (easiest);
			// want == non-ctrl needs ALL inputs non-controlling
			// (decide the hardest first).
			needed := ctrl
			pickHardest := false
			if want != ctrl {
				needed = 1 - ctrl
				pickHardest = true
			}
			var pick circuit.NetID = circuit.InvalidNet
			var best int64
			for _, x := range ins {
				if _, known := sys.Domain(x).KnownValue(); known {
					continue
				}
				if sys.Domain(x).Wave(needed).IsEmpty() {
					continue
				}
				cost := v.cc.Cost(x, needed)
				if pick == circuit.InvalidNet ||
					(pickHardest && cost > best) || (!pickHardest && cost < best) {
					pick, best = x, cost
				}
			}
			if pick == circuit.InvalidNet {
				return circuit.InvalidNet, 0, false
			}
			net, val = pick, needed
		}
	}
	return circuit.InvalidNet, 0, false
}
