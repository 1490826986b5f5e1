package constraint

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// This file implements the relational last-transition-interval
// projections of Section 3.2. All interval reasoning happens in the
// gate-input time frame; the gate delay d shifts the output domain down
// on entry and the computed output interval up on exit.
//
// Notation for a gate with controlling input value c (AND/NAND: c = 0,
// OR/NOR: c = 1): for each input the "ctrl" wave is the abstract
// waveform of the class that settles to c, the "non-ctrl" wave the
// other one. An input whose final value is controlling locks the output
// at its own last-transition time; an input whose final value is
// non-controlling never constrains the output's last transition beyond
// the all-inputs-settled bound.
//
// Derived relations (L_i = last-transition time of input i, Lo of the
// output, all in the input frame):
//
//   * no input settles to c (combination C = ∅):
//         Lo = max_i L_i                                  (exact)
//   * some inputs settle to c (combination set C ≠ ∅):
//         Lo = min_{i∈C} L_i                              (exact)
//
// Both relations follow from the X-pessimistic floating model (the
// output stays unknown exactly while no controlling-final input has
// settled and not all inputs have settled; the min over C is always
// dominated by the max over all inputs) and are validated against the
// unrolled three-valued simulator in internal/oracle. Parity gates use
// the pure max relation for every class combination.
//
// The kernel reads the circuit's flat layout (circuit.Layout) and
// dispatches on the gate's opcode. 1-input AND/NAND/OR/NOR gates take
// the exact reduction of the symmetric projection to an (inverting)
// buffer, and 2-input ones the symmetric projection on locals; both
// issue the same Narrow calls, in the same order and with the same
// values, as the generic projectSymmetric (DESIGN.md §17).

// applyGate re-evaluates the constraint of gate g, narrowing the
// domains of its output and input nets.
func (s *System) applyGate(g circuit.GateID) {
	switch op := s.l.Op[g]; op {
	case circuit.OpBuffer, circuit.OpNot:
		s.projectUnate(g, op == circuit.OpNot)
	case circuit.OpAndOr1, circuit.OpNandNor1:
		s.projectBuffer(g, op == circuit.OpNandNor1)
	case circuit.OpAnd2, circuit.OpNand2:
		s.projectSymmetric2(g, 0, op == circuit.OpNand2)
	case circuit.OpOr2, circuit.OpNor2:
		s.projectSymmetric2(g, 1, op == circuit.OpNor2)
	case circuit.OpAnd, circuit.OpNand:
		s.projectSymmetric(g, 0, op == circuit.OpNand)
	case circuit.OpOr, circuit.OpNor:
		s.projectSymmetric(g, 1, op == circuit.OpNor)
	case circuit.OpXor, circuit.OpXnor:
		if len(s.l.Inputs(g)) == 2 {
			s.projectParity2(g, op == circuit.OpXnor)
			return
		}
		s.projectParity(g, op == circuit.OpXnor)
	default:
		panic(fmt.Sprintf("constraint: unknown gate opcode %d", op))
	}
}

// projectUnate handles NOT/BUFFER/DELAY: the output is the (possibly
// inverted) input shifted by d, in both directions, exactly. The input
// is narrowed first, then the output.
func (s *System) projectUnate(g circuit.GateID, invert bool) {
	d := waveform.Time(s.l.Delay[g])
	in, out := s.l.Pins[s.l.PinStart[g]], s.l.Out[g]
	// The output domain seen from the input frame, classes matched to
	// the input's.
	o0, o1 := s.wave(out, 0).Shift(-d), s.wave(out, 1).Shift(-d)
	if invert {
		o0, o1 = o1, o0
	}
	n0, n1 := s.wave(in, 0).Intersect(o0), s.wave(in, 1).Intersect(o1)
	m0, m1 := n0, n1
	if invert {
		m0, m1 = m1, m0
	}
	s.narrow(in, n0, n1, g)
	s.narrow(out, m0.Shift(d), m1.Shift(d), g)
}

// projectBuffer handles a 1-input AND/OR (invert false) or NAND/NOR
// (invert true): projectSymmetric with k = 1 reduces exactly to an
// (inverting) buffer. Each output class, seen from the input frame,
// meets the input class it follows, and both nets take the meet — the
// output first, then the input, as the generic code narrows them.
func (s *System) projectBuffer(g circuit.GateID, invert bool) {
	d := waveform.Time(s.l.Delay[g])
	in, out := s.l.Pins[s.l.PinStart[g]], s.l.Out[g]
	i0, i1 := s.wave(in, 0), s.wave(in, 1)
	if invert {
		i0, i1 = i1, i0
	}
	// mv is output class v's meet with the input class it follows.
	m0 := s.wave(out, 0).Shift(-d).Intersect(i0)
	m1 := s.wave(out, 1).Shift(-d).Intersect(i1)
	s.narrow(out, m0.Shift(d), m1.Shift(d), g)
	if invert {
		m0, m1 = m1, m0
	}
	s.narrow(in, m0, m1, g)
}

// symAgg aggregates the input class waves of an AND/NAND/OR/NOR gate
// for projectSymmetric: F = inputs that can only settle controlling, A
// = inputs that can settle controlling at all.
type symAgg struct {
	allNonOK   bool          // every input can settle non-controlling
	famCOK     bool          // the controlled family has at least one valid shape
	nonLminMax waveform.Time // max_i nonW[i].Lmin
	nonLmaxMax waveform.Time // max_i nonW[i].Lmax
	nonLmax2   waveform.Time // second-largest nonW Lmax
	minFCtrl   waveform.Time // min over F of ctrlW Lmax
	minFLmin   waveform.Time // min over F of ctrlW Lmin
	maxACtrl   waveform.Time // max over A of ctrlW Lmax
	minALmin   waveform.Time // min over A of ctrlW Lmin
	numA       int           // |A|
	numF       int           // |F|

	// Set by forward: the narrowed output classes in the input frame,
	// their bounds, and whether each family stays feasible.
	newOutN, newOutC   waveform.Wave
	loN, hiN, loC, hiC waveform.Time
	famNFeasible       bool
	famCLive           bool
}

func newSymAgg() symAgg {
	return symAgg{
		allNonOK:   true,
		famCOK:     true,
		nonLminMax: waveform.NegInf,
		nonLmaxMax: waveform.NegInf,
		nonLmax2:   waveform.NegInf,
		minFCtrl:   waveform.PosInf,
		minFLmin:   waveform.PosInf,
		maxACtrl:   waveform.NegInf,
		minALmin:   waveform.PosInf,
	}
}

// add folds one input's controlling (cw) and non-controlling (nw)
// class waves into the aggregates.
func (a *symAgg) add(cw, nw waveform.Wave) {
	if nw.IsEmpty() && cw.IsEmpty() {
		// Empty domain: the system is already inconsistent.
		a.allNonOK, a.famCOK = false, false
		return
	}
	if nw.IsEmpty() {
		a.allNonOK = false
		a.numF++
		if cw.Lmax < a.minFCtrl {
			a.minFCtrl = cw.Lmax
		}
		if cw.Lmin < a.minFLmin {
			a.minFLmin = cw.Lmin
		}
	} else {
		if nw.Lmin > a.nonLminMax {
			a.nonLminMax = nw.Lmin
		}
		if nw.Lmax >= a.nonLmaxMax {
			a.nonLmax2 = a.nonLmaxMax
			a.nonLmaxMax = nw.Lmax
		} else if nw.Lmax > a.nonLmax2 {
			a.nonLmax2 = nw.Lmax
		}
	}
	if !cw.IsEmpty() {
		a.numA++
		if cw.Lmax > a.maxACtrl {
			a.maxACtrl = cw.Lmax
		}
		if cw.Lmin < a.minALmin {
			a.minALmin = cw.Lmin
		}
	}
}

// forward narrows the output classes outC (controlled) and outN
// (non-controlled), both in the input frame, after every input has
// been added.
func (a *symAgg) forward(outC, outN waveform.Wave) {
	a.famCOK = a.famCOK && a.numA > 0

	// Non-controlled output class (C = ∅, exact max).
	fwdN := waveform.Empty
	if a.allNonOK {
		fwdN = waveform.Wave{Lmin: a.nonLminMax, Lmax: a.nonLmaxMax}
	}
	a.newOutN = outN.Intersect(fwdN)

	// Controlled output class (family hull, exact). Upper: smallest
	// valid C wins → C = F when F ≠ ∅, else the best singleton. Lower:
	// a minimum-Lmin member can always be added.
	fwdC := waveform.Empty
	if a.famCOK {
		hi := a.maxACtrl
		if a.numF > 0 {
			hi = a.minFCtrl
		}
		fwdC = waveform.Wave{Lmin: a.minALmin, Lmax: hi}.Canon()
	}
	a.newOutC = outC.Intersect(fwdC)

	a.loN, a.hiN = outNBounds(a.newOutN)
	a.loC, a.hiC = outNBounds(a.newOutC)
	a.famNFeasible = a.allNonOK && !a.newOutN.IsEmpty()
	a.famCLive = a.famCOK && !a.newOutC.IsEmpty()
}

// qual reports whether an input with controlling wave cw can be a
// member of a valid requirement-compatible combination (all members
// need Lmax ≥ loC; some member needs Lmin ≤ hiC — qualifying members
// provide both).
func (a *symAgg) qual(cw waveform.Wave) bool {
	return a.famCLive && !cw.IsEmpty() && cw.Lmax >= a.loC && cw.Lmin <= a.hiC
}

// back projects onto one input with class waves cw and nw, where
// qualOther reports whether some other input qualifies, and returns its
// narrowed controlling and non-controlling waves.
func (a *symAgg) back(cw, nw waveform.Wave, qualOther bool) (projC, projN waveform.Wave) {
	// Non-controlling class.
	projN = waveform.Empty
	if !nw.IsEmpty() {
		// (a) via the all-non-controlling combination (max rule).
		if a.famNFeasible {
			othersMax := a.nonLmaxMax
			if nw.Lmax == a.nonLmaxMax {
				othersMax = a.nonLmax2
			}
			l := nw.Lmin
			if othersMax < a.loN {
				l = waveform.MaxTime(l, a.loN)
			}
			h := waveform.MinTime(nw.Lmax, a.hiN)
			projN = projN.Union(waveform.Wave{Lmin: l, Lmax: h}.Canon())
		}
		// (b) via controlled combinations with this input
		// non-controlling (it is never in F here): the combination must
		// exist without it — F plus, when F cannot reach the interval on
		// its own, one qualifying other input.
		if a.famCLive {
			feasible := qualOther
			if a.numF > 0 {
				feasible = a.minFCtrl >= a.loC && (a.minFLmin <= a.hiC || qualOther)
			}
			if feasible {
				projN = projN.Union(nw)
			}
		}
	}
	// Controlling class (min rule over C).
	projC = waveform.Empty
	if !cw.IsEmpty() && a.famCLive {
		// F ∪ {i} must be a valid shape: all F members reach loC.
		if a.numF == 0 || a.minFCtrl >= a.loC {
			l := waveform.MaxTime(cw.Lmin, a.loC)
			h := cw.Lmax
			if !qualOther {
				// This input alone must realise min_C L ≤ hiC.
				h = waveform.MinTime(h, a.hiC)
			}
			projC = waveform.Wave{Lmin: l, Lmax: h}.Canon()
		}
	}
	return projC, projN
}

// narrowSym narrows net n to the class waves projC (controlling class
// ctrl) and projN on behalf of gate self (see narrow).
func (s *System) narrowSym(n circuit.NetID, ctrl int, projC, projN waveform.Wave, self circuit.GateID) {
	if ctrl == 0 {
		s.narrow(n, projC, projN, self)
	} else {
		s.narrow(n, projN, projC, self)
	}
}

// projectSymmetric handles AND/NAND/OR/NOR with controlling value c,
// using the exact floating-mode relations:
//
//	C ≠ ∅ (some input settles controlling):  Lo = d + min_{i∈C} L_i
//	C = ∅ (all settle non-controlling):      Lo = d + max_i L_i
//
// (For C ≠ ∅ the min over controlling inputs is always ≤ the max over
// all inputs, so the all-settled term never matters.) Both relations
// are monotone in every L_i, so the per-combination projection is exact
// on interval boxes; the union over the combination family F ⊆ C ⊆ A
// (F = inputs that can only settle controlling, A = inputs that can
// settle controlling at all) collapses to O(k) aggregates. Each input's
// projection depends only on the waves loaded before any narrowing and
// on the aggregates, so the inputs are projected and narrowed in one
// pass after the output.
func (s *System) projectSymmetric(g circuit.GateID, ctrl int, inverting bool) {
	d := waveform.Time(s.l.Delay[g])
	ins := s.l.Inputs(g)
	k := len(ins)
	non := 1 - ctrl

	// Output classes: with no inversion the controlled output class is
	// the controlling value itself; inversion flips it.
	ctrlOutClass := ctrl
	if inverting {
		ctrlOutClass = non
	}
	out := s.l.Out[g]

	// Gather per-input class waves (scratch buffers are reused across
	// applications) and their aggregates.
	if cap(s.scrCtrl) < k {
		s.scrCtrl = make([]waveform.Wave, k)
		s.scrNon = make([]waveform.Wave, k)
	}
	ctrlW := s.scrCtrl[:k]
	nonW := s.scrNon[:k]
	a := newSymAgg()
	for i, n := range ins {
		ctrlW[i], nonW[i] = s.wave(n, ctrl), s.wave(n, non)
		a.add(ctrlW[i], nonW[i])
	}
	a.forward(s.wave(out, ctrlOutClass).Shift(-d), s.wave(out, 1-ctrlOutClass).Shift(-d))
	cntQ := 0
	for _, cw := range ctrlW {
		if a.qual(cw) {
			cntQ++
		}
	}

	// Apply all narrowings (output classes mapped back to circuit
	// classes and time frame).
	s.narrowSym(out, ctrlOutClass, a.newOutC.Shift(d), a.newOutN.Shift(d), g)
	for i, n := range ins {
		others := cntQ
		if a.qual(ctrlW[i]) {
			others--
		}
		projC, projN := a.back(ctrlW[i], nonW[i], others >= 1)
		s.narrowSym(n, ctrl, projC, projN, circuit.InvalidGate)
	}
}

// projectSymmetric2 is projectSymmetric for a 2-input gate, with every
// value in locals: for input x the "other qualifying input" is y
// exactly when y qualifies.
func (s *System) projectSymmetric2(g circuit.GateID, ctrl int, inverting bool) {
	d := waveform.Time(s.l.Delay[g])
	p := s.l.PinStart[g]
	x, y := s.l.Pins[p], s.l.Pins[p+1]
	non := 1 - ctrl
	ctrlOutClass := ctrl
	if inverting {
		ctrlOutClass = non
	}
	out := s.l.Out[g]

	cx, nx := s.wave(x, ctrl), s.wave(x, non)
	cy, ny := s.wave(y, ctrl), s.wave(y, non)
	a := newSymAgg()
	a.add(cx, nx)
	a.add(cy, ny)
	a.forward(s.wave(out, ctrlOutClass).Shift(-d), s.wave(out, 1-ctrlOutClass).Shift(-d))
	qx, qy := a.qual(cx), a.qual(cy)

	s.narrowSym(out, ctrlOutClass, a.newOutC.Shift(d), a.newOutN.Shift(d), g)
	projC, projN := a.back(cx, nx, qy)
	s.narrowSym(x, ctrl, projC, projN, circuit.InvalidGate)
	projC, projN = a.back(cy, ny, qx)
	s.narrowSym(y, ctrl, projC, projN, circuit.InvalidGate)
}

// outNBounds extracts the (lo, hi) interval of a wave, with the empty
// wave mapping to an infeasible (PosInf, NegInf) pair.
func outNBounds(w waveform.Wave) (lo, hi waveform.Time) {
	if w.IsEmpty() {
		return waveform.PosInf, waveform.NegInf
	}
	return w.Lmin, w.Lmax
}

// projectParity handles XOR/XNOR by enumerating input-class
// combinations (parity gates in practice have small fan-in).
func (s *System) projectParity(g circuit.GateID, xnor bool) {
	d := waveform.Time(s.l.Delay[g])
	ins := s.l.Inputs(g)
	k := len(ins)
	if k > 16 {
		panic(fmt.Sprintf("constraint: parity gate with fan-in %d unsupported", k))
	}
	if cap(s.scrPar) < 3*k {
		s.scrPar = make([][2]waveform.Wave, 3*k)
	}
	inW := s.scrPar[:k]
	for i, n := range ins {
		inW[i][0] = s.wave(n, 0)
		inW[i][1] = s.wave(n, 1)
	}
	out := s.l.Out[g]
	outReq := [2]waveform.Wave{
		s.wave(out, 0).Shift(-d),
		s.wave(out, 1).Shift(-d),
	}

	fwd := [2]waveform.Wave{waveform.Empty, waveform.Empty}
	back := s.scrPar[k : 2*k]
	for i := range back {
		back[i][0] = waveform.Empty
		back[i][1] = waveform.Empty
	}

	if cap(s.scrCtrl) < k {
		s.scrCtrl = make([]waveform.Wave, k)
		s.scrNon = make([]waveform.Wave, k)
	}
	chosen := s.scrCtrl[:k]
	for bits := 0; bits < 1<<k; bits++ {
		parity := 0
		feasible := true
		for i := 0; i < k; i++ {
			v := (bits >> i) & 1
			w := inW[i][v]
			if w.IsEmpty() {
				feasible = false
				break
			}
			chosen[i] = w
			parity ^= v
		}
		if !feasible {
			continue
		}
		outClass := parity
		if xnor {
			outClass ^= 1
		}
		req := outReq[outClass]
		if req.IsEmpty() {
			continue
		}
		lo, hi := req.Lmin, req.Lmax

		// Combination interval: Lo = max_i L_i exactly (the max
		// relation is monotone, so corner evaluation is exact).
		maxLmin, maxLmax := waveform.NegInf, waveform.NegInf
		maxLmax2 := waveform.NegInf
		argMax := -1
		for i, w := range chosen {
			if w.Lmin > maxLmin {
				maxLmin = w.Lmin
			}
			if w.Lmax >= maxLmax {
				maxLmax2 = maxLmax
				maxLmax = w.Lmax
				argMax = i
			} else if w.Lmax > maxLmax2 {
				maxLmax2 = w.Lmax
			}
		}
		// Feasibility against the required output interval.
		if maxLmax < lo || maxLmin > hi {
			continue
		}
		// Forward contribution (intersected per combination, which is
		// tighter than hull-then-intersect and still sound).
		fwd[outClass] = fwd[outClass].Union(waveform.Wave{Lmin: maxLmin, Lmax: maxLmax}.Intersect(req))
		// Backward contributions.
		for i, w := range chosen {
			othersMax := maxLmax2
			if !(w.Lmax == maxLmax && i == argMax) {
				othersMax = maxLmax
			}
			v := (bits >> i) & 1
			back[i][v] = back[i][v].Union(parityBack(w, othersMax, lo, hi))
		}
	}

	s.narrow(out, outReq[0].Intersect(fwd[0]).Shift(d), outReq[1].Intersect(fwd[1]).Shift(d), circuit.InvalidGate)
	for i, n := range ins {
		s.narrow(n, back[i][0], back[i][1], circuit.InvalidGate)
	}
}

// projectParity2 is projectParity for a 2-input gate, with every value
// in locals: in each combination the other input alone realises the
// max the backward rule compares against.
func (s *System) projectParity2(g circuit.GateID, xnor bool) {
	d := waveform.Time(s.l.Delay[g])
	p := s.l.PinStart[g]
	x, y := s.l.Pins[p], s.l.Pins[p+1]
	out := s.l.Out[g]
	xw := [2]waveform.Wave{s.wave(x, 0), s.wave(x, 1)}
	yw := [2]waveform.Wave{s.wave(y, 0), s.wave(y, 1)}
	outReq := [2]waveform.Wave{s.wave(out, 0).Shift(-d), s.wave(out, 1).Shift(-d)}
	fwd := [2]waveform.Wave{waveform.Empty, waveform.Empty}
	bx := [2]waveform.Wave{waveform.Empty, waveform.Empty}
	by := [2]waveform.Wave{waveform.Empty, waveform.Empty}
	for bits := 0; bits < 4; bits++ {
		vx, vy := bits&1, bits>>1
		wx, wy := xw[vx], yw[vy]
		if wx.IsEmpty() || wy.IsEmpty() {
			continue
		}
		outClass := vx ^ vy
		if xnor {
			outClass ^= 1
		}
		req := outReq[outClass]
		if req.IsEmpty() {
			continue
		}
		lo, hi := req.Lmin, req.Lmax
		maxLmin := waveform.MaxTime(wx.Lmin, wy.Lmin)
		maxLmax := waveform.MaxTime(wx.Lmax, wy.Lmax)
		if maxLmax < lo || maxLmin > hi {
			continue
		}
		fwd[outClass] = fwd[outClass].Union(waveform.Wave{Lmin: maxLmin, Lmax: maxLmax}.Intersect(req))
		bx[vx] = bx[vx].Union(parityBack(wx, wy.Lmax, lo, hi))
		by[vy] = by[vy].Union(parityBack(wy, wx.Lmax, lo, hi))
	}
	s.narrow(out, outReq[0].Intersect(fwd[0]).Shift(d), outReq[1].Intersect(fwd[1]).Shift(d), circuit.InvalidGate)
	s.narrow(x, bx[0], bx[1], circuit.InvalidGate)
	s.narrow(y, by[0], by[1], circuit.InvalidGate)
}

// parityBack is one input's backward contribution from a parity
// combination with required interval [lo, hi]: L ≤ hi always, L ≥ lo
// when the other inputs' max cannot realise the output alone.
func parityBack(w waveform.Wave, othersMax, lo, hi waveform.Time) waveform.Wave {
	l := w.Lmin
	if othersMax < lo {
		l = waveform.MaxTime(l, lo)
	}
	return waveform.Wave{Lmin: l, Lmax: waveform.MinTime(w.Lmax, hi)}.Canon()
}
