package constraint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// refKernel is the gate-application kernel System ran before the flat
// circuit layout, kept verbatim as the reference the compiled kernel
// must reproduce: Narrow builds and meets Signal values, scheduleNet
// goes through the Net view, and every AND/NAND/OR/NOR goes through the generic
// projectSymmetric with its scratch buffers. It drives the System it
// wraps — domains, trail, worklist, change log, counters — through the
// same internals the kernel uses.
//
// With selfSkip the reference also leaves out the kernel's self
// re-queues (DESIGN.md §17, rule 1), and after any sequence of
// operations the two systems must hold identical state, call for call.
// Without it the reference schedules as the paper's reach_fixpoint
// does, and the two must agree on every completed fixpoint (see
// kernelRun).
type refKernel struct {
	sys *System
	c   *circuit.Circuit

	selfSkip bool
	skip     circuit.GateID // the gate whose application is narrowing

	scrCtrl []waveform.Wave
	scrNon  []waveform.Wave
	scrIn   []waveform.Signal
	scrPar  [][2]waveform.Wave
	scrQual []bool
}

func newRefKernel(c *circuit.Circuit, selfSkip bool) *refKernel {
	return &refKernel{sys: New(c), c: c, selfSkip: selfSkip, skip: circuit.InvalidGate}
}

// self returns the gate the narrowings of g's application must not
// schedule: g under selfSkip, none otherwise.
func (s *refKernel) self(g circuit.Gate) circuit.GateID {
	if s.selfSkip {
		return g.ID
	}
	return circuit.InvalidGate
}

func (s *refKernel) sig(n circuit.NetID) waveform.Signal { return s.sys.sig(n) }

func (s *refKernel) wave(n circuit.NetID, v int) waveform.Wave { return s.sys.wave(n, v) }

// Narrow is the parent System.Narrow.
func (s *refKernel) Narrow(n circuit.NetID, sig waveform.Signal) bool {
	r := s.sys
	cur := s.sig(n)
	nd := cur.Intersect(sig).Canon()
	if nd.Equal(cur) {
		return false
	}
	if r.trace != nil {
		r.trace(n, cur, nd)
	}
	base := lanes * int(n)
	r.setLane(base, int64(nd.W0.Lmin))
	r.setLane(base+1, int64(nd.W0.Lmax))
	r.setLane(base+2, int64(nd.W1.Lmin))
	r.setLane(base+3, int64(nd.W1.Lmax))
	r.Narrowings++
	if r.logOn {
		r.log = append(r.log, n)
	}
	if nd.IsEmpty() && !r.inconsistent {
		r.inconsistent = true
		r.emptyNet = n
	}
	s.scheduleNet(n)
	return true
}

// scheduleNet is the parent System.scheduleNet with s.skip as self.
func (s *refKernel) scheduleNet(n circuit.NetID) {
	if d := s.c.Net(n).Driver; d != circuit.InvalidGate && d != s.skip {
		s.sys.schedule(d)
	}
	for _, g := range s.c.Net(n).Fanout {
		if g != s.skip {
			s.sys.schedule(g)
		}
	}
}

// Fixpoint is the parent System.Fixpoint.
func (s *refKernel) Fixpoint() bool {
	r := s.sys
	if r.stopped {
		return !r.inconsistent
	}
	for r.pending() > 0 && !r.inconsistent {
		if r.stopFn != nil && r.pollStop() {
			break
		}
		g := r.pop()
		r.inQueue[g] = false
		r.Propagations++
		s.applyGate(g)
	}
	return r.finishFixpoint()
}

// applyGate is the parent kernel's gate dispatch.
func (s *refKernel) applyGate(gid circuit.GateID) {
	g := s.c.Gate(gid)
	switch g.Type {
	case circuit.AND, circuit.NAND:
		s.projectSymmetric(g, 0)
	case circuit.OR, circuit.NOR:
		s.projectSymmetric(g, 1)
	case circuit.NOT, circuit.BUFFER, circuit.DELAY:
		s.projectUnate(g)
	case circuit.XOR, circuit.XNOR:
		s.projectParity(g)
	default:
		panic(fmt.Sprintf("constraint: unknown gate type %s", g.Type))
	}
}

// invert swaps a signal's two classes: the effect of an inverting,
// delayless gate on a domain.
func invert(s waveform.Signal) waveform.Signal { return waveform.Signal{W0: s.W1, W1: s.W0} }

// withWave returns s with its class-v component replaced by w.
func withWave(s waveform.Signal, v int, w waveform.Wave) waveform.Signal {
	if v == 0 {
		s.W0 = w
	} else {
		s.W1 = w
	}
	return s
}

// projectUnate handles NOT/BUFFER/DELAY: the output is the (possibly
// inverted) input shifted by d, in both directions, exactly.
func (s *refKernel) projectUnate(g circuit.Gate) {
	d := waveform.Time(g.Delay)
	in := s.sig(g.Inputs[0])
	out := s.sig(g.Output)
	outIn := out.Shift(-d) // output domain seen from the input frame
	if g.Type == circuit.NOT {
		outIn = invert(outIn)
	}
	newIn := in.Intersect(outIn)
	newOut := newIn
	if g.Type == circuit.NOT {
		newOut = invert(newOut)
	}
	newOut = newOut.Shift(d)
	s.skip = s.self(g)
	s.Narrow(g.Inputs[0], newIn)
	s.Narrow(g.Output, newOut)
	s.skip = circuit.InvalidGate
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
// settle controlling at all) collapses to O(k) aggregates.
func (s *refKernel) projectSymmetric(g circuit.Gate, ctrl int) {
	d := waveform.Time(g.Delay)
	k := len(g.Inputs)
	non := 1 - ctrl

	// Output classes: with no inversion the controlled output class is
	// the controlling value itself; inversion flips it.
	ctrlOutClass := ctrl
	if g.Type.Inverting() {
		ctrlOutClass = non
	}
	out := s.sig(g.Output)
	outC := out.Wave(ctrlOutClass).Shift(-d) // required interval, controlled class
	outN := out.Wave(1 - ctrlOutClass).Shift(-d)

	// Gather per-input class waves and aggregate bounds (scratch
	// buffers are reused across applications).
	if cap(s.scrCtrl) < k {
		s.scrCtrl = make([]waveform.Wave, k)
		s.scrNon = make([]waveform.Wave, k)
		s.scrIn = make([]waveform.Signal, k)
	}
	ctrlW := s.scrCtrl[:k]
	nonW := s.scrNon[:k]
	allNonOK := true // every input can settle non-controlling
	famCOK := true   // the controlled family has at least one valid shape
	var (
		nonLminMax = waveform.NegInf // max_i nonW[i].Lmin
		nonLmaxMax = waveform.NegInf // max_i nonW[i].Lmax
		nonLmax2   = waveform.NegInf // second-largest nonW Lmax
		minFCtrl   = waveform.PosInf // min over F of ctrlW Lmax
		minFLmin   = waveform.PosInf // min over F of ctrlW Lmin
		maxACtrl   = waveform.NegInf // max over A of ctrlW Lmax
		minALmin   = waveform.PosInf // min over A of ctrlW Lmin
		numA       int               // |A|: inputs that can settle controlling
		numF       int               // |F|: inputs that must settle controlling
	)
	for i, n := range g.Inputs {
		cw := s.wave(n, ctrl)
		nw := s.wave(n, non)
		ctrlW[i], nonW[i] = cw, nw
		if nw.IsEmpty() && cw.IsEmpty() {
			// Empty domain: the system is already inconsistent.
			allNonOK, famCOK = false, false
			continue
		}
		if nw.IsEmpty() {
			allNonOK = false
			numF++
			if cw.Lmax < minFCtrl {
				minFCtrl = cw.Lmax
			}
			if cw.Lmin < minFLmin {
				minFLmin = cw.Lmin
			}
		} else {
			if nw.Lmin > nonLminMax {
				nonLminMax = nw.Lmin
			}
			if nw.Lmax >= nonLmaxMax {
				nonLmax2 = nonLmaxMax
				nonLmaxMax = nw.Lmax
			} else if nw.Lmax > nonLmax2 {
				nonLmax2 = nw.Lmax
			}
		}
		if !cw.IsEmpty() {
			numA++
			if cw.Lmax > maxACtrl {
				maxACtrl = cw.Lmax
			}
			if cw.Lmin < minALmin {
				minALmin = cw.Lmin
			}
		}
	}
	famCOK = famCOK && numA > 0

	// ---- forward: non-controlled output class (C = ∅, exact max) ----
	var fwdN waveform.Wave
	if allNonOK && k > 0 {
		fwdN = waveform.Wave{Lmin: nonLminMax, Lmax: nonLmaxMax}
	} else {
		fwdN = waveform.Empty
	}
	newOutN := outN.Intersect(fwdN)

	// ---- forward: controlled output class (family hull, exact) ----
	// Upper: smallest valid C wins → C = F when F ≠ ∅, else the best
	// singleton. Lower: a minimum-Lmin member can always be added.
	var fwdC waveform.Wave
	if famCOK {
		hi := maxACtrl
		if numF > 0 {
			hi = minFCtrl
		}
		fwdC = waveform.Wave{Lmin: minALmin, Lmax: hi}.Canon()
	} else {
		fwdC = waveform.Empty
	}
	newOutC := outC.Intersect(fwdC)

	// ---- backward projections per input ----
	loN, hiN := outNBounds(newOutN)
	loC, hiC := outNBounds(newOutC)
	famNFeasible := allNonOK && !newOutN.IsEmpty()
	famCLive := famCOK && !newOutC.IsEmpty()

	// qual(j): input j's controlling class can be a member of a valid
	// requirement-compatible combination (all members need Lmax ≥ loC;
	// some member needs Lmin ≤ hiC — qualifying members provide both).
	cntQ := 0
	if cap(s.scrQual) < k {
		s.scrQual = make([]bool, k)
	}
	qual := s.scrQual[:k]
	for i := range qual {
		qual[i] = false
	}
	if famCLive {
		for i := range g.Inputs {
			if !ctrlW[i].IsEmpty() && ctrlW[i].Lmax >= loC && ctrlW[i].Lmin <= hiC {
				qual[i] = true
				cntQ++
			}
		}
	}
	existsQualOther := func(i int) bool {
		if qual[i] {
			return cntQ >= 2
		}
		return cntQ >= 1
	}

	newIn := s.scrIn[:k]
	for i := range g.Inputs {
		// Non-controlling class of input i.
		var projN waveform.Wave = waveform.Empty
		if !nonW[i].IsEmpty() {
			// (a) via the all-non-controlling combination (max rule).
			if famNFeasible {
				othersMax := nonLmaxMax
				if nonW[i].Lmax == nonLmaxMax {
					othersMax = nonLmax2
				}
				l := nonW[i].Lmin
				if othersMax < loN {
					l = waveform.MaxTime(l, loN)
				}
				h := waveform.MinTime(nonW[i].Lmax, hiN)
				projN = projN.Union(waveform.Wave{Lmin: l, Lmax: h}.Canon())
			}
			// (b) via controlled combinations with i non-controlling
			// (i is never in F here): the combination must exist
			// without i — F plus, when F cannot reach the interval on
			// its own, one qualifying other input.
			if famCLive {
				feasible := false
				if numF > 0 {
					feasible = minFCtrl >= loC && (minFLmin <= hiC || existsQualOther(i))
				} else {
					feasible = existsQualOther(i)
				}
				if feasible {
					projN = projN.Union(nonW[i])
				}
			}
		}
		// Controlling class of input i (min rule over C).
		var projC waveform.Wave = waveform.Empty
		if !ctrlW[i].IsEmpty() && famCLive {
			// F ∪ {i} must be a valid shape: all F members reach loC.
			if numF == 0 || minFCtrl >= loC {
				l := waveform.MaxTime(ctrlW[i].Lmin, loC)
				h := ctrlW[i].Lmax
				if !existsQualOther(i) {
					// i alone must realise min_C L ≤ hiC.
					h = waveform.MinTime(h, hiC)
				}
				projC = waveform.Wave{Lmin: l, Lmax: h}.Canon()
			}
		}
		ctrlClass := ctrl
		sig := waveform.Signal{}
		sig = withWave(sig, ctrlClass, projC)
		sig = withWave(sig, 1-ctrlClass, projN)
		newIn[i] = sig
	}

	// Apply all narrowings (output classes mapped back to circuit
	// classes and time frame).
	no := waveform.Signal{}
	no = withWave(no, ctrlOutClass, newOutC.Shift(d))
	no = withWave(no, 1-ctrlOutClass, newOutN.Shift(d))
	s.skip = s.self(g)
	s.Narrow(g.Output, no)
	if k > 1 {
		// A 1-input gate is a buffer: its input narrowing cannot make
		// a second application narrow either.
		s.skip = circuit.InvalidGate
	}
	for i, n := range g.Inputs {
		s.Narrow(n, newIn[i])
	}
	s.skip = circuit.InvalidGate
}

// projectParity handles XOR/XNOR by enumerating input-class
// combinations (parity gates in practice have small fan-in).
func (s *refKernel) projectParity(g circuit.Gate) {
	d := waveform.Time(g.Delay)
	k := len(g.Inputs)
	if k > 16 {
		panic(fmt.Sprintf("constraint: parity gate with fan-in %d unsupported", k))
	}
	if cap(s.scrPar) < 3*k {
		s.scrPar = make([][2]waveform.Wave, 3*k)
	}
	inW := s.scrPar[:k]
	for i, n := range g.Inputs {
		inW[i][0] = s.wave(n, 0)
		inW[i][1] = s.wave(n, 1)
	}
	outReq := [2]waveform.Wave{
		s.wave(g.Output, 0).Shift(-d),
		s.wave(g.Output, 1).Shift(-d),
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
		s.scrIn = make([]waveform.Signal, k)
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
		if g.Type == circuit.XNOR {
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
		// Backward contributions: L_i ≤ hi always; L_i ≥ lo when no
		// other input can realise the max.
		for i, w := range chosen {
			othersMax := maxLmax2
			if !(w.Lmax == maxLmax && i == argMax) {
				othersMax = maxLmax
			}
			l := w.Lmin
			if othersMax < lo {
				l = waveform.MaxTime(l, lo)
			}
			h := waveform.MinTime(w.Lmax, hi)
			v := (bits >> i) & 1
			back[i][v] = back[i][v].Union(waveform.Wave{Lmin: l, Lmax: h}.Canon())
		}
	}

	no := waveform.Signal{
		W0: outReq[0].Intersect(fwd[0]).Shift(d),
		W1: outReq[1].Intersect(fwd[1]).Shift(d),
	}
	s.Narrow(g.Output, no)
	for i, n := range g.Inputs {
		s.Narrow(n, waveform.Signal{W0: back[i][0], W1: back[i][1]})
	}
}

// traceEvent is one call of a trace hook.
type traceEvent struct {
	n        circuit.NetID
	old, new waveform.Signal
}

// kernelRun drives the kernel and a reference through one script and
// compares them after every step.
//
// Against the self-skipping reference (strict) the whole state must be
// identical: lanes, trail, counters, worklist, change log and trace.
//
// Against the paper's scheduling the kernel makes fewer applications,
// so only what a different application order cannot change is
// compared: Levels always; lanes, Inconsistent, Stopped and EmptyNet
// while the two runs agree; and every Changes read, which must name
// each net whose domain differs from what that consumer last read, and
// name the same set of nets on both sides. A Fixpoint that ends
// inconsistent leaves a partial state that depends on order, so from
// then on only the flag is compared until an Undo pops a mark opened
// before it (or a Reset or Restore) brings back a common state. A stop
// function cuts a Fixpoint at an order-dependent point and is sticky,
// so after a stop the runs agree again only after a Reset or Restore.
type kernelRun struct {
	tb     testing.TB
	c      *circuit.Circuit
	k      *System
	r      *refKernel
	strict bool
	maxT   int // latest time worth narrowing to
	script []byte
	pos    int

	kEv, rEv     []traceEvent
	kSnap, rSnap []int64
	kSubs, rSubs []int
	kCh, rCh     []circuit.NetID

	// Without strict: div reports that the domains may differ, since
	// divLevel marks were open; flagOK that Inconsistent must still
	// agree; everDiv that the runs have differed since the last Reset
	// or common Restore, so Changes are compared for coverage only.
	// snapDiv records div when the snapshots were taken, kLast and
	// rLast each subscriber's view.
	div, flagOK, everDiv, snapDiv bool
	divLevel                      int
	kLast, rLast                  []*lastRead
}

// lastRead is a subscriber's view for the Changes coverage check: the
// lanes at its last read. As the subscription's Restorer it saves the
// view at every Mark and puts it back at the matching Undo, which
// rewinds the consumer's reads to the mark.
type lastRead struct {
	lanes []int64
	saved [][]int64
}

func (v *lastRead) OnMark(*System) { v.saved = append(v.saved, slices.Clone(v.lanes)) }

func (v *lastRead) OnUndo(*System) {
	v.lanes = v.saved[len(v.saved)-1]
	v.saved = v.saved[:len(v.saved)-1]
}

func newKernelRun(tb testing.TB, c *circuit.Circuit, script []byte, strict bool) *kernelRun {
	kr := &kernelRun{tb: tb, c: c, k: New(c), r: newRefKernel(c, strict), strict: strict, script: script}
	var maxD int64
	for _, d := range c.Layout().Delay {
		maxD = max(maxD, d)
	}
	kr.maxT = (c.MaxLevel() + 1) * int(max(maxD, 1))
	kr.hook()
	return kr
}

// hook installs the trace hooks (Reset and Restore clear them).
func (kr *kernelRun) hook() {
	kr.k.SetTraceFunc(func(n circuit.NetID, old, new waveform.Signal) {
		kr.kEv = append(kr.kEv, traceEvent{n, old, new})
	})
	kr.r.sys.SetTraceFunc(func(n circuit.NetID, old, new waveform.Signal) {
		kr.rEv = append(kr.rEv, traceEvent{n, old, new})
	})
}

// next returns the script's next byte, 0 past its end.
func (kr *kernelRun) next() int {
	if kr.pos >= len(kr.script) {
		return 0
	}
	kr.pos++
	return int(kr.script[kr.pos-1])
}

// word returns the script's next two bytes as one number.
func (kr *kernelRun) word() int { return kr.next()<<8 | kr.next() }

func (kr *kernelRun) net() circuit.NetID { return circuit.NetID(kr.word() % kr.c.NumNets()) }

// time returns ±∞ or a time in [-2, maxT+1].
func (kr *kernelRun) time() waveform.Time {
	switch w := kr.word(); w {
	case 0:
		return waveform.NegInf
	case 1:
		return waveform.PosInf
	default:
		return waveform.Time(w%(kr.maxT+4) - 2)
	}
}

func (kr *kernelRun) wave() waveform.Wave {
	if kr.next()%5 == 0 {
		return waveform.Empty
	}
	return waveform.Wave{Lmin: kr.time(), Lmax: kr.time()}
}

// run executes the whole script, comparing the systems after every
// operation.
func (kr *kernelRun) run() {
	for step := 0; kr.pos < len(kr.script); step++ {
		kr.same(step, kr.step())
	}
}

// step executes the script's next operation on both systems and
// returns its name.
func (kr *kernelRun) step() (op string) {
	k, r := kr.k, kr.r
	switch kr.next() % 16 {
	case 0, 1:
		op = "Mark"
		k.Mark()
		r.sys.Mark()
	case 2, 3:
		op = "Undo"
		k.Undo()
		r.sys.Undo()
		if kr.div {
			// Popping a mark opened before the runs differed restores
			// a common state.
			kr.div = k.Levels() >= kr.divLevel
			kr.flagOK = false
		}
	case 4:
		op = "Narrow(check)"
		pos := kr.c.PrimaryOutputs()
		n := pos[kr.next()%len(pos)]
		sig := waveform.CheckOutput(waveform.Time(kr.word() % (kr.maxT + 2)))
		kr.eq(op, k.Narrow(n, sig), r.Narrow(n, sig))
	case 5:
		op = "Narrow(settled)"
		n, sig := kr.net(), waveform.SettledTo(kr.next()%2)
		kr.eq(op, k.Narrow(n, sig), r.Narrow(n, sig))
	case 6:
		op = "Narrow(waves)"
		n, sig := kr.net(), waveform.Signal{W0: kr.wave(), W1: kr.wave()}
		kr.eq(op, k.Narrow(n, sig), r.Narrow(n, sig))
	case 7:
		op = "ScheduleAll"
		k.ScheduleAll()
		r.sys.ScheduleAll()
	case 8:
		op = "scheduleNet"
		n := kr.net()
		k.scheduleNet(n, circuit.InvalidGate)
		r.scheduleNet(n)
	case 9, 10, 11:
		op = "Fixpoint"
		kok, rok := k.Fixpoint(), r.Fixpoint()
		switch {
		case kr.strict:
			kr.eq(op, kok, rok)
		case k.Stopped() || r.sys.Stopped():
			kr.diverge(false)
			kr.divLevel = 0 // sticky: no Undo brings the runs together
		default:
			kr.eq(op, kok, rok)
			if !kok {
				kr.diverge(true)
			}
		}
	case 12:
		op = "Snapshot"
		kr.kSnap = k.Snapshot(kr.kSnap)
		kr.rSnap = r.sys.Snapshot(kr.rSnap)
		kr.snapDiv = kr.div
	case 13:
		if kr.kSnap == nil || kr.next()%4 == 0 {
			op = "Reset"
			k.Reset()
			r.sys.Reset()
			kr.div = false
		} else {
			op = "Restore"
			k.Restore(kr.kSnap)
			r.sys.Restore(kr.rSnap)
			kr.div, kr.divLevel, kr.flagOK = kr.snapDiv, 0, false
		}
		kr.everDiv = kr.div
		kr.kSubs, kr.rSubs = kr.kSubs[:0], kr.rSubs[:0]
		kr.kLast, kr.rLast = kr.kLast[:0], kr.rLast[:0]
		kr.hook()
	case 14:
		switch {
		case k.Levels() == 0 && (len(kr.kSubs) == 0 || kr.next()%3 == 0):
			// Subscribe is only legal with no level open.
			op = "Subscribe"
			kv := &lastRead{lanes: k.Snapshot(nil)}
			rv := &lastRead{lanes: r.sys.Snapshot(nil)}
			kr.kSubs = append(kr.kSubs, k.Subscribe(kv))
			kr.rSubs = append(kr.rSubs, r.sys.Subscribe(rv))
			kr.kLast, kr.rLast = append(kr.kLast, kv), append(kr.rLast, rv)
		case len(kr.kSubs) == 0:
			op = "Nop"
		default:
			op = "Changes"
			i := kr.next() % len(kr.kSubs)
			kr.kCh = k.Changes(kr.kSubs[i], kr.kCh[:0])
			kr.rCh = r.sys.Changes(kr.rSubs[i], kr.rCh[:0])
			kr.covers("kernel", k, kr.kCh, kr.kLast[i].lanes)
			kr.covers("reference", r.sys, kr.rCh, kr.rLast[i].lanes)
			kr.kLast[i].lanes = k.Snapshot(kr.kLast[i].lanes)
			kr.rLast[i].lanes = r.sys.Snapshot(kr.rLast[i].lanes)
			switch {
			case kr.strict:
				if !slices.Equal(kr.kCh, kr.rCh) {
					kr.tb.Fatalf("Changes: kernel %v, reference %v", kr.kCh, kr.rCh)
				}
			case !kr.everDiv:
				if kn, rn := netSet(kr.kCh), netSet(kr.rCh); !slices.Equal(kn, rn) {
					kr.tb.Fatalf("Changes: kernel names %v, reference %v", kn, rn)
				}
			}
		}
	case 15:
		op = "Nop"
		// One draw in six installs a stop function.
		if b := kr.next(); b%6 == 0 {
			op = "SetStopFunc"
			// Stop after the same number of polls on both sides.
			kp, rp := b, b
			k.SetStopFunc(func() bool { kp--; return kp < 0 })
			r.sys.SetStopFunc(func() bool { rp--; return rp < 0 })
		}
	}
	return op
}

// diverge records that the runs' domains may differ from now on,
// keeping the earliest mark level of an ongoing divergence.
func (kr *kernelRun) diverge(flagOK bool) {
	if !kr.div {
		kr.div, kr.divLevel, kr.flagOK = true, kr.k.Levels(), flagOK
	}
	kr.flagOK = kr.flagOK && flagOK
	kr.everDiv = true
}

// eq compares two results that must agree while the runs do.
func (kr *kernelRun) eq(op string, k, r bool) {
	if k != r && !kr.div {
		kr.tb.Fatalf("%s: kernel returned %v, reference %v", op, k, r)
	}
}

// covers fails the test unless changes names every net whose lanes in
// s differ from last, the lanes its consumer last read.
func (kr *kernelRun) covers(side string, s *System, changes []circuit.NetID, last []int64) {
	named := make(map[circuit.NetID]bool, len(changes))
	for _, n := range changes {
		named[n] = true
	}
	for i, v := range s.dom {
		if n := circuit.NetID(i / lanes); v != last[i] && !named[n] {
			kr.tb.Fatalf("Changes on the %s misses net %d: %v now, read as %d at lane %d", side, n, s.sig(n), last[i], i%lanes)
		}
	}
}

// netSet returns the distinct nets of ns in ascending order.
func netSet(ns []circuit.NetID) []circuit.NetID {
	set := slices.Clone(ns)
	slices.Sort(set)
	return slices.Compact(set)
}

// same fails the test unless the two systems agree as kernelRun
// describes.
func (kr *kernelRun) same(step int, op string) {
	kr.tb.Helper()
	k, r := kr.k, kr.r.sys
	fail := func(what string, kv, rv any) {
		kr.tb.Fatalf("%s on %s, step %d (%s): kernel %v, reference %v", what, kr.c.Name, step, op, kv, rv)
	}
	defer func() { kr.kEv, kr.rEv = kr.kEv[:0], kr.rEv[:0] }()
	switch {
	case k.Levels() != r.Levels():
		fail("Levels", k.Levels(), r.Levels())
	case k.logOn != r.logOn || len(k.cursors) != len(r.cursors) || k.gen != r.gen:
		fail("change-log subscriptions", len(k.cursors), len(r.cursors))
	case kr.div && kr.flagOK && k.Inconsistent() != r.Inconsistent():
		fail("Inconsistent", k.Inconsistent(), r.Inconsistent())
	}
	if kr.div {
		return
	}
	// The SoA arrays may be ranged over but not passed to a call.
	for i, v := range k.dom {
		if n := circuit.NetID(i / lanes); v != r.dom[i] {
			fail(fmt.Sprintf("domain of net %d", n), k.sig(n), r.sig(n))
		}
	}
	switch {
	case k.EmptyNet() != r.EmptyNet() || k.Inconsistent() != r.Inconsistent():
		fail("EmptyNet", k.EmptyNet(), r.EmptyNet())
	case k.Stopped() != r.Stopped():
		fail("Stopped", k.Stopped(), r.Stopped())
	}
	if !kr.strict {
		return
	}
	if k.trail.len() != r.trail.len() {
		fail("trail length", k.trail.len(), r.trail.len())
	}
	for i, v := range k.trail.idx {
		if v != r.trail.idx[i] || k.trail.old[i] != r.trail.old[i] {
			fail(fmt.Sprintf("trail entry %d", i), v, r.trail.idx[i])
		}
	}
	for i, v := range k.trail.marks {
		if v != r.trail.marks[i] {
			fail(fmt.Sprintf("mark %d", i), v, r.trail.marks[i])
		}
	}
	switch {
	case k.Propagations != r.Propagations:
		fail("Propagations", k.Propagations, r.Propagations)
	case k.Narrowings != r.Narrowings:
		fail("Narrowings", k.Narrowings, r.Narrowings)
	case k.QueueHighWater() != r.QueueHighWater():
		fail("QueueHighWater", k.QueueHighWater(), r.QueueHighWater())
	case !slices.Equal(k.queue[k.qhead:], r.queue[r.qhead:]):
		fail("worklist", k.queue[k.qhead:], r.queue[r.qhead:])
	case !slices.Equal(k.log, r.log):
		fail("change log", k.log, r.log)
	case !slices.Equal(k.cursors, r.cursors):
		fail("change-log cursors", k.cursors, r.cursors)
	case !slices.Equal(kr.kEv, kr.rEv):
		fail("trace", kr.kEv, kr.rEv)
	}
}

// randomScript returns a script of n operations' worth of bytes.
func randomScript(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	s := make([]byte, 4*n)
	r.Read(s)
	return s
}

// searchScript returns a script shaped like case analysis: a late
// check on an output, a full fixpoint, then decisions that each settle
// a net under a new mark and re-solve, undone at random.
func searchScript(c *circuit.Circuit, seed int64, decisions int) []byte {
	r := rand.New(rand.NewSource(seed))
	maxT := newKernelRun(nil, c, nil, true).maxT
	delta := maxT*3/4 + r.Intn(maxT/4+1)
	s := []byte{4, byte(r.Intn(len(c.PrimaryOutputs()))), byte(delta >> 8), byte(delta), 7, 9}
	for i := 0; i < decisions; i++ {
		n := r.Intn(c.NumNets())
		s = append(s, 0, 5, byte(n>>8), byte(n), byte(r.Intn(2)), 9)
		if r.Intn(3) > 0 {
			s = append(s, 2)
		}
	}
	return s
}

// kernelCircuit builds a seeded random netlist over every gate type,
// fan-in 1–4 (repeated inputs allowed) and delays 0–3, so each kernel
// opcode, 1-input AND/NAND/OR/NOR included, is exercised.
func kernelCircuit(seed int64, nPI, nGates int) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(fmt.Sprintf("kernel%d", seed))
	var nets []string
	for i := 0; i < nPI; i++ {
		nets = append(nets, fmt.Sprintf("i%d", i))
		b.Input(nets[i])
	}
	for i := 0; i < nGates; i++ {
		gt := circuit.GateType(r.Intn(int(circuit.XNOR) + 1))
		ins := make([]string, 1)
		if !gt.Unate() {
			ins = make([]string, 1+r.Intn(4))
		}
		for j := range ins {
			ins[j] = nets[len(nets)-1-r.Intn(min(len(nets), 6))]
		}
		nets = append(nets, fmt.Sprintf("g%d", i))
		b.Gate(gt, int64(r.Intn(4)), nets[len(nets)-1], ins...)
	}
	b.Output(nets[len(nets)-1])
	b.Output(nets[len(nets)-2])
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// TestKernelMatchesReference runs scripted Mark/Narrow/Fixpoint/Undo/
// Snapshot/Restore sequences on the kernel and on the reference it
// replaced. Against the self-skipping reference it requires identical
// lanes, counters, worklist, trail, change log and trace after every
// step: the same Narrow calls in the same order with the same effect.
// Against the paper's scheduling it requires the same fixpoints and
// change sets (see kernelRun).
func TestKernelMatchesReference(t *testing.T) {
	var cs []*circuit.Circuit
	for _, e := range gen.SubstituteSuite() {
		cs = append(cs, e.Circuit)
	}
	for seed := int64(0); seed < 20; seed++ {
		cs = append(cs, gen.Random(seed, 6, 40, 1+seed%3))
	}
	cs = append(cs, gen.Industrial(1, 100, 10), gen.Industrial(1, 200, 10))
	for seed := int64(0); seed < 10; seed++ {
		cs = append(cs, kernelCircuit(seed, 5, 40))
	}
	steps := 2000
	if testing.Short() {
		steps = 300
	}
	for i, c := range cs {
		for _, strict := range []bool{true, false} {
			newKernelRun(t, c, randomScript(int64(i), steps), strict).run()
			newKernelRun(t, c, searchScript(c, int64(i), steps/2), strict).run()
		}
	}
}

// FuzzKernelEquivalence is TestKernelMatchesReference on fuzzed
// circuits and scripts.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(20), randomScript(0, 40))
	f.Add(int64(7), uint8(60), randomScript(1, 200))
	f.Fuzz(func(t *testing.T, seed int64, gates uint8, script []byte) {
		c := kernelCircuit(seed, 4, 2+int(gates)%80)
		newKernelRun(t, c, script, true).run()
		newKernelRun(t, c, script, false).run()
	})
}

// TestBufferReduction pins the 1-input AND/NAND/OR/NOR kernel on one
// gate: for ±∞ bounds, empty classes and delay 0, each output class
// meets the input class it follows, the output is narrowed before the
// input, and the result is the generic projection's, under either
// reference scheduling.
func TestBufferReduction(t *testing.T) {
	inf, ninf := waveform.PosInf, waveform.NegInf
	waves := []waveform.Wave{
		waveform.Full, waveform.Empty,
		{Lmin: ninf, Lmax: 0}, {Lmin: 5, Lmax: inf}, {Lmin: inf, Lmax: inf}, {Lmin: ninf, Lmax: ninf},
		{Lmin: 2, Lmax: 7}, {Lmin: 4, Lmax: 4}, {Lmin: 9, Lmax: 12},
	}
	var sigs []waveform.Signal
	for _, w0 := range waves {
		for _, w1 := range waves {
			sigs = append(sigs, waveform.Signal{W0: w0, W1: w1})
		}
	}
	for _, gt := range []circuit.GateType{circuit.AND, circuit.NAND, circuit.OR, circuit.NOR} {
		for _, d := range []int64{0, 3} {
			b := circuit.NewBuilder("buf")
			b.Input("i")
			b.Gate(gt, d, "o", "i")
			b.Output("o")
			c, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			in, out := id(t, c, "i"), id(t, c, "o")
			for _, si := range sigs {
				for _, so := range sigs {
					var k *System
					for _, strict := range []bool{true, false} {
						kr := newKernelRun(t, c, nil, strict)
						k = kr.k
						for _, s := range []*System{k, kr.r.sys} {
							s.storeSig(in, si)
							s.storeSig(out, so)
							s.Mark()
						}
						k.applyGate(0)
						kr.r.applyGate(0)
						if len(kr.kEv) == 2 && kr.kEv[0].n != out {
							t.Fatalf("%s d=%d in %v out %v: input narrowed before the output", gt, d, si, so)
						}
						kr.same(0, fmt.Sprintf("%s d=%d in %v out %v", gt, d, si, so))
					}

					// The closed form: class v of the output follows class
					// v of the input, or 1-v through an inversion.
					follow := func(v int) int {
						if gt.Inverting() {
							return 1 - v
						}
						return v
					}
					var wantOut, wantIn waveform.Signal
					for v := 0; v <= 1; v++ {
						m := so.Wave(v).Shift(waveform.Time(-d)).Intersect(si.Wave(follow(v)))
						wantOut = withWave(wantOut, v, m.Shift(waveform.Time(d)))
						wantIn = withWave(wantIn, follow(v), m)
					}
					if got := k.Domain(out); !got.Equal(wantOut.Intersect(so)) {
						t.Fatalf("%s d=%d in %v out %v: output %v, want %v", gt, d, si, so, got, wantOut)
					}
					if got := k.Domain(in); !got.Equal(wantIn.Intersect(si)) {
						t.Fatalf("%s d=%d in %v out %v: input %v, want %v", gt, d, si, so, got, wantIn)
					}
				}
			}
		}
	}
}
