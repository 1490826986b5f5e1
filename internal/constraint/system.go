// Package constraint implements the waveform-narrowing constraint
// system of the paper (Section 3): one abstract-signal domain per net,
// one relational constraint per gate, an event-driven scheduler, and
// the greatest-fixpoint solver, with trail-based selective state saving
// for the backtracking used by case analysis.
package constraint

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// lanes is the number of int64 domain lanes per net in the flat
// structure-of-arrays store: [4n+0]=W0.Lmin, [4n+1]=W0.Lmax,
// [4n+2]=W1.Lmin, [4n+3]=W1.Lmax.
const lanes = 4

// System is the constraint system associated with a timing check. It
// owns one Signal domain per net and re-evaluates gate constraints
// event-driven until the greatest fixpoint is reached.
type System struct {
	c *circuit.Circuit
	// l is the circuit's flat layout (a copy of its slice headers),
	// which the gate kernel and scheduleNet index directly.
	l circuit.Layout

	// dom is the flat structure-of-arrays domain store (lanes int64
	// values per net; see the lanes constant for the layout). The
	// projection kernels load and store lanes directly, the trail
	// records (lane index, old value) pairs, and a fixpoint snapshot
	// is a single flat copy — see Snapshot/Restore. The array must
	// never be aliased outside this package (the soaalias lint pass
	// enforces it).
	dom []int64

	// queue with qhead form a head-index ring: pops advance qhead
	// instead of re-slicing the front, so the backing array is reused
	// across fixpoints instead of being consumed (and reallocated)
	// every time the window slides off it.
	queue   []circuit.GateID
	qhead   int
	inQueue []bool

	// scratch buffers reused across applications of the generic
	// projectSymmetric and projectParity (the system is
	// single-goroutine by design; every Check owns its own System).
	scrCtrl []waveform.Wave
	scrNon  []waveform.Wave
	scrPar  [][2]waveform.Wave

	trace func(n circuit.NetID, old, new waveform.Signal)

	// stopFn, polled every stopPollInterval propagations, lets a caller
	// interrupt a long fixpoint (deadline, cancellation, budget). When
	// it returns true the solver parks: stopped becomes sticky and
	// Fixpoint returns without draining the worklist.
	stopFn    func() bool
	sincePoll int
	stopped   bool

	trail trail

	// The change log (see Subscribe): every net whose domain changed,
	// in order, while logOn; cursors[i] is consumer i's read position
	// and hooks[i] its Restorer. gen identifies the run the log belongs
	// to. logMarks holds the log's length at each open trail mark and
	// markCursors every cursor at each, len(cursors) entries per mark.
	log         []circuit.NetID
	logOn       bool
	cursors     []int
	hooks       []Restorer
	gen         uint64
	logMarks    []int
	markCursors []int

	inconsistent bool
	emptyNet     circuit.NetID

	// Propagations counts gate-constraint applications (statistics).
	Propagations int64
	// Narrowings counts domain changes (statistics).
	Narrowings int64

	queueHighWater int
}

// stopPollInterval is how many gate-constraint applications pass
// between stop-function polls. At the engine's observed propagation
// rates (millions per second) this bounds cancellation latency well
// under a millisecond while keeping the poll off the per-gate hot path.
const stopPollInterval = 256

// New builds the constraint system for the circuit with the paper's
// initial domains: every net unconstrained, every primary input
// restricted to floating-mode waveforms (stable after time 0).
func New(c *circuit.Circuit) *System { return NewFrom(c, nil) }

// NewFrom builds the constraint system for the circuit with every
// domain copied from snap, a Snapshot of a system of the same circuit,
// in place of the initial domains; a nil snap gives New's.
func NewFrom(c *circuit.Circuit, snap []int64) *System {
	s := &System{
		c:        c,
		l:        *c.Layout(),
		dom:      make([]int64, lanes*c.NumNets()),
		inQueue:  make([]bool, c.NumGates()),
		emptyNet: circuit.InvalidNet,
	}
	if snap == nil {
		s.initDomains()
	} else {
		s.Restore(snap)
	}
	return s
}

// initDomains writes the paper's initial domains straight into the
// lanes, bypassing the trail.
func (s *System) initDomains() {
	for n := 0; n < s.c.NumNets(); n++ {
		s.storeSig(circuit.NetID(n), waveform.FullSignal)
	}
	for _, pi := range s.c.PrimaryInputs() {
		s.storeSig(pi, waveform.FloatingInput)
	}
}

// sig loads the four lanes of net n as a Signal value.
func (s *System) sig(n circuit.NetID) waveform.Signal {
	base := lanes * int(n)
	return waveform.Signal{
		W0: waveform.Wave{Lmin: waveform.Time(s.dom[base]), Lmax: waveform.Time(s.dom[base+1])},
		W1: waveform.Wave{Lmin: waveform.Time(s.dom[base+2]), Lmax: waveform.Time(s.dom[base+3])},
	}
}

// wave loads the two lanes of net n's class-v wave.
func (s *System) wave(n circuit.NetID, v int) waveform.Wave {
	base := lanes*int(n) + 2*v
	return waveform.Wave{Lmin: waveform.Time(s.dom[base]), Lmax: waveform.Time(s.dom[base+1])}
}

// storeSig overwrites net n's lanes without touching the trail — for
// initialisation, snapshot restore, and in-package tests only.
func (s *System) storeSig(n circuit.NetID, sig waveform.Signal) {
	base := lanes * int(n)
	s.dom[base] = int64(sig.W0.Lmin)
	s.dom[base+1] = int64(sig.W0.Lmax)
	s.dom[base+2] = int64(sig.W1.Lmin)
	s.dom[base+3] = int64(sig.W1.Lmax)
}

// setLane stores v into lane i, recording the old value on the trail
// when it actually changes.
func (s *System) setLane(i int, v int64) {
	if old := s.dom[i]; old != v {
		s.trail.save(int32(i), old)
		s.dom[i] = v
	}
}

// Circuit returns the underlying netlist.
func (s *System) Circuit() *circuit.Circuit { return s.c }

// Domain returns the current domain of net n.
func (s *System) Domain(n circuit.NetID) waveform.Signal { return s.sig(n) }

// HasTransitionAtOrAfter reports Domain(n).HasTransitionAtOrAfter(t)
// from the lanes: a class qualifies when its wave is non-empty and
// meets [t, +∞].
func (s *System) HasTransitionAtOrAfter(n circuit.NetID, t waveform.Time) bool {
	base := lanes * int(n)
	lo0, hi0, lo1, hi1 := s.dom[base], s.dom[base+1], s.dom[base+2], s.dom[base+3]
	tt, inf := int64(t), int64(waveform.PosInf)
	return tt <= inf && (lo0 <= hi0 && lo0 <= inf && tt <= hi0 || lo1 <= hi1 && lo1 <= inf && tt <= hi1)
}

// Inconsistent reports whether some net's domain has become (φ, φ); in
// that state the timing check has no solution (Theorem 2 generalised to
// any net).
func (s *System) Inconsistent() bool { return s.inconsistent }

// EmptyNet returns the first net whose domain emptied, or InvalidNet.
func (s *System) EmptyNet() circuit.NetID { return s.emptyNet }

// SetStopFunc installs a callback polled every few hundred
// propagations during Fixpoint; when it returns true the solver stops
// at the next poll point and Stopped() reports true from then on. Pass
// nil to disable (the default); the nil path adds no work per gate
// application. The stop state is sticky: once stopped, further
// Fixpoint calls return immediately so an interrupted check unwinds
// promptly through every layer.
func (s *System) SetStopFunc(f func() bool) { s.stopFn = f }

// Stopped reports whether a stop function interrupted the solver.
func (s *System) Stopped() bool { return s.stopped }

// QueueHighWater returns the largest number of pending worklist
// entries observed — a measure of how bursty constraint propagation
// was for this check.
func (s *System) QueueHighWater() int { return s.queueHighWater }

// queueCompactMin is the minimum dead prefix before pop compacts the
// ring in place. Compaction copies the live tail to the front only
// when the dead prefix outweighs it, so each element is moved at most
// once per cap-sized window: amortised O(1) per pop, bounded memory.
const queueCompactMin = 64

// schedule enqueues gate g unless it is already pending.
func (s *System) schedule(g circuit.GateID) {
	if s.inQueue[g] {
		return
	}
	s.inQueue[g] = true
	s.queue = append(s.queue, g)
	if p := len(s.queue) - s.qhead; p > s.queueHighWater {
		s.queueHighWater = p
	}
}

// pending reports the number of enqueued gates.
func (s *System) pending() int { return len(s.queue) - s.qhead }

// pop removes and returns the oldest pending gate. The caller must
// know the queue is non-empty.
func (s *System) pop() circuit.GateID {
	g := s.queue[s.qhead]
	s.qhead++
	switch {
	case s.qhead == len(s.queue):
		s.queue = s.queue[:0]
		s.qhead = 0
	case s.qhead >= queueCompactMin && s.qhead > len(s.queue)-s.qhead:
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	return g
}

// ScheduleAll enqueues every gate constraint (used for the initial
// evaluation).
func (s *System) ScheduleAll() {
	for i := 0; i < s.c.NumGates(); i++ {
		s.schedule(circuit.GateID(i))
	}
}

// scheduleNet enqueues every constraint operating on net n (its driver
// and its fanout gates, in that order) except gate self: a gate whose
// own application narrowed n and cannot narrow anything on a second
// application (DESIGN.md §17, rule 1). InvalidGate leaves out none.
func (s *System) scheduleNet(n circuit.NetID, self circuit.GateID) {
	for _, g := range s.l.Gates(n) {
		if g != self {
			s.schedule(g)
		}
	}
}

// SetTraceFunc installs a callback invoked on every domain narrowing
// with the net and its old and new signals — the hook behind the
// paper-style propagation listings (ltta -trace, cmd/figures). Pass nil
// to disable. Tracing has no effect on results.
func (s *System) SetTraceFunc(f func(n circuit.NetID, old, new waveform.Signal)) {
	s.trace = f
}

// Narrow intersects the domain of net n with sig, records the old value
// on the trail, and schedules the affected constraints. It reports
// whether the domain changed. Narrowing to (φ, φ) marks the system
// inconsistent.
func (s *System) Narrow(n circuit.NetID, sig waveform.Signal) bool {
	return s.narrow(n, sig.W0, sig.W1, circuit.InvalidGate)
}

// Narrows reports whether Narrow(n, sig) would change net n's domain.
func (s *System) Narrows(n circuit.NetID, sig waveform.Signal) bool {
	base := lanes * int(n)
	_, _, ch0 := meet(s.dom[base], s.dom[base+1], sig.W0)
	_, _, ch1 := meet(s.dom[base+2], s.dom[base+3], sig.W1)
	return ch0 || ch1
}

// narrow is Narrow on the two class waves, made by the application of
// gate self (InvalidGate for none), which is not re-scheduled. It meets
// net n's four lanes with the waves' bounds and returns at once when
// nothing changes; a Signal is built only for the trace hook.
func (s *System) narrow(n circuit.NetID, w0, w1 waveform.Wave, self circuit.GateID) bool {
	base := lanes * int(n)
	l0, h0, ch0 := meet(s.dom[base], s.dom[base+1], w0)
	l1, h1, ch1 := meet(s.dom[base+2], s.dom[base+3], w1)
	if !ch0 && !ch1 {
		return false
	}
	if s.trace != nil {
		s.trace(n, s.sig(n), waveform.Signal{
			W0: waveform.Wave{Lmin: waveform.Time(l0), Lmax: waveform.Time(h0)},
			W1: waveform.Wave{Lmin: waveform.Time(l1), Lmax: waveform.Time(h1)},
		})
	}
	s.setLane(base, l0)
	s.setLane(base+1, h0)
	s.setLane(base+2, l1)
	s.setLane(base+3, h1)
	s.Narrowings++
	if s.logOn {
		s.log = append(s.log, n)
	}
	if l0 > h0 && l1 > h1 && !s.inconsistent {
		s.inconsistent = true
		s.emptyNet = n
	}
	s.scheduleNet(n, self)
	return true
}

// meet intersects the wave with lanes [lo, hi] and w, returning the
// canonical result (Empty when either is empty or they are disjoint)
// and whether it differs from the lanes as a wave: an empty wave equals
// every other empty wave, as in waveform.Wave.Equal.
func meet(lo, hi int64, w waveform.Wave) (nlo, nhi int64, changed bool) {
	if lo > hi {
		return int64(waveform.PosInf), int64(waveform.NegInf), false
	}
	nlo, nhi = lo, hi
	if l := int64(w.Lmin); l > nlo {
		nlo = l
	}
	if h := int64(w.Lmax); h < nhi {
		nhi = h
	}
	if w.IsEmpty() || nlo > nhi {
		return int64(waveform.PosInf), int64(waveform.NegInf), true
	}
	return nlo, nhi, nlo != lo || nhi != hi
}

// Fixpoint applies pending gate constraints until quiescence or
// inconsistency (the reach_fixpoint procedure of Figure 4). It returns
// true when the system is still consistent. The fixpoint is the
// greatest one: every application only narrows domains, and times are
// integers bounded by the finite constants in the system, so
// termination is guaranteed (Theorem 1).
func (s *System) Fixpoint() bool {
	if s.stopped {
		return !s.inconsistent
	}
	for s.pending() > 0 && !s.inconsistent {
		if s.stopFn != nil && s.pollStop() {
			break
		}
		g := s.pop()
		s.inQueue[g] = false
		s.Propagations++
		s.applyGate(g)
	}
	return s.finishFixpoint()
}

// pollStop runs the stop function every stopPollInterval calls and
// latches the stopped flag. Only reached when a stop function is set.
func (s *System) pollStop() bool {
	s.sincePoll++
	if s.sincePoll < stopPollInterval {
		return false
	}
	s.sincePoll = 0
	if s.stopFn() {
		s.stopped = true
	}
	return s.stopped
}

func (s *System) finishFixpoint() bool {
	if s.inconsistent {
		// Drain so a later resume starts clean.
		for _, g := range s.queue[s.qhead:] {
			s.inQueue[g] = false
		}
		s.queue, s.qhead = s.queue[:0], 0
		return false
	}
	return true
}

// Mark opens a new decision level; Undo rewinds to the matching mark.
// It records the change log's length and every subscriber's cursor,
// and calls each subscriber's OnMark.
func (s *System) Mark() {
	s.trail.mark()
	s.logMarks = append(s.logMarks, len(s.log))
	s.markCursors = append(s.markCursors, s.cursors...)
	for _, h := range s.hooks {
		h.OnMark(s)
	}
}

// Undo rewinds domains to the most recent mark, clearing any
// inconsistency and pending events. It calls each subscriber's OnUndo,
// cuts the change log back to its length at the mark and puts every
// cursor back where it was then, so no restored net is ever logged.
func (s *System) Undo() {
	if n := len(s.trail.marks); n > 0 {
		base := s.trail.marks[n-1]
		s.trail.marks = s.trail.marks[:n-1]
		for i := len(s.trail.idx) - 1; i >= base; i-- {
			s.dom[s.trail.idx[i]] = s.trail.old[i]
		}
		s.trail.idx = s.trail.idx[:base]
		s.trail.old = s.trail.old[:base]
		for _, h := range s.hooks {
			h.OnUndo(s)
		}
		s.log = s.log[:s.logMarks[n-1]]
		s.logMarks = s.logMarks[:n-1]
		saved := len(s.markCursors) - len(s.cursors)
		copy(s.cursors, s.markCursors[saved:])
		s.markCursors = s.markCursors[:saved]
	}
	s.inconsistent = false
	s.emptyNet = circuit.InvalidNet
	for _, g := range s.queue[s.qhead:] {
		s.inQueue[g] = false
	}
	s.queue, s.qhead = s.queue[:0], 0
}

// Levels returns the number of open decision levels.
func (s *System) Levels() int { return len(s.trail.marks) }

// AppendTouched appends to dst the nets on the trail since the
// innermost open mark — each net whose domain changed at this decision
// level, once per run of its entries, so possibly more than once — and
// returns the extended slice. With no mark open it appends nothing.
func (s *System) AppendTouched(dst []circuit.NetID) []circuit.NetID {
	if n := len(s.trail.marks); n > 0 {
		last := circuit.InvalidNet
		for i := s.trail.marks[n-1]; i < len(s.trail.idx); i++ {
			if net := circuit.NetID(s.trail.idx[i] / lanes); net != last {
				dst = append(dst, net)
				last = net
			}
		}
	}
	return dst
}

// The change log lets the stage-2–4 consumers of a check (carriers and
// dominators, learning) revisit only the nets whose domains changed
// since they last looked, instead of the whole circuit. It is off until
// the first Subscribe of a run, so checks that never reach a consumer
// pay nothing. While on, every effective Narrow appends its net. Each
// consumer's state follows the trail through its Restorer: Mark saves
// it with the consumer's cursor, and Undo restores both and cuts the
// log back to the mark, so after an Undo every consumer is where it
// was at the mark, with the same unread entries, and the restored
// domains are the ones it then had or was yet to read. Reset and
// Restore turn the log off, drop every subscription and start a new
// generation, so a consumer that finds Generation changed starts over
// with a full computation and a fresh Subscribe. Once every subscriber
// has read to the end, the log is cut back to the innermost open
// mark's length (to empty with no mark open): the entries below it
// are the ones an Undo can hand back to a consumer that had not read
// them at that mark. That keeps the log bounded by one evaluate round
// plus what lagging consumers had left unread at the open marks.

// A Restorer is the state a change-log consumer keeps beside its
// cursor: Mark calls OnMark on every subscriber, which saves that state
// for the new level, and Undo calls OnUndo, which puts back the state
// saved for the level it closes. s is the calling system; a consumer
// that has moved on to another system ignores it.
type Restorer interface {
	OnMark(s *System)
	OnUndo(s *System)
}

// Generation identifies the system's current run: it changes on every
// Reset and Restore, together with the change log's subscriptions.
func (s *System) Generation() uint64 { return s.gen }

// Subscribe turns the change log on and registers a consumer, with
// the Restorer Mark and Undo call, whose cursor starts at the end of
// the log, so it sees every domain change from now on. The returned id
// is valid for Changes until the generation changes. A consumer must
// subscribe with no decision level open: an Undo could not put back a
// state it never saved, so Subscribe panics then.
func (s *System) Subscribe(r Restorer) int {
	if len(s.trail.marks) > 0 {
		panic("constraint: Subscribe with a decision level open")
	}
	s.logOn = true
	s.cursors = append(s.cursors, len(s.log))
	s.hooks = append(s.hooks, r)
	return len(s.cursors) - 1
}

// Changes appends to dst every net logged since consumer id last
// looked, in log order and possibly repeated, advances its cursor to
// the end of the log, and returns the extended slice.
func (s *System) Changes(id int, dst []circuit.NetID) []circuit.NetID {
	dst = append(dst, s.log[s.cursors[id]:]...)
	s.cursors[id] = len(s.log)
	for _, c := range s.cursors {
		if c != len(s.log) {
			return dst
		}
	}
	keep := 0
	if n := len(s.logMarks); n > 0 {
		keep = s.logMarks[n-1]
	}
	s.log = s.log[:keep]
	for i := range s.cursors {
		s.cursors[i] = keep
	}
	return dst
}

// logLen reports the number of change-log entries (for the
// bounded-log tests).
func (s *System) logLen() int { return len(s.log) }

// Snapshot appends a copy of every domain lane onto buf[:0] and
// returns the filled buffer, so a caller-owned snapshot buffer is
// reused across calls without allocating. Taken at the fixpoint of the
// initial domains, the copy is the base every check of the circuit
// starts its stage-1 solve from (see Restore, NewFrom and DESIGN.md
// §14). The returned slice never aliases the system's own storage.
func (s *System) Snapshot(buf []int64) []int64 {
	return append(buf[:0], s.dom...)
}

// SnapshotDomain returns net n's domain in snap, a Snapshot, without a
// system to restore it into.
func SnapshotDomain(snap []int64, n circuit.NetID) waveform.Signal {
	base := lanes * int(n)
	return waveform.Signal{
		W0: waveform.Wave{Lmin: waveform.Time(snap[base]), Lmax: waveform.Time(snap[base+1])},
		W1: waveform.Wave{Lmin: waveform.Time(snap[base+2]), Lmax: waveform.Time(snap[base+3])},
	}
}

// Restore overwrites every domain lane from a snapshot taken on a
// system of the same circuit (the snapshot is copied, not aliased) and
// clears all per-run state: trail, worklist, inconsistency, stop and
// trace hooks, and statistics counters. Together with Snapshot it lets
// a sweep driver reuse one System — and all of its arena allocations —
// across many checks.
func (s *System) Restore(snap []int64) {
	if len(snap) != len(s.dom) {
		panic(fmt.Sprintf("constraint: Restore snapshot has %d lanes, system has %d", len(snap), len(s.dom)))
	}
	copy(s.dom, snap)
	s.resetRunState()
}

// Reset returns the system to its initial state — the paper's initial
// domains with all per-run state cleared — reusing every backing
// array. A freshly Reset system is indistinguishable from New(c).
func (s *System) Reset() {
	s.initDomains()
	s.resetRunState()
}

// resetRunState clears everything a check accumulates: the trail and
// its marks, the worklist, inconsistency, the stop/trace hooks, the
// statistics counters, and the change log with its subscriptions,
// starting a new generation. Backing arrays are kept.
func (s *System) resetRunState() {
	s.log = s.log[:0]
	s.logOn = false
	s.cursors = s.cursors[:0]
	clear(s.hooks)
	s.hooks = s.hooks[:0]
	s.gen++
	s.trail.idx = s.trail.idx[:0]
	s.trail.old = s.trail.old[:0]
	s.trail.marks = s.trail.marks[:0]
	s.logMarks = s.logMarks[:0]
	s.markCursors = s.markCursors[:0]
	for _, g := range s.queue[s.qhead:] {
		s.inQueue[g] = false
	}
	s.queue, s.qhead = s.queue[:0], 0
	s.inconsistent = false
	s.emptyNet = circuit.InvalidNet
	s.stopFn = nil
	s.sincePoll = 0
	s.stopped = false
	s.trace = nil
	s.Propagations = 0
	s.Narrowings = 0
	s.queueHighWater = 0
}

// String summarises the system state (for debugging and error text).
func (s *System) String() string {
	st := "consistent"
	if s.inconsistent {
		st = fmt.Sprintf("inconsistent at %s", s.c.Net(s.emptyNet).Name)
	}
	return fmt.Sprintf("constraint.System{%d nets, %d gates, %s, %d propagations}",
		s.c.NumNets(), s.c.NumGates(), st, s.Propagations)
}

// trail is the selective state store: a reusable arena of (lane index,
// old value) pairs with level marks. Undo replays a level backwards
// and re-slices the arena; capacity survives across levels and — via
// Reset/Restore — across checks, so steady-state mark/narrow/undo
// cycles never allocate.
type trail struct {
	idx   []int32
	old   []int64
	marks []int
}

func (t *trail) mark() { t.marks = append(t.marks, len(t.idx)) }

func (t *trail) save(i int32, old int64) {
	if len(t.marks) == 0 {
		return // no open level: nothing to restore to
	}
	t.idx = append(t.idx, i)
	t.old = append(t.old, old)
}

// len reports the number of saved lane entries (for the trail-growth
// regression tests).
func (t *trail) len() int { return len(t.idx) }
