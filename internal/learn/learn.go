// Package learn implements the static-learning preprocessing of
// Section 4 (after SOCRATES): for every net and value it propagates
// direct three-valued implications through the netlist, records the
// resulting net-value implications together with their contrapositives,
// and applies them during narrowing whenever a class empties in some
// domain (the net's settled value becomes known).
package learn

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/waveform"
)

// Assignment is a net-value pair.
type Assignment struct {
	Net circuit.NetID
	Val int
}

// Table holds the learned class implications of one circuit.
type Table struct {
	c *circuit.Circuit
	// imp[2*net+val] lists the assignments implied by net settling to
	// val.
	imp [][]Assignment
	// impossible[2*net+val] marks assumptions that propagate to a
	// contradiction: the net can never settle to val.
	impossible []bool
	// forced lists assignments that hold unconditionally. Empty for
	// precomputed tables; Project fills it with the in-cone
	// consequences of impossible classes on nets outside the cone.
	forced []Assignment
	// Implications counts stored entries (statistics).
	Implications int
}

func key(n circuit.NetID, v int) int { return 2*int(n) + v }

// Precompute runs the learning pass: one three-valued propagation per
// (net, value) assumption. Implications are stored in both directions
// (direct and contrapositive), deduplicated, and each assumption's list
// keeps the order in which its implications were first found — Apply
// narrows in that order.
//
// The pass needs no map to deduplicate. Run r = (n, v) deriving a
// stores r ⇒ a and its contrapositive ¬a ⇒ ¬r; the only other run that
// stores either is r' = ¬a deriving ¬r, which stores the same two. So
// when r runs, both of its entries for a exist already exactly when an
// earlier r' derived ¬r — and r' then put a on r's list. Marking r's
// list before the run therefore dedupes both entries with one array
// look-up. Lists are linked through one flat entry array in insertion
// order and laid out contiguously at the end.
func Precompute(c *circuit.Circuit) *Table {
	nk := 2 * c.NumNets()
	t := &Table{
		c:          c,
		imp:        make([][]Assignment, nk),
		impossible: make([]bool, nk),
	}
	p := newProp(c)
	// Entry i implies key to[i]; next[i] is the following entry of the
	// same list, -1 at its end. head and tail hold each key's first and
	// last entry (-1 for an empty list); mark[k] == r+1 when run r found
	// key k on its own list.
	var to, next []int32
	head, tail, mark := make([]int32, nk), make([]int32, nk), make([]int32, nk)
	for k := range head {
		head[k], tail[k] = -1, -1
	}
	add := func(from, k int) {
		i := int32(len(to))
		to, next = append(to, int32(k)), append(next, -1)
		if tail[from] < 0 {
			head[from] = i
		} else {
			next[tail[from]] = i
		}
		tail[from] = i
	}
	for n := 0; n < c.NumNets(); n++ {
		for v := 0; v <= 1; v++ {
			nid := circuit.NetID(n)
			r := key(nid, v)
			ok, assigned := p.run(nid, v)
			if !ok {
				t.impossible[r] = true
				continue
			}
			for i := head[r]; i >= 0; i = next[i] {
				mark[to[i]] = int32(r + 1)
			}
			for _, a := range assigned {
				if a.Net == nid || mark[key(a.Net, a.Val)] == int32(r+1) {
					continue
				}
				add(r, key(a.Net, a.Val))
				// Contrapositive: ¬a ⇒ ¬(n=v).
				add(key(a.Net, 1-a.Val), key(nid, 1-v))
			}
		}
	}
	flat := make([]Assignment, 0, len(to))
	for k := range t.imp {
		lo := len(flat)
		for i := head[k]; i >= 0; i = next[i] {
			flat = append(flat, Assignment{circuit.NetID(to[i] / 2), int(to[i] % 2)})
		}
		if len(flat) > lo {
			t.imp[k] = flat[lo:len(flat):len(flat)]
		}
	}
	t.Implications = len(flat)
	return t
}

// Implied returns the assignments implied by net n settling to v.
func (t *Table) Implied(n circuit.NetID, v int) []Assignment { return t.imp[key(n, v)] }

// Impossible reports whether the learning pass proved that net n can
// never settle to v.
func (t *Table) Impossible(n circuit.NetID, v int) bool { return t.impossible[key(n, v)] }

// Cursor is one check's state of Apply's event-driven pass: the
// system generation and change-log subscription it follows, the nets
// the pass has yet to visit, and those left for the next call. Its
// buffers are reused, so once grown it allocates nothing. The zero
// value is ready to use; a cursor follows one system at a time and must
// not be shared between goroutines.
type Cursor struct {
	sys     *constraint.System
	gen     uint64
	sub     int
	pending []uint64        // nets to visit in this pass, one bit per net id
	next    []circuit.NetID // settled during a pass at or below its position
	changes []circuit.NetID // change-log read buffer

	// next at each open decision level of sys: level i's copy starts
	// at saved[marks[i]] (see OnMark).
	saved []circuit.NetID
	marks []int
}

// OnMark saves the nets left for the next call at a new decision level
// of the system the cursor follows (constraint.Restorer). pending is
// empty between calls, so next is the cursor's whole state beside its
// change-log position.
func (cur *Cursor) OnMark(s *constraint.System) {
	if s != cur.sys {
		return
	}
	cur.marks = append(cur.marks, len(cur.saved))
	cur.saved = append(cur.saved, cur.next...)
}

// OnUndo puts back the nets OnMark saved for the level being undone
// (constraint.Restorer).
func (cur *Cursor) OnUndo(s *constraint.System) {
	if s != cur.sys {
		return
	}
	i := cur.marks[len(cur.marks)-1]
	cur.marks = cur.marks[:len(cur.marks)-1]
	cur.next = append(cur.next[:0], cur.saved[i:]...)
	cur.saved = cur.saved[:i]
}

// Apply enforces the learned implications on the constraint system:
// any net whose domain is reduced to a single class imposes its
// implications as class restrictions on other domains, and classes
// proved impossible are removed outright. It reports whether anything
// changed; callers then resume the fixpoint. Apply is monotone and
// idempotent, so it is safe to call repeatedly inside the solve loop.
//
// The first call for a system generation (see constraint.Generation)
// asserts the unconditional facts and scans every net in id order.
// Later calls visit, again in increasing id order (a bitset over net
// ids, scanned word by word, serves as the min-priority queue), only
// the nets the change log reports since the previous call plus those
// cur kept for it: a net settled during a pass is visited in the same
// pass when its
// id lies ahead of the pass position and in the next call otherwise —
// exactly when the full scan would reach it. Every other net's visit
// would be a no-op: its implications were imposed and, domains only
// narrowing, still hold. Undo widens domains again, but it also puts
// the cursor back (the cursor is the subscription's
// constraint.Restorer): the domains, the nets left for the next call
// and the unread change-log entries all return to their state at the
// mark, as if the level had never been opened. So Apply issues exactly
// the narrowings, in exactly the order, of scanning every net each
// call. The first call must come with no decision level open, as
// Subscribe requires.
func (t *Table) Apply(sys *constraint.System, cur *Cursor) bool {
	changed := false
	if gen := sys.Generation(); cur.sys != sys || cur.gen != gen {
		cur.sys, cur.gen, cur.sub = sys, gen, sys.Subscribe(cur)
		cur.next, cur.saved, cur.marks = cur.next[:0], cur.saved[:0], cur.marks[:0]
		if words := (t.c.NumNets() + 63) / 64; len(cur.pending) < words {
			cur.pending = make([]uint64, words)
		}
		for _, f := range t.forced {
			if sys.Domain(f.Net).Wave(1 - f.Val).IsEmpty() {
				continue
			}
			if sys.Narrow(f.Net, waveform.SettledTo(f.Val)) {
				changed = true
			}
		}
		cur.changes = sys.Changes(cur.sub, cur.changes[:0]) // the scan reaches them
		for n := 0; n < t.c.NumNets(); n++ {
			if t.visit(sys, circuit.NetID(n)) {
				changed = true
				cur.absorb(circuit.NetID(n), false)
			}
		}
		return changed
	}
	for _, n := range cur.next {
		cur.mark(n)
	}
	cur.next = cur.next[:0]
	cur.changes = sys.Changes(cur.sub, cur.changes[:0])
	for _, n := range cur.changes {
		cur.mark(n)
	}
	// Nets marked during the pass lie ahead of it: later in the word
	// being drained, which is re-read, or in a later word.
	for w := range cur.pending {
		for cur.pending[w] != 0 {
			b := bits.TrailingZeros64(cur.pending[w])
			cur.pending[w] &^= 1 << b
			if n := circuit.NetID(64*w + b); t.visit(sys, n) {
				changed = true
				cur.absorb(n, true)
			}
		}
	}
	return changed
}

// visit imposes the learned facts of one net: it removes the net's
// impossible classes, then, if the net's value is known, narrows every
// implied assignment. It reports whether any domain changed.
func (t *Table) visit(sys *constraint.System, nid circuit.NetID) bool {
	changed := false
	d := sys.Domain(nid)
	for v := 0; v <= 1; v++ {
		if t.impossible[key(nid, v)] && !d.Wave(v).IsEmpty() {
			if sys.Narrow(nid, waveform.SettledTo(1-v)) {
				changed = true
				d = sys.Domain(nid)
			}
		}
	}
	v, known := d.KnownValue()
	if !known {
		return changed
	}
	for _, a := range t.imp[key(nid, v)] {
		if sys.Domain(a.Net).Wave(1 - a.Val).IsEmpty() {
			continue
		}
		if sys.Narrow(a.Net, waveform.SettledTo(a.Val)) {
			changed = true
		}
	}
	return changed
}

// absorb reads the nets narrowed while visiting pos: those at or below
// it wait for the next call, those above it are marked for this pass
// when mark is set (the full scan reaches them by itself).
func (cur *Cursor) absorb(pos circuit.NetID, mark bool) {
	cur.changes = cur.sys.Changes(cur.sub, cur.changes[:0])
	for _, n := range cur.changes {
		switch {
		case n <= pos:
			cur.next = append(cur.next, n)
		case mark:
			cur.mark(n)
		}
	}
}

// mark adds net n to the nets the pass has yet to visit.
func (cur *Cursor) mark(n circuit.NetID) { cur.pending[n/64] |= 1 << (n % 64) }

// Project slices the table onto a fan-in cone sub-circuit: toSub maps
// original net ids to cone ids (circuit.InvalidNet outside the cone),
// fromSub maps back. Implications and impossible classes between cone
// nets carry over verbatim. An impossible class (n, v) of a net n
// OUTSIDE the cone is folded in as unconditional facts: n settles to
// 1−v in every consistent assignment, so every in-cone consequence of
// (n, 1−v) holds unconditionally; those land in forced and Apply
// asserts them up front. Implication chains that merely traverse
// outside nets need no handling of their own — the precompute stores
// the full three-valued closure of each assumption, so a cone-to-cone
// consequence routed through outside nets already exists as a direct
// table entry.
func (t *Table) Project(sub *circuit.Circuit, toSub, fromSub []circuit.NetID) *Table {
	pt := &Table{
		c:          sub,
		imp:        make([][]Assignment, 2*sub.NumNets()),
		impossible: make([]bool, 2*sub.NumNets()),
	}
	for sn := 0; sn < sub.NumNets(); sn++ {
		on := fromSub[sn]
		for v := 0; v <= 1; v++ {
			if t.impossible[key(on, v)] {
				pt.impossible[key(circuit.NetID(sn), v)] = true
			}
			for _, a := range t.imp[key(on, v)] {
				sa := toSub[a.Net]
				if sa == circuit.InvalidNet {
					continue
				}
				k := key(circuit.NetID(sn), v)
				pt.imp[k] = append(pt.imp[k], Assignment{sa, a.Val})
				pt.Implications++
			}
		}
	}
	forcedSeen := make(map[Assignment]bool)
	for on := range toSub {
		if toSub[on] != circuit.InvalidNet {
			continue
		}
		for v := 0; v <= 1; v++ {
			if !t.impossible[key(circuit.NetID(on), v)] {
				continue
			}
			for _, a := range t.imp[key(circuit.NetID(on), 1-v)] {
				sa := toSub[a.Net]
				if sa == circuit.InvalidNet {
					continue
				}
				f := Assignment{sa, a.Val}
				if forcedSeen[f] {
					continue
				}
				forcedSeen[f] = true
				pt.forced = append(pt.forced, f)
				pt.Implications++
			}
		}
	}
	return pt
}

// prop is the three-valued direct-implication engine used by the
// learning pass (forward and backward gate rules, no case splits). Its
// buffers are reused from run to run.
type prop struct {
	c     *circuit.Circuit
	val   []int8           // -1 unknown
	dirty []circuit.GateID // FIFO of scheduled gates, drained by index
	inQ   []bool
	trail []circuit.NetID
	out   []Assignment
}

func newProp(c *circuit.Circuit) *prop {
	p := &prop{c: c, val: make([]int8, c.NumNets()), inQ: make([]bool, c.NumGates())}
	for i := range p.val {
		p.val[i] = -1
	}
	return p
}

// run assumes net n settles to v, propagates, and returns whether the
// assumption is consistent plus every determined assignment, in the
// order they were determined. The assignments are valid until the next
// run. State is rolled back before returning.
func (p *prop) run(n circuit.NetID, v int) (ok bool, out []Assignment) {
	defer func() {
		for _, m := range p.trail {
			p.val[m] = -1
		}
		p.trail = p.trail[:0]
		for _, g := range p.dirty {
			p.inQ[g] = false
		}
		p.dirty = p.dirty[:0]
	}()
	if !p.assign(n, int8(v)) {
		return false, nil
	}
	for head := 0; head < len(p.dirty); head++ {
		g := p.dirty[head]
		p.inQ[g] = false
		if !p.applyGate(g) {
			return false, nil
		}
	}
	p.out = p.out[:0]
	for _, m := range p.trail {
		p.out = append(p.out, Assignment{m, int(p.val[m])})
	}
	return true, p.out
}

func (p *prop) assign(n circuit.NetID, v int8) bool {
	switch p.val[n] {
	case v:
		return true
	case -1:
		p.val[n] = v
		p.trail = append(p.trail, n)
		p.scheduleNet(n)
		return true
	default:
		return false // conflict
	}
}

func (p *prop) scheduleNet(n circuit.NetID) {
	for _, g := range p.c.Layout().Gates(n) {
		if !p.inQ[g] {
			p.inQ[g] = true
			p.dirty = append(p.dirty, g)
		}
	}
}

// applyGate runs the direct-implication rules of one gate.
func (p *prop) applyGate(g circuit.GateID) bool {
	l := p.c.Layout()
	t, ins, o := l.Type[g], l.Inputs(g), l.Out[g]
	out := p.val[o]
	switch t {
	case circuit.NOT:
		in := p.val[ins[0]]
		if in != -1 && !p.assign(o, 1-in) {
			return false
		}
		if out != -1 && !p.assign(ins[0], 1-out) {
			return false
		}
	case circuit.BUFFER, circuit.DELAY:
		in := p.val[ins[0]]
		if in != -1 && !p.assign(o, in) {
			return false
		}
		if out != -1 && !p.assign(ins[0], out) {
			return false
		}
	case circuit.AND, circuit.NAND, circuit.OR, circuit.NOR:
		ctrl, _ := t.HasControlling()
		cv := int8(ctrl)
		controlled := cv
		if t.Inverting() {
			controlled = 1 - cv
		}
		nonControlled := 1 - controlled
		// Forward.
		known := 0
		anyCtrl := false
		var lastUnknown circuit.NetID = circuit.InvalidNet
		for _, x := range ins {
			switch p.val[x] {
			case cv:
				anyCtrl = true
				known++
			case 1 - cv:
				known++
			default:
				lastUnknown = x
			}
		}
		if anyCtrl {
			if !p.assign(o, controlled) {
				return false
			}
		} else if known == len(ins) {
			if !p.assign(o, nonControlled) {
				return false
			}
		}
		// Backward.
		if out == nonControlled {
			for _, x := range ins {
				if !p.assign(x, 1-cv) {
					return false
				}
			}
		}
		if out == controlled && !anyCtrl && known == len(ins)-1 && lastUnknown != circuit.InvalidNet {
			if !p.assign(lastUnknown, cv) {
				return false
			}
		}
	case circuit.XOR, circuit.XNOR:
		parity := int8(0)
		if t == circuit.XNOR {
			parity = 1
		}
		unknown := 0
		var lastUnknown circuit.NetID = circuit.InvalidNet
		acc := parity
		for _, x := range ins {
			if p.val[x] == -1 {
				unknown++
				lastUnknown = x
			} else {
				acc ^= p.val[x]
			}
		}
		switch {
		case unknown == 0:
			if !p.assign(o, acc) {
				return false
			}
		case unknown == 1 && out != -1:
			if !p.assign(lastUnknown, acc^out) {
				return false
			}
		}
	}
	return true
}
