// Package dom implements the global timing implications of Section 4
// of the paper: static carriers and static timing dominators
// (Definitions 4–6, Lemma 3) and dynamic carriers, dynamic distances
// and dynamic timing dominators (Definitions 7–9, Theorem 3,
// Corollary 1). Dominators are the nets lying on every
// sufficiently-long path to the checked output; their domains can be
// narrowed to waveforms that still transition late enough, which is the
// paper's main weapon against the pessimism of local narrowing.
package dom

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/waveform"
)

// Dominators lists the timing dominators of a check in order from the
// checked output towards the inputs, with the distance bound used for
// Corollary-1 narrowing: waveforms on Nets[i] stable at and after
// (δ − Dist[i]) are σ-incompatible.
type Dominators struct {
	Nets []circuit.NetID
	Dist []waveform.Time
}

// LevelOrder returns every net of c ordered by decreasing circuit
// level, ties by increasing id. Every edge y→x of a carrier DAG Ψ′ runs
// from a higher level to a lower one, so filtering this order by a
// carrier mask yields a topological order of Ψ′ with the checked
// output first. The order depends on the circuit alone: compute it once
// per circuit and pass it to every Workspace call on that circuit.
func LevelOrder(c *circuit.Circuit) []circuit.NetID {
	maxL := c.MaxLevel()
	// Counting sort on level, scanning ids in increasing order so each
	// level's bucket keeps them sorted.
	start := make([]int, maxL+2)
	for n := 0; n < c.NumNets(); n++ {
		start[maxL-c.Level(circuit.NetID(n))+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := make([]circuit.NetID, c.NumNets())
	for n := 0; n < c.NumNets(); n++ {
		b := maxL - c.Level(circuit.NetID(n))
		order[start[b]] = circuit.NetID(n)
		start[b]++
	}
	return order
}

// Levels is the per-circuit input of the Workspace calls: the level
// order of the nets and, by net, the range of its driver's inputs in
// the circuit layout's Pins. It depends on the circuit alone: build it
// once per circuit with NewLevels and pass it to every Workspace call
// on that circuit.
type Levels struct {
	Order []circuit.NetID // LevelOrder of the circuit

	pins  []circuit.NetID // the layout's Pins
	input []pinRange      // by net; empty for a primary input
}

// pinRange is a net's driver inputs, pins[lo:hi].
type pinRange struct{ lo, hi int32 }

// NewLevels builds the Levels of c.
func NewLevels(c *circuit.Circuit) *Levels {
	l := c.Layout()
	input := make([]pinRange, c.NumNets())
	for g, y := range l.Out {
		input[y] = pinRange{l.PinStart[g], l.PinStart[g+1]}
	}
	return &Levels{Order: LevelOrder(c), pins: l.Pins, input: input}
}

// Inputs returns net x's driver inputs: none for a primary input.
func (lv *Levels) Inputs(x circuit.NetID) []circuit.NetID {
	p := lv.input[x]
	return lv.pins[p.lo:p.hi]
}

// Workspace owns every buffer of carrier and dominator computation, so
// a caller that asks for carriers and dominators repeatedly — the
// evaluate loop after every fixpoint, case analysis at every decision —
// allocates nothing once the buffers have grown to the largest circuit
// seen. Results returned by a method (masks, distances, dominator
// slices) alias the workspace and are valid only until the next call
// on it or the next Undo of the system it follows; copy what must
// outlive that. One workspace may serve circuits of any size in turn,
// but must not be used concurrently. The zero value is ready to use.
type Workspace struct {
	mask []bool          // dynamic carrier mask, by net
	dist []waveform.Time // dynamic distances, by net

	sweepMask []bool          // the full sweep's result before it is
	sweepDist []waveform.Time // moved into mask and dist

	in []int32 // FromCarriers' cut edges into each net; all zero between calls

	nets  []circuit.NetID // result: dominator nets, source first
	dists []waveform.Time // result: their distance bounds

	// Incremental state of Carriers and Dominators: mask and dist hold
	// the carriers of check (sink, delta) on sys's domains as of the
	// last read of change-log subscription sub, while live; doms holds
	// FromCarriers of that mask while domsLive.
	sys      *constraint.System
	gen      uint64
	sub      int
	sink     circuit.NetID
	delta    waveform.Time
	live     bool
	doms     Dominators
	domsLive bool

	// The undo trail of that state (see OnMark): the old carrier bit
	// and distance of every change made while a level of sys is open,
	// and per open level the rest of the state, with the dominator nets
	// of a live set copied to savedDoms.
	trail     []carrierChange
	levels    []savedLevel
	savedDoms []circuit.NetID

	changes []circuit.NetID // change-log read buffer

	// The level-bucket queue of Carriers, laid out for circuit qc: the
	// nets queued at level l are slots[start[l] : start[l]+fill[l]]. A
	// net is queued at most once per update, so each level's block has
	// room for every net of that level and the queue never grows.
	qc     *circuit.Circuit
	start  []int32
	fill   []int32
	slots  []circuit.NetID
	queued []uint32 // queued[n] == epoch: n was queued this update
	epoch  uint32
	lo, hi int // lowest and highest level queued

	sweeps, refreshes int // work counters (see Counts)
}

// carrierChange is one trail entry: net's carrier bit and distance
// before a change.
type carrierChange struct {
	net     circuit.NetID
	carrier bool
	dist    waveform.Time
}

// savedLevel is the incremental state at a mark: the trail's length,
// where the dominator nets were copied to in savedDoms, and the flags.
type savedLevel struct {
	trail, doms    int
	sink           circuit.NetID
	delta          waveform.Time
	live, domsLive bool
}

// DynamicCarriers computes the dynamic carriers of the check and their
// dynamic distances from the current domains of the constraint system
// (Definitions 7–8): a net qualifies through gate g feeding carrier y
// at distance k when its domain still contains waveforms with a
// transition at or after δ − (k + d_max(g)); its dynamic distance is
// the largest such k′. This is the full sweep on a fresh workspace, so
// the caller owns the result; Workspace.Carriers is its incremental
// form.
func DynamicCarriers(sys *constraint.System, sink circuit.NetID, delta waveform.Time) (mask []bool, dist []waveform.Time) {
	w := &Workspace{sink: sink, delta: delta}
	w.sweep(sys)
	return w.mask, w.dist
}

// sweep is the full carrier sweep of the check (w.sink, w.delta):
// every gate in reverse topological order, so each net's fanout
// outputs are final when it is reached, pushes its carrier output's
// distance plus d_max to the inputs that still transition late
// enough. It sweeps into the scratch arrays, which then trade places
// with mask and dist; while a level is open it moves only the nets
// whose value changed, through set, which trails them.
func (w *Workspace) sweep(sys *constraint.System) {
	c := sys.Circuit()
	n := c.NumNets()
	mask := slices.Grow(w.sweepMask[:0], n)[:n]
	dist := slices.Grow(w.sweepDist[:0], n)[:n]
	w.sweepMask, w.sweepDist = mask, dist
	clear(mask)
	for i := range dist {
		dist[i] = waveform.NegInf
	}
	if !sys.Domain(w.sink).IsEmpty() {
		mask[w.sink], dist[w.sink] = true, 0
		l := c.Layout()
		topo := c.TopoGates()
		for i := len(topo) - 1; i >= 0; i-- {
			g := topo[i]
			y := l.Out[g]
			if !mask[y] {
				continue
			}
			kp := dist[y].Add(waveform.Time(l.Delay[g]))
			for _, x := range l.Inputs(g) {
				if dist[x] < kp && sys.HasTransitionAtOrAfter(x, w.delta.Sub(kp)) {
					mask[x], dist[x] = true, kp
				}
			}
		}
	}
	if len(w.levels) == 0 {
		w.mask, w.sweepMask = mask, w.mask
		w.dist, w.sweepDist = dist, w.dist
		w.domsLive = false
		return
	}
	for x := range mask {
		if mask[x] != w.mask[x] || dist[x] != w.dist[x] {
			w.set(circuit.NetID(x), mask[x], dist[x])
		}
	}
}

// Carriers returns the dynamic carriers and distances of the check
// (sink, δ) on sys's current domains — exactly DynamicCarriers' result
// — paying only for the nets whose domains changed since the previous
// call, which it learns from sys's change log (constraint.Subscribe).
//
// The sweep takes each net x ≠ sink to be the largest k = dist(y) +
// d_max(g) over its fanout gates g with a carrier output y, kept when
// x's domain has a transition at or after δ − k. That test only gets
// easier as k grows, so the largest k decides, and x's (carrier,
// distance) is a function of its own domain and its fanout outputs'
// values. Carriers therefore recomputes the changed nets, then, level
// by level downwards, the fan-in of every net whose value moved; the
// result equals the full sweep. The full sweep still runs on the first
// call for a system generation or check, when the sink's domain is
// empty or was, and when more than a quarter of the circuit's nets
// changed, where one sweep replaces re-deriving them one by one. The
// workspace subscribes to sys as a constraint.Restorer, so Mark and
// Undo save and restore its state together with the domains: after an
// Undo it holds the carriers and dominators of the mark without
// recomputing them. The returned slices alias the workspace. lv is the
// Levels of sys's circuit.
func (w *Workspace) Carriers(sys *constraint.System, lv *Levels, sink circuit.NetID, delta waveform.Time) (mask []bool, dist []waveform.Time) {
	if gen := sys.Generation(); w.sys != sys || w.gen != gen {
		w.sys, w.gen, w.live = sys, gen, false
		w.trail, w.levels, w.savedDoms = w.trail[:0], w.levels[:0], w.savedDoms[:0]
		w.sub = sys.Subscribe(w)
	}
	w.changes = sys.Changes(w.sub, w.changes[:0])
	if w.live && w.sink == sink && w.delta == delta && (len(w.changes) == 0 ||
		w.mask[sink] && !sys.Domain(sink).IsEmpty() && w.update(sys, lv)) {
		return w.mask, w.dist
	}
	if !w.live || w.sink != sink || w.delta != delta {
		w.domsLive = false // mask may hold another check's carriers
	}
	w.sink, w.delta, w.live = sink, delta, true
	w.sweep(sys)
	return w.mask, w.dist
}

// OnMark saves the incremental state for a new decision level of the
// system the workspace follows (constraint.Restorer).
func (w *Workspace) OnMark(s *constraint.System) {
	if s != w.sys {
		return
	}
	w.levels = append(w.levels, savedLevel{
		trail: len(w.trail), doms: len(w.savedDoms),
		sink: w.sink, delta: w.delta, live: w.live, domsLive: w.domsLive,
	})
	if w.domsLive {
		w.savedDoms = append(w.savedDoms, w.doms.Nets...)
	}
}

// OnUndo puts back the state OnMark saved for the level being undone:
// it replays the trail backwards and restores the dominator nets, whose
// distances the next Dominators call re-reads (constraint.Restorer).
func (w *Workspace) OnUndo(s *constraint.System) {
	if s != w.sys {
		return
	}
	lvl := w.levels[len(w.levels)-1]
	w.levels = w.levels[:len(w.levels)-1]
	for i := len(w.trail) - 1; i >= lvl.trail; i-- {
		e := w.trail[i]
		w.mask[e.net], w.dist[e.net] = e.carrier, e.dist
	}
	w.trail = w.trail[:lvl.trail]
	w.sink, w.delta, w.live, w.domsLive = lvl.sink, lvl.delta, lvl.live, lvl.domsLive
	if w.domsLive {
		nets := w.savedDoms[lvl.doms:]
		w.nets = append(w.nets[:0], nets...)
		w.dists = slices.Grow(w.dists[:0], len(nets))[:len(nets)]
		w.doms = Dominators{Nets: w.nets, Dist: w.dists}
	}
	w.savedDoms = w.savedDoms[:lvl.doms]
}

// Counts reports the work the workspace has done: cut sweeps
// (FromCarriers) and incremental carrier refreshes. Tests and
// benchmarks read them to pin how much work a stage takes.
func (w *Workspace) Counts() (sweeps, refreshes int) { return w.sweeps, w.refreshes }

// growQueue lays the level-bucket queue out for c.
func (w *Workspace) growQueue(c *circuit.Circuit) {
	if w.qc == c {
		return
	}
	w.qc = c
	levels := c.MaxLevel() + 1
	w.start = slices.Grow(w.start[:0], levels+1)[:levels+1]
	clear(w.start)
	for n := 0; n < c.NumNets(); n++ {
		w.start[c.Level(circuit.NetID(n))+1]++
	}
	for l := 1; l <= levels; l++ {
		w.start[l] += w.start[l-1]
	}
	w.fill = slices.Grow(w.fill[:0], levels)[:levels]
	clear(w.fill)
	w.slots = slices.Grow(w.slots[:0], c.NumNets())[:c.NumNets()]
	if len(w.queued) < c.NumNets() {
		w.queued = make([]uint32, c.NumNets())
		w.epoch = 0
	}
}

// update brings mask and dist up to date with the changed nets in
// w.changes, or reports false — touching nothing — when they are more
// than a quarter of the circuit's nets.
func (w *Workspace) update(sys *constraint.System, lv *Levels) bool {
	c := sys.Circuit()
	w.growQueue(c)
	w.epoch++
	if w.epoch == 0 {
		clear(w.queued)
		w.epoch = 1
	}
	w.lo, w.hi = len(w.fill), -1
	limit, n := c.NumNets()/4, 0
	for _, x := range w.changes {
		if w.queued[x] == w.epoch {
			continue
		}
		if n++; n > limit {
			for l := w.lo; l <= w.hi; l++ {
				w.fill[l] = 0
			}
			return false
		}
		w.enqueue(c, x)
	}
	// A net's inputs sit on strictly lower levels, so draining from the
	// top finishes every fanout output before the nets it feeds, and
	// nothing is queued onto the level being drained.
	lay := c.Layout()
	for l := w.hi; l >= w.lo; l-- {
		for _, x := range w.slots[w.start[l] : w.start[l]+w.fill[l]] {
			w.refreshes++
			if !w.refresh(lay, sys, x) {
				continue
			}
			for _, in := range lv.Inputs(x) {
				if w.queued[in] != w.epoch {
					w.enqueue(c, in)
				}
			}
		}
		w.fill[l] = 0
	}
	return true
}

func (w *Workspace) enqueue(c *circuit.Circuit, x circuit.NetID) {
	w.queued[x] = w.epoch
	l := c.Level(x)
	w.slots[w.start[l]+w.fill[l]] = x
	w.fill[l]++
	w.lo, w.hi = min(w.lo, l), max(w.hi, l)
}

// refresh recomputes net x's carrier bit and distance from its domain
// and its fanout outputs, the sweep's test, and reports whether either
// changed. The sink stays a carrier at distance 0: refresh runs only
// while its domain is non-empty.
func (w *Workspace) refresh(l *circuit.Layout, sys *constraint.System, x circuit.NetID) bool {
	if x == w.sink {
		return false
	}
	k := waveform.NegInf
	for _, g := range l.Fanout(x) {
		if y := l.Out[g]; w.mask[y] {
			k = max(k, w.dist[y].Add(waveform.Time(l.Delay[g])))
		}
	}
	carrier := k != waveform.NegInf && sys.HasTransitionAtOrAfter(x, w.delta.Sub(k))
	if !carrier {
		k = waveform.NegInf
	}
	if carrier == w.mask[x] && k == w.dist[x] {
		return false
	}
	w.set(x, carrier, k)
	return true
}

// set stores net x's carrier bit and distance, which differ from the
// stored ones. While a level is open the old pair goes on the trail.
func (w *Workspace) set(x circuit.NetID, carrier bool, k waveform.Time) {
	if len(w.levels) > 0 {
		w.trail = append(w.trail, carrierChange{x, w.mask[x], w.dist[x]})
	}
	if carrier != w.mask[x] {
		w.domsLive = false // Ψ′ changed shape
	}
	w.mask[x], w.dist[x] = carrier, k
}

// Dominators returns the timing dominators of the carriers the last
// Carriers call returned — FromCarriers on them. The dominators depend
// on the carrier mask alone, so they are recomputed only when a carrier
// bit flipped since the last computation; otherwise the same dominator
// nets are returned with their distances re-read. lv is the Levels of
// the system's circuit. The result aliases the workspace.
func (w *Workspace) Dominators(lv *Levels) Dominators {
	if !w.domsLive {
		w.doms = w.FromCarriers(w.sys.Circuit(), lv, w.mask, w.dist, w.sink)
		w.domsLive = true
		return w.doms
	}
	for i, n := range w.doms.Nets {
		w.doms.Dist[i] = w.dist[n]
	}
	return w.doms
}

// FromCarriers computes the timing dominators from a carrier mask and
// distance vector (the workspace's own DynamicCarriers result or any
// other, e.g. the static carriers): the dominators of the terminal
// vertex T in the carrier DAG Ψ′ (Definition 6). Vertices are the
// carrier nets plus T, edges run from each gate output to its carrier
// inputs, and every carrier with no carrier input (primary inputs of
// Ψ) feeds T. The result is the nets on every path from the source (the
// checked output) to T, ordered from the source down, each with dist
// as its bound; it is empty when the sink is not a carrier or a carrier
// precedes it in lv.Order. lv is the Levels of c.
//
// One sweep down lv.Order finds them. Before carrier x is reached, the
// edges from the carriers already swept that the source reaches form a
// cut: every source→T path crosses it exactly once, since the path's
// nets come in order and T comes last. in[x] counts the cut edges
// ending at x and cut counts them all, so x lies on every path exactly
// when in[x] == cut: if some cut edge ends elsewhere, following it and
// then any path to T (every reached carrier has one) avoids x. A T-edge
// never leaves the cut, so no net after the first T-edge is a
// dominator and the sweep stops there.
func (w *Workspace) FromCarriers(c *circuit.Circuit, lv *Levels, mask []bool, dist []waveform.Time, sink circuit.NetID) Dominators {
	w.domsLive = false // the result storage is about to be overwritten
	w.sweeps++
	if !mask[sink] {
		return Dominators{}
	}
	order := lv.Order
	i := 0
	for !mask[order[i]] {
		i++
	}
	if order[i] != sink {
		// The sink must be the unique source of Ψ′; carriers outside
		// its fan-in cone would violate the construction.
		return Dominators{}
	}
	if len(w.in) < c.NumNets() {
		w.in = make([]int32, c.NumNets())
	}
	in := w.in
	nets := w.nets[:0]
	in[sink] = 1 // a virtual edge into the source
	cut := int32(1)
	for ; i < len(order); i++ {
		x := order[i]
		k := in[x]
		if k == 0 {
			continue // not a carrier, or not reached from the source
		}
		in[x] = 0
		if k == cut {
			nets = append(nets, x)
		}
		cut -= k
		before := cut
		for _, y := range lv.Inputs(x) {
			b := int32(0)
			if mask[y] {
				b = 1
			}
			in[y] += b
			cut += b
		}
		if cut == before {
			break // no carrier inputs: x feeds T
		}
	}
	// Zero the counters of the nets the sweep did not reach: they hold
	// the cut.
	for i++; cut > 0; i++ {
		x := order[i]
		cut -= in[x]
		in[x] = 0
	}
	dists := w.dists[:0]
	for _, n := range nets {
		dists = append(dists, dist[n])
	}
	w.nets, w.dists = nets, dists
	return Dominators{Nets: nets, Dist: dists}
}

// Static computes the static timing dominators of the check
// (c, sink, δ) with the Lemma-3 distance bound top_{d→s}.
func Static(c *circuit.Circuit, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) Dominators {
	return new(Workspace).Static(c, NewLevels(c), a, sink, delta)
}

// Static is the package-level Static on the workspace. lv is the
// Levels of c.
func (w *Workspace) Static(c *circuit.Circuit, lv *Levels, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) Dominators {
	return w.FromCarriers(c, lv, delay.StaticCarrierMask(c, a, sink, delta), delay.ToNet(c, sink), sink)
}

// StaticCarriers exposes the static carrier mask (Definition 4) for
// reports and tests.
func StaticCarriers(c *circuit.Circuit, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) []bool {
	return delay.StaticCarrierMask(c, a, sink, delta)
}

// Dynamic computes the dynamic timing dominators of the check under the
// system's current domains, with the Theorem-3 distance bound (the
// dynamic distance): DynamicCarriers then FromCarriers on a fresh
// workspace, so the caller owns the result.
func Dynamic(sys *constraint.System, sink circuit.NetID, delta waveform.Time) Dominators {
	mask, dist := DynamicCarriers(sys, sink, delta)
	return FromCarriers(sys.Circuit(), mask, dist, sink)
}

// FromCarriers is Workspace.FromCarriers on a fresh workspace: a
// one-off call that owns its result.
func FromCarriers(c *circuit.Circuit, mask []bool, dist []waveform.Time, sink circuit.NetID) Dominators {
	return new(Workspace).FromCarriers(c, NewLevels(c), mask, dist, sink)
}

// NarrowDominators applies Corollary 1: for every dominator d at
// distance k, intersect its domain with waveforms transitioning at or
// after δ − k. It reports whether any domain changed (callers then
// resume the fixpoint).
func NarrowDominators(sys *constraint.System, doms Dominators, delta waveform.Time) bool {
	changed := false
	for i, n := range doms.Nets {
		cut := delta.Sub(doms.Dist[i])
		if sys.Narrow(n, waveform.CheckOutput(cut)) {
			changed = true
		}
	}
	return changed
}
