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

// Workspace owns every buffer of carrier and dominator computation, so
// a caller that asks for carriers and dominators repeatedly — the
// evaluate loop after every fixpoint, case analysis at every decision —
// allocates nothing once the buffers have grown to the largest circuit
// seen. Results returned by a method (masks, distances, dominator
// slices) alias the workspace and are valid only until the next call
// on it; copy what must outlive that. One workspace may serve circuits
// of any size in turn, but must not be used concurrently. The zero
// value is ready to use.
type Workspace struct {
	mask []bool          // dynamic carrier mask, by net
	dist []waveform.Time // dynamic distances, by net

	ord    []int32         // position in verts of each carrier net
	idom   []int32         // immediate dominator by verts position; T last
	verts  []circuit.NetID // carrier nets in level order
	tPreds []int32         // verts positions feeding T

	nets  []circuit.NetID // result: dominator nets, source first
	dists []waveform.Time // result: their distance bounds
}

// DynamicCarriers computes the dynamic carriers of the check and their
// dynamic distances from the current domains of the constraint system
// (Definitions 7–8): a net qualifies through gate g feeding carrier y
// at distance k when its domain still contains waveforms with a
// transition at or after δ − (k + d_max(g)); its dynamic distance is
// the largest such k′. The returned slices alias the workspace.
func (w *Workspace) DynamicCarriers(sys *constraint.System, sink circuit.NetID, delta waveform.Time) (mask []bool, dist []waveform.Time) {
	c := sys.Circuit()
	mask = slices.Grow(w.mask[:0], c.NumNets())[:c.NumNets()]
	dist = slices.Grow(w.dist[:0], c.NumNets())[:c.NumNets()]
	w.mask, w.dist = mask, dist
	clear(mask)
	for i := range dist {
		dist[i] = waveform.NegInf
	}
	if sys.Domain(sink).IsEmpty() {
		return mask, dist
	}
	mask[sink] = true
	dist[sink] = 0
	topo := c.TopoGates()
	for i := len(topo) - 1; i >= 0; i-- {
		g := c.Gate(topo[i])
		y := g.Output
		if !mask[y] {
			continue
		}
		kp := dist[y].Add(waveform.Time(g.Delay))
		for _, x := range g.Inputs {
			if dist[x] >= kp {
				continue
			}
			if sys.Domain(x).HasTransitionAtOrAfter(delta.Sub(kp)) {
				mask[x] = true
				dist[x] = kp
			}
		}
	}
	return mask, dist
}

// FromCarriers computes the timing dominators from a carrier mask and
// distance vector (the workspace's own DynamicCarriers result or any
// other, e.g. the static carriers): the dominators of the terminal
// vertex T in the carrier DAG Ψ′ (Definition 6). Vertices are the
// carrier nets plus T, edges run from each gate output to its carrier
// inputs, and every carrier with no carrier predecessor (primary inputs
// of Ψ) feeds T. The result is the idom chain of T excluding T itself —
// the nets on every path from the source (the checked output) to T —
// ordered from the source down, each with dist as its bound. order is
// LevelOrder(c).
func (w *Workspace) FromCarriers(c *circuit.Circuit, order []circuit.NetID, mask []bool, dist []waveform.Time, sink circuit.NetID) Dominators {
	if !mask[sink] {
		return Dominators{}
	}
	// Filtering the level order by the mask orders Ψ′ topologically:
	// the sink first and every edge y→x forward.
	verts := w.verts[:0]
	for _, n := range order {
		if mask[n] {
			verts = append(verts, n)
		}
	}
	w.verts = verts
	if verts[0] != sink {
		// The sink must be the unique source of Ψ′; carriers outside
		// its fan-in cone would violate the construction.
		return Dominators{}
	}
	const unset = -1
	ord := slices.Grow(w.ord[:0], c.NumNets())[:c.NumNets()]
	w.ord = ord
	for i, v := range verts {
		ord[v] = int32(i)
	}
	nT := len(verts) // T's position
	idom := slices.Grow(w.idom[:0], nT+1)[:nT+1]
	w.idom = idom
	for i := range idom {
		idom[i] = unset
	}
	idom[0] = 0 // source's idom is itself

	// Predecessors in Ψ′ of a carrier net x: the carrier outputs of the
	// gates x feeds.
	for i := 1; i < nT; i++ {
		best := int32(unset)
		for _, g := range c.Net(verts[i]).Fanout {
			y := c.Gate(g).Output
			if !mask[y] {
				continue
			}
			p := ord[y]
			if idom[p] == unset && p != 0 {
				continue // unreachable from the source; skip
			}
			if best == unset {
				best = p
			} else {
				best = intersect(idom, best, p)
			}
		}
		idom[i] = best
	}
	// Predecessors of T: carriers with no carrier gate-input (primary
	// inputs of Ψ and conservative dead ends).
	tPreds := w.tPreds[:0]
	for i, x := range verts {
		hasCarrierInput := false
		if d := c.Net(x).Driver; d != circuit.InvalidGate {
			for _, in := range c.Gate(d).Inputs {
				if mask[in] {
					hasCarrierInput = true
					break
				}
			}
		}
		if !hasCarrierInput && (i == 0 || idom[i] != unset) {
			tPreds = append(tPreds, int32(i))
		}
	}
	w.tPreds = tPreds
	if len(tPreds) == 0 {
		return Dominators{}
	}
	best := tPreds[0]
	for _, p := range tPreds[1:] {
		best = intersect(idom, best, p)
	}
	idom[nT] = best

	// Walk T's idom chain up to the source, then reverse to source-first
	// order.
	nets, dists := w.nets[:0], w.dists[:0]
	for v := idom[nT]; ; v = idom[v] {
		nets = append(nets, verts[v])
		if v == 0 {
			break
		}
	}
	slices.Reverse(nets)
	for _, n := range nets {
		dists = append(dists, dist[n])
	}
	w.nets, w.dists = nets, dists
	return Dominators{Nets: nets, Dist: dists}
}

// intersect is the Cooper–Harvey–Kennedy two-finger walk: the nearest
// common dominator of verts positions a and b, positions being a
// topological order so idom always points backwards.
func intersect(idom []int32, a, b int32) int32 {
	for a != b {
		for a > b {
			a = idom[a]
		}
		for b > a {
			b = idom[b]
		}
	}
	return a
}

// Static computes the static timing dominators of the check
// (c, sink, δ) with the Lemma-3 distance bound top_{d→s}.
func Static(c *circuit.Circuit, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) Dominators {
	return new(Workspace).Static(c, LevelOrder(c), a, sink, delta)
}

// Static is the package-level Static on the workspace. order is
// LevelOrder(c).
func (w *Workspace) Static(c *circuit.Circuit, order []circuit.NetID, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) Dominators {
	return w.FromCarriers(c, order, delay.StaticCarrierMask(c, a, sink, delta), delay.ToNet(c, sink), sink)
}

// StaticCarriers exposes the static carrier mask (Definition 4) for
// reports and tests.
func StaticCarriers(c *circuit.Circuit, a *delay.Analysis, sink circuit.NetID, delta waveform.Time) []bool {
	return delay.StaticCarrierMask(c, a, sink, delta)
}

// DynamicCarriers is Workspace.DynamicCarriers into fresh slices the
// caller owns.
func DynamicCarriers(sys *constraint.System, sink circuit.NetID, delta waveform.Time) (mask []bool, dist []waveform.Time) {
	return new(Workspace).DynamicCarriers(sys, sink, delta)
}

// Dynamic computes the dynamic timing dominators of the check under the
// system's current domains, with the Theorem-3 distance bound (the
// dynamic distance): DynamicCarriers then FromCarriers on a fresh
// workspace, so the caller owns the result.
func Dynamic(sys *constraint.System, sink circuit.NetID, delta waveform.Time) Dominators {
	w := new(Workspace)
	mask, dist := w.DynamicCarriers(sys, sink, delta)
	return w.FromCarriers(sys.Circuit(), LevelOrder(sys.Circuit()), mask, dist, sink)
}

// FromCarriers is Workspace.FromCarriers on a fresh workspace: a
// one-off call that owns its result.
func FromCarriers(c *circuit.Circuit, mask []bool, dist []waveform.Time, sink circuit.NetID) Dominators {
	return new(Workspace).FromCarriers(c, LevelOrder(c), mask, dist, sink)
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
