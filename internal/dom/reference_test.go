package dom

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// refFromCarriers is the FromCarriers the cut sweep replaced, kept as a
// reference: the Cooper–Harvey–Kennedy dominator tree of Ψ′ built in
// one pass over its topological order (idom of each carrier is the
// two-finger intersection of its reached predecessors), then the idom
// chain of T walked up to the source and reversed.
func refFromCarriers(c *circuit.Circuit, mask []bool, dist []waveform.Time, sink circuit.NetID) Dominators {
	if !mask[sink] {
		return Dominators{}
	}
	var verts []circuit.NetID
	for _, n := range LevelOrder(c) {
		if mask[n] {
			verts = append(verts, n)
		}
	}
	if verts[0] != sink {
		return Dominators{}
	}
	const unset = -1
	ord := make([]int32, c.NumNets())
	for i, v := range verts {
		ord[v] = int32(i)
	}
	nT := len(verts)
	idom := make([]int32, nT+1)
	for i := range idom {
		idom[i] = unset
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
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
	l := c.Layout()
	for i := 1; i < nT; i++ {
		best := int32(unset)
		for _, g := range l.Fanout(verts[i]) {
			y := l.Out[g]
			if !mask[y] {
				continue
			}
			p := ord[y]
			if idom[p] == unset && p != 0 {
				continue
			}
			if best == unset {
				best = p
			} else {
				best = intersect(best, p)
			}
		}
		idom[i] = best
	}
	var tPreds []int32
	for i, x := range verts {
		hasCarrierInput := false
		if d := l.Driver(x); d != circuit.InvalidGate {
			for _, in := range l.Inputs(d) {
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
	if len(tPreds) == 0 {
		return Dominators{}
	}
	best := tPreds[0]
	for _, p := range tPreds[1:] {
		best = intersect(best, p)
	}
	idom[nT] = best
	var d Dominators
	for v := idom[nT]; ; v = idom[v] {
		d.Nets = append(d.Nets, verts[v])
		if v == 0 {
			break
		}
	}
	slices.Reverse(d.Nets)
	for _, n := range d.Nets {
		d.Dist = append(d.Dist, dist[n])
	}
	return d
}

// refDominators is the brute-force oracle for FromCarriers: build Ψ′
// explicitly (edges from each carrier gate output to its carrier
// inputs, carriers without a carrier input feeding T) and call a net a
// dominator when deleting it disconnects the sink from T. The chain is
// returned source first, i.e. in level order.
func refDominators(c *circuit.Circuit, mask []bool, dist []waveform.Time, sink circuit.NetID) Dominators {
	if !mask[sink] {
		return Dominators{}
	}
	for n := range mask {
		id := circuit.NetID(n)
		if mask[n] && id != sink && (c.Level(id) > c.Level(sink) || (c.Level(id) == c.Level(sink) && id < sink)) {
			return Dominators{} // the sink is not Ψ′'s source
		}
	}
	reachesT := func(skip circuit.NetID) bool {
		if skip == sink {
			return false
		}
		seen := make([]bool, len(mask))
		stack := []circuit.NetID{sink}
		seen[sink] = true
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			leaf := true
			if d := c.Net(y).Driver; d != circuit.InvalidGate {
				for _, x := range c.Gate(d).Inputs {
					if !mask[x] {
						continue
					}
					leaf = false
					if x != skip && !seen[x] {
						seen[x] = true
						stack = append(stack, x)
					}
				}
			}
			if leaf {
				return true
			}
		}
		return false
	}
	if !reachesT(circuit.InvalidNet) {
		return Dominators{}
	}
	var d Dominators
	for _, n := range LevelOrder(c) {
		if mask[n] && !reachesT(n) {
			d.Nets = append(d.Nets, n)
			d.Dist = append(d.Dist, dist[n])
		}
	}
	return d
}

// checkFromCarriers runs the workspace's FromCarriers on one mask and
// requires the result to equal both references, and the workspace's
// cut counters to be back at zero. It reports the dominator count.
func checkFromCarriers(t *testing.T, w *Workspace, c *circuit.Circuit, lv *Levels, mask []bool, dist []waveform.Time, sink circuit.NetID, what string) int {
	t.Helper()
	got := w.FromCarriers(c, lv, mask, dist, sink)
	if ref := refFromCarriers(c, mask, dist, sink); !sameDominators(got, ref) {
		t.Fatalf("%s: dominators %v %v, Cooper–Harvey–Kennedy %v %v", what, got.Nets, got.Dist, ref.Nets, ref.Dist)
	}
	if ref := refDominators(c, mask, dist, sink); !sameDominators(got, ref) {
		t.Fatalf("%s: dominators %v %v, brute force %v %v", what, got.Nets, got.Dist, ref.Nets, ref.Dist)
	}
	for n, k := range w.in {
		if k != 0 {
			t.Fatalf("%s: cut counter of net %d left at %d", what, n, k)
		}
	}
	return len(got.Nets)
}

// randomMask draws a carrier mask: the sink, and each net of its fan-in
// cone with probability p — or, with outside set, of the whole circuit,
// so some masks put a carrier before the sink. Distances are random.
func randomMask(r *rand.Rand, c *circuit.Circuit, sink circuit.NetID, p float64, outside bool) ([]bool, []waveform.Time) {
	fanin := c.TransitiveFanin(sink)
	mask := make([]bool, c.NumNets())
	dist := make([]waveform.Time, c.NumNets())
	for n := range mask {
		mask[n] = (outside || fanin[n]) && r.Float64() < p
		dist[n] = waveform.Time(r.Intn(100))
	}
	mask[sink] = true
	return mask, dist
}

// TestFromCarriersMatchesReference compares the cut sweep with the
// Cooper–Harvey–Kennedy reference and the brute-force oracle on the
// static and dynamic carrier masks of the substitute suite's deepest
// outputs and on random masks over gen.Random circuits, through one
// workspace reused across circuits of every size.
func TestFromCarriersMatchesReference(t *testing.T) {
	var w Workspace
	doms := 0
	for _, e := range gen.SubstituteSuite() {
		if testing.Short() && e.Circuit.NumNets() > 1500 {
			continue
		}
		c := e.Circuit
		lv, a := NewLevels(c), delay.New(c)
		sinks := []circuit.NetID{deepestOutput(c), c.PrimaryOutputs()[0]}
		for _, sink := range sinks {
			top := a.Arrival(sink)
			for _, delta := range []waveform.Time{top, top.Sub(top / 8), top / 2} {
				what := e.Name + " static"
				doms += checkFromCarriers(t, &w, c, lv, delay.StaticCarrierMask(c, a, sink, delta), delay.ToNet(c, sink), sink, what)
				sys := constraint.New(c)
				sys.Narrow(sink, waveform.CheckOutput(delta))
				sys.ScheduleAll()
				if !sys.Fixpoint() {
					continue
				}
				mask, dist := DynamicCarriers(sys, sink, delta)
				doms += checkFromCarriers(t, &w, c, lv, mask, dist, sink, e.Name+" dynamic")
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 40; seed++ {
		c := gen.Random(seed, 3+int(seed%5), 20+5*int(seed), 10)
		lv := NewLevels(c)
		for k := 0; k < 25; k++ {
			sink := circuit.NetID(r.Intn(c.NumNets()))
			mask, dist := randomMask(r, c, sink, []float64{0.3, 0.6, 0.9, 1}[k%4], k%5 == 0)
			doms += checkFromCarriers(t, &w, c, lv, mask, dist, sink, c.Name+" random")
		}
	}
	if doms < 1000 {
		t.Fatalf("only %d dominators compared", doms)
	}
}

// FuzzFromCarriers drives the same comparison from fuzz input: a
// gen.Random circuit, a sink and a mask over its fan-in cone (or the
// whole circuit) drawn from the bytes.
func FuzzFromCarriers(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for range 8 {
		seed := make([]byte, 24)
		r.Read(seed)
		f.Add(seed)
	}
	var w Workspace
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		c := gen.Random(int64(data[0]), 2+int(data[1]%6), 5+int(data[2]%60), 10)
		sink := circuit.NetID(int(data[3]) % c.NumNets())
		fanin := c.TransitiveFanin(sink)
		outside := data[3]&0x80 != 0
		bits := data[4:]
		mask := make([]bool, c.NumNets())
		dist := make([]waveform.Time, c.NumNets())
		for n := range mask {
			if n/8 < len(bits) {
				mask[n] = (outside || fanin[n]) && bits[n/8]&(1<<(n%8)) != 0
			} else {
				mask[n] = fanin[n] // past the input: the whole cone
			}
			dist[n] = waveform.Time(n)
		}
		mask[sink] = true
		checkFromCarriers(t, &w, c, NewLevels(c), mask, dist, sink, "fuzz")
	})
}
