// Package delay computes the purely structural timing quantities of
// the paper: path lengths as sums of gate d_max delays, the topological
// delay of nets and of the whole circuit (top, top_n, top_n1→n2), and a
// classical static-timing-analysis baseline (arrival/required/slack),
// which is the conservative comparator the paper argues against.
package delay

import (
	"repro/internal/circuit"
	"repro/internal/waveform"
)

// Analysis holds structural timing data for one circuit.
type Analysis struct {
	c *circuit.Circuit
	// arrival[n] = top_n: length of the longest path from any primary
	// input to net n (0 for PIs).
	arrival []waveform.Time
}

// New computes the topological arrival times of every net.
func New(c *circuit.Circuit) *Analysis {
	a := &Analysis{c: c, arrival: make([]waveform.Time, c.NumNets())}
	l := c.Layout()
	for _, g := range c.TopoGates() {
		worst := waveform.Time(0)
		for _, in := range l.Inputs(g) {
			if a.arrival[in] > worst {
				worst = a.arrival[in]
			}
		}
		t := worst.Add(waveform.Time(l.Delay[g]))
		if out := l.Out[g]; t > a.arrival[out] {
			a.arrival[out] = t
		}
	}
	return a
}

// Arrival returns top_n — the longest-path delay from the primary
// inputs to net n.
func (a *Analysis) Arrival(n circuit.NetID) waveform.Time { return a.arrival[n] }

// Topological returns top — the longest-path delay of the circuit
// (maximum arrival over the primary outputs).
func (a *Analysis) Topological() waveform.Time {
	worst := waveform.Time(0)
	for _, po := range a.c.PrimaryOutputs() {
		if a.arrival[po] > worst {
			worst = a.arrival[po]
		}
	}
	return worst
}

// ToNet computes top_n1→n2 for a fixed sink: the length of the longest
// path from every net to the given sink net. Nets with no path to sink
// get NegInf. The sink itself is at 0.
func ToNet(c *circuit.Circuit, sink circuit.NetID) []waveform.Time {
	dist := make([]waveform.Time, c.NumNets())
	for i := range dist {
		dist[i] = waveform.NegInf
	}
	dist[sink] = 0
	l := c.Layout()
	topo := c.TopoGates()
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		d := dist[l.Out[g]]
		if d == waveform.NegInf {
			continue
		}
		t := d.Add(waveform.Time(l.Delay[g]))
		for _, in := range l.Inputs(g) {
			if t > dist[in] {
				dist[in] = t
			}
		}
	}
	return dist
}

// STA is a classical static timing report for one circuit against a
// required time (clock period): per-output arrival, slack, and the
// critical path.
type STA struct {
	Required waveform.Time
	// Arrival per primary output, in PO declaration order.
	OutputArrival []waveform.Time
	// Slack per primary output (Required − Arrival).
	OutputSlack []waveform.Time
	// WorstOutput is the index (into PrimaryOutputs) of the output with
	// the least slack.
	WorstOutput int
	// CriticalPath is a topological critical path, as net ids from a
	// primary input to the worst output.
	CriticalPath []circuit.NetID
}

// Run computes the STA baseline for the circuit under the given
// required time.
func Run(c *circuit.Circuit, required waveform.Time) *STA {
	a := New(c)
	s := &STA{Required: required}
	worst := waveform.NegInf
	for i, po := range c.PrimaryOutputs() {
		arr := a.Arrival(po)
		s.OutputArrival = append(s.OutputArrival, arr)
		s.OutputSlack = append(s.OutputSlack, required.Sub(arr))
		if arr > worst {
			worst = arr
			s.WorstOutput = i
		}
	}
	// Trace one critical path backwards from the worst output: at each
	// driven net pick an input whose arrival plus the gate delay equals
	// the net's arrival.
	n := c.PrimaryOutputs()[s.WorstOutput]
	path := []circuit.NetID{n}
	for {
		d := c.Net(n).Driver
		if d == circuit.InvalidGate {
			break
		}
		g := c.Gate(d)
		var pick circuit.NetID = circuit.InvalidNet
		for _, in := range g.Inputs {
			if a.Arrival(in).Add(waveform.Time(g.Delay)) == a.Arrival(n) {
				pick = in
				break
			}
		}
		if pick == circuit.InvalidNet {
			// Defensive: arrival bookkeeping guarantees a justifying
			// input exists; fall back to the slowest input.
			pick = g.Inputs[0]
			for _, in := range g.Inputs {
				if a.Arrival(in) > a.Arrival(pick) {
					pick = in
				}
			}
		}
		path = append(path, pick)
		n = pick
	}
	// Reverse to PI→PO order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	s.CriticalPath = path
	return s
}

// StaticCarrierMask returns, for the timing check (c, sink, δ), the set
// of static carriers (Definition 4): nets x lying on a path through the
// sink of length ≥ δ, i.e. top_x + top_x→sink ≥ δ. The result is a
// boolean slice indexed by NetID.
func StaticCarrierMask(c *circuit.Circuit, a *Analysis, sink circuit.NetID, delta waveform.Time) []bool {
	toSink := ToNet(c, sink)
	mask := make([]bool, c.NumNets())
	for i := range mask {
		if toSink[i] == waveform.NegInf {
			continue
		}
		if a.Arrival(circuit.NetID(i)).Add(toSink[i]) >= delta {
			mask[i] = true
		}
	}
	return mask
}
