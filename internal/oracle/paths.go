package oracle

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/waveform"
)

// Path is one structural path from a primary input to a sink net, with
// its length (sum of gate d_max along it).
type Path struct {
	Nets   []circuit.NetID
	Length waveform.Time
}

// KLongestPaths enumerates up to k longest structural paths ending at
// sink, longest first. This is the path-oriented view the paper argues
// is too expensive to enumerate exhaustively — bounded here by k, it
// lets a test ask which paths a path-based verifier would have to
// refute. Ties are broken deterministically by net id.
func KLongestPaths(c *circuit.Circuit, sink circuit.NetID, k int) []Path {
	if k <= 0 {
		return nil
	}
	// Longest distance from every net to the sink, for A*-style
	// ordering of partial paths.
	toSink := delay.ToNet(c, sink)

	// Partial path: built backwards from the sink towards the inputs.
	type partial struct {
		net    circuit.NetID // current frontier (towards inputs)
		suffix []circuit.NetID
		sofar  waveform.Time // length of suffix edges
		potent waveform.Time // sofar + best completion from net
	}
	var heap []partial
	push := func(p partial) { heap = append(heap, p) }
	pop := func() partial {
		best := 0
		for i := range heap {
			if heap[i].potent > heap[best].potent ||
				(heap[i].potent == heap[best].potent && heap[i].net < heap[best].net) {
				best = i
			}
		}
		p := heap[best]
		heap[best] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		return p
	}

	a := delay.New(c)
	push(partial{net: sink, suffix: []circuit.NetID{sink}, sofar: 0, potent: a.Arrival(sink)})
	var out []Path
	for len(heap) > 0 && len(out) < k {
		p := pop()
		drv := c.Net(p.net).Driver
		if drv == circuit.InvalidGate {
			// Complete path; reverse the suffix to PI→sink order.
			nets := make([]circuit.NetID, len(p.suffix))
			for i := range nets {
				nets[i] = p.suffix[len(p.suffix)-1-i]
			}
			out = append(out, Path{Nets: nets, Length: p.sofar})
			continue
		}
		g := c.Gate(drv)
		d := waveform.Time(g.Delay)
		for _, in := range g.Inputs {
			if toSink[in] == waveform.NegInf {
				continue
			}
			suffix := append(append([]circuit.NetID(nil), p.suffix...), in)
			push(partial{
				net:    in,
				suffix: suffix,
				sofar:  p.sofar.Add(d),
				potent: p.sofar.Add(d).Add(a.Arrival(in)),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Length > out[j].Length })
	return out
}

// PathNames renders a path as net names.
func PathNames(c *circuit.Circuit, p Path) []string {
	names := make([]string, len(p.Nets))
	for i, n := range p.Nets {
		names[i] = c.Net(n).Name
	}
	return names
}
