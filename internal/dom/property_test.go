package dom

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/delay"
	"repro/internal/oracle"
	"repro/internal/waveform"
)

func randomCircuit(t testing.TB, seed int64, nPI, nGates int) *circuit.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("rand")
	var nets []string
	for i := 0; i < nPI; i++ {
		n := "i" + string(rune('0'+i))
		b.Input(n)
		nets = append(nets, n)
	}
	types := []circuit.GateType{
		circuit.AND, circuit.NAND, circuit.OR, circuit.NOR,
		circuit.NOT, circuit.BUFFER, circuit.XOR, circuit.XNOR,
	}
	for i := 0; i < nGates; i++ {
		gt := types[r.Intn(len(types))]
		name := "g" + string(rune('a'+i/26)) + string(rune('a'+i%26))
		nin := 1
		if !gt.Unate() {
			nin = 2 + r.Intn(2)
		}
		ins := make([]string, nin)
		for j := range ins {
			k := len(nets) - 1 - r.Intn(min(len(nets), 5))
			ins[j] = nets[k]
		}
		b.Gate(gt, int64(1+r.Intn(4)), name, ins...)
		nets = append(nets, name)
	}
	b.Output(nets[len(nets)-1])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestStaticDominatorsOnEveryLongPath is the defining property of
// Definition 6, validated against an independent path enumerator: every
// structural path of length ≥ δ ending at the sink must contain every
// static timing dominator.
func TestStaticDominatorsOnEveryLongPath(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		c := randomCircuit(t, seed, 4, 14)
		sink := c.PrimaryOutputs()[0]
		a := delay.New(c)
		top := a.Arrival(sink)
		if top <= 2 {
			continue
		}
		for _, delta := range []waveform.Time{top, top.Sub(1), top / 2} {
			if delta <= 0 {
				continue
			}
			doms := Static(c, a, sink, delta)
			paths := oracle.KLongestPaths(c, sink, 200)
			for _, p := range paths {
				if p.Length < delta {
					continue
				}
				onPath := map[circuit.NetID]bool{}
				for _, n := range p.Nets {
					onPath[n] = true
				}
				for _, d := range doms.Nets {
					if !onPath[d] {
						t.Fatalf("seed %d δ=%s: dominator %s missing from long path %v (len %s)",
							seed, delta, c.Net(d).Name, oracle.PathNames(c, p), p.Length)
					}
				}
			}
			// And the distances must bound the path suffixes: for every
			// long path, the delay from the dominator to the sink along
			// the path is ≤ the reported distance.
			for _, p := range paths {
				if p.Length < delta {
					continue
				}
				for di, d := range doms.Nets {
					suffix := waveform.Time(0)
					seen := false
					for i := 1; i < len(p.Nets); i++ {
						g := c.Gate(c.Net(p.Nets[i]).Driver)
						if p.Nets[i-1] == d {
							seen = true
						}
						if seen {
							suffix = suffix.Add(waveform.Time(g.Delay))
						}
					}
					if d == p.Nets[len(p.Nets)-1] {
						seen, suffix = true, 0
					}
					if seen && suffix > doms.Dist[di] {
						t.Fatalf("seed %d: dominator %s distance %s below path suffix %s",
							seed, c.Net(d).Name, doms.Dist[di], suffix)
					}
				}
			}
		}
	}
}

// TestDynamicCarriersSubsetOfStatic: after the plain fixpoint the
// dynamic carriers are contained in the static carriers (the domains
// only shrink below the structural bounds).
func TestDynamicCarriersSubsetOfStatic(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		c := randomCircuit(t, seed, 4, 14)
		sink := c.PrimaryOutputs()[0]
		a := delay.New(c)
		top := a.Arrival(sink)
		if top <= 2 {
			continue
		}
		delta := top.Sub(1)
		sys := constraint.New(c)
		sys.Narrow(sink, waveform.CheckOutput(delta))
		sys.ScheduleAll()
		if !sys.Fixpoint() {
			continue
		}
		static := delay.StaticCarrierMask(c, a, sink, delta)
		dynamic, _ := DynamicCarriers(sys, sink, delta)
		for n := 0; n < c.NumNets(); n++ {
			if dynamic[n] && !static[n] {
				t.Fatalf("seed %d: net %s dynamic carrier but not static",
					seed, c.Net(circuit.NetID(n)).Name)
			}
		}
	}
}

// TestDynamicDominatorsIncludeStatic: the dynamic-carrier circuit is a
// subgraph of the static one, so every static dominator remains on all
// dynamic paths — the dynamic dominator set can only grow.
func TestDynamicDominatorsIncludeStatic(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		c := randomCircuit(t, seed, 4, 12)
		sink := c.PrimaryOutputs()[0]
		a := delay.New(c)
		top := a.Arrival(sink)
		if top <= 2 {
			continue
		}
		delta := top
		sys := constraint.New(c)
		sys.Narrow(sink, waveform.CheckOutput(delta))
		sys.ScheduleAll()
		if !sys.Fixpoint() {
			continue
		}
		staticD := Static(c, a, sink, delta)
		dynD := Dynamic(sys, sink, delta)
		dyn := map[circuit.NetID]bool{}
		for _, n := range dynD.Nets {
			dyn[n] = true
		}
		for _, n := range staticD.Nets {
			if !dyn[n] {
				t.Fatalf("seed %d: static dominator %s not in dynamic set", seed, c.Net(n).Name)
			}
		}
	}
}
