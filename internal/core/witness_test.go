package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/waveform"
)

func TestWitnessPathHrapcenko(t *testing.T) {
	c := gen.Hrapcenko(10)
	s, _ := c.NetByName("s")
	v := NewVerifier(c, Default())
	rep := v.Run(context.Background(), Request{Sink: s, Delta: 60})
	if rep.Final != ViolationFound {
		t.Fatal("need a witness")
	}
	path, err := v.WitnessPath(s, rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || path[len(path)-1] != s {
		t.Fatal("path must end at the sink")
	}
	if !c.Net(path[0]).IsPI {
		t.Fatalf("path must start at a PI, starts at %s", c.Net(path[0]).Name)
	}
	// Settle times must be non-decreasing along the path and end at the
	// witnessed settle time.
	r, _ := sim.Run(c, rep.Witness)
	prev := waveform.NegInf
	for _, n := range path {
		if r.Settle[n] < prev {
			t.Fatalf("settle times decrease along the path at %s", c.Net(n).Name)
		}
		prev = r.Settle[n]
	}
	if r.Settle[s] != rep.WitnessSettle || prev != rep.WitnessSettle {
		t.Fatal("path must realise the witnessed settle time")
	}
	// On the Hrapcenko witness, the path length (in gates) is 6, not 7:
	// the 7-gate topological path is false.
	if len(path)-1 == 7 {
		t.Fatal("witness path must not be the false 7-gate path")
	}
}

// TestWitnessSurvivesSerialization covers the serving path: a witness
// found by a cone-sliced check, serialised as JSON (the way lttad
// ships reports) and decoded back, must still certify the violation on
// the original circuit.
func TestWitnessSurvivesSerialization(t *testing.T) {
	for _, c := range []*circuit.Circuit{gen.Hrapcenko(10), gen.CarrySkipAdder(8, 4, 10)} {
		v := NewVerifier(c, Default()) // cone slicing on
		for _, po := range c.PrimaryOutputs() {
			res, err := v.ExactFloatingDelayCtx(context.Background(), po, Request{})
			if err != nil || !res.Exact || res.Delay < 0 {
				continue
			}
			rep := v.Run(context.Background(), Request{Sink: po, Delta: res.Delay})
			if rep.Final != ViolationFound {
				t.Fatalf("%s (%s, %s): expected a violation at the exact delay, got %s",
					c.Name, c.Net(po).Name, res.Delay, rep.Final)
			}
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(body, &back); err != nil {
				t.Fatal(err)
			}
			r, err := sim.Run(c, back.Witness)
			if err != nil {
				t.Fatalf("decoded witness does not simulate: %v", err)
			}
			if !r.Violates(back.Sink, back.Delta) {
				t.Fatalf("%s (%s, %s): decoded witness settles at %s, does not violate",
					c.Name, c.Net(po).Name, back.Delta, r.Settle[back.Sink])
			}
			if r.Settle[back.Sink] != back.WitnessSettle {
				t.Fatalf("decoded settle %s != report settle %s", r.Settle[back.Sink], back.WitnessSettle)
			}
		}
	}
}

func TestWitnessPathStructure(t *testing.T) {
	// Path edges must be real gate connections, on several circuits.
	for _, c := range []*circuit.Circuit{gen.C17(10), gen.CarrySkipAdder(6, 3, 10)} {
		v := NewVerifier(c, Default())
		for _, po := range c.PrimaryOutputs() {
			res, err := v.ExactFloatingDelayCtx(context.Background(), po, Request{})
			if err != nil || !res.Exact {
				t.Fatalf("exact delay: %v %+v", err, res)
			}
			if res.Delay < 0 {
				continue
			}
			path, err := v.WitnessPath(po, res.Witness)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(path); i++ {
				g := c.Gate(c.Net(path[i]).Driver)
				ok := false
				for _, in := range g.Inputs {
					if in == path[i-1] {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("path edge %d not a gate connection", i)
				}
			}
		}
	}
}
