package constraint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// This file pins the scheduler's self-requeue rule (DESIGN.md §17,
// rule 1) on single gates: an application of an AND/NAND/OR/NOR/NOT/
// BUFFER/DELAY gate that narrowed only its output — or, on a 1-input
// gate, any of its nets — leaves the gate stable, so it is not
// re-queued and an immediate second application narrows nothing. An
// application that narrowed an input of a wider gate re-queues it, and
// a parity gate is re-queued by every narrowing it makes.

// checkSelfRequeue builds one gate from draw — its type, fan-in 1–4
// over 1–4 input nets (repeats allowed), delay 0–3, and every net's
// domain with ±∞ bounds and empty classes — applies it once to an
// empty worklist, and checks the rule.
func checkSelfRequeue(t testing.TB, draw func(n int) int) {
	t.Helper()
	gt := circuit.GateType(draw(int(circuit.XNOR) + 1))
	k := 1
	if !gt.Unate() {
		k = 1 + draw(4)
	}
	d := int64(draw(4))
	nIn := 1 + draw(k)
	b := circuit.NewBuilder("self")
	for i := 0; i < nIn; i++ {
		b.Input(fmt.Sprintf("i%d", i))
	}
	pins := make([]string, k)
	for j := range pins {
		pins[j] = fmt.Sprintf("i%d", draw(nIn))
	}
	b.Gate(gt, d, "o", pins...)
	b.Output("o")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	for n := 0; n < c.NumNets(); n++ {
		s.storeSig(circuit.NetID(n), waveform.Signal{W0: drawWave(draw), W1: drawWave(draw)})
	}
	before := s.Snapshot(nil)
	var narrowed []circuit.NetID
	s.SetTraceFunc(func(n circuit.NetID, _, _ waveform.Signal) { narrowed = append(narrowed, n) })
	s.applyGate(0)

	out := c.Gate(0).Output
	inNarrowed := slices.ContainsFunc(narrowed, func(n circuit.NetID) bool { return n != out })
	desc := func() string {
		var doms []waveform.Signal
		for n := range c.NumNets() {
			doms = append(doms, sigAt(before, circuit.NetID(n)))
		}
		return fmt.Sprintf("%s/%d d=%d pins %v, domains (inputs…, output) %v, narrowed %v",
			gt, k, d, pins, doms, narrowed)
	}
	switch queued := s.inQueue[0]; {
	case gt == circuit.XOR || gt == circuit.XNOR:
		if queued != (len(narrowed) > 0) {
			t.Fatalf("%s: parity gate queued=%v after its own application", desc(), queued)
		}
		return
	case k > 1 && inNarrowed:
		if !queued {
			t.Fatalf("%s: an input narrowed, but the gate was not re-queued", desc())
		}
		return
	case queued:
		t.Fatalf("%s: the gate re-queued itself", desc())
	}
	first := narrowed
	narrowed = nil
	s.applyGate(0)
	if len(narrowed) > 0 {
		t.Fatalf("%s: a second application narrowed %v after the first narrowed %v", desc(), narrowed, first)
	}
}

// drawWave returns the full or empty wave, or one with bounds in
// {-∞, 0…12, +∞}.
func drawWave(draw func(n int) int) waveform.Wave {
	bound := func() waveform.Time {
		switch v := draw(15); v {
		case 13:
			return waveform.NegInf
		case 14:
			return waveform.PosInf
		default:
			return waveform.Time(v)
		}
	}
	switch draw(6) {
	case 0:
		return waveform.Full
	case 1:
		return waveform.Empty
	}
	return waveform.Wave{Lmin: bound(), Lmax: bound()}.Canon()
}

// sigAt reads net n's signal from a snapshot.
func sigAt(snap []int64, n circuit.NetID) waveform.Signal {
	b := lanes * int(n)
	return waveform.Signal{
		W0: waveform.Wave{Lmin: waveform.Time(snap[b]), Lmax: waveform.Time(snap[b+1])},
		W1: waveform.Wave{Lmin: waveform.Time(snap[b+2]), Lmax: waveform.Time(snap[b+3])},
	}
}

func TestSelfRequeueIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := 200000
	if testing.Short() {
		cases = 20000
	}
	for range cases {
		checkSelfRequeue(t, r.Intn)
	}
}

// FuzzSelfRequeueIdempotent is TestSelfRequeueIdempotent on fuzzed
// gates and domains: every draw takes the input's next byte, 0 past
// its end.
func FuzzSelfRequeueIdempotent(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for range 8 {
		seed := make([]byte, 48)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSelfRequeue(t, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		})
	})
}
