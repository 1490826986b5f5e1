package constraint

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// This file validates the per-gate projection rules in isolation: for a
// single gate with random input/output domains, every concrete
// floating-mode scenario — a choice of settling class and
// last-transition time per input — induces an output class and a SET of
// possible output last-transition times under the X-pessimistic model:
//
//	L_out ∈ { d + min(min over ctrl-final inputs L_i, max over all L_i) }   (deterministic)
//
// (parity gates: d + max when a unique input dominates, any value up to
// d + max otherwise — we test with the deterministic upper envelope and
// the "can cancel" lower cases explicitly). After running the gate
// constraint to fixpoint, every scenario consistent with the ORIGINAL
// domains and the output requirement must still be contained in the
// NARROWED domains. This is the local soundness obligation that the
// system-level tests rely on.

// concreteTimes is the sample universe of last-transition times.
var concreteTimes = []waveform.Time{waveform.NegInf, -1, 0, 1, 2, 3, 4, 5, 6}

// scenOut computes the output (class, L) of a gate for fixed input
// classes/times under the X-pessimistic floating model, where L is
// DETERMINISTIC: the output stays unknown exactly while no
// controlling-final input has settled and not all inputs have settled,
// so L_out = d + min(min over ctrl-final inputs L_i, max over all L_i)
// — the same recursion as sim.Run, proven equal to the concrete
// three-valued unrolled simulation in internal/oracle.
func scenOut(gt circuit.GateType, d waveform.Time, vals []int, ls []waveform.Time) (int, waveform.Time) {
	outV := gt.Eval(vals)
	minCtrl := waveform.PosInf
	maxAll := waveform.NegInf
	ctrl, hasCtrl := gt.HasControlling()
	for i, l := range ls {
		if l > maxAll {
			maxAll = l
		}
		if hasCtrl && vals[i] == ctrl && l < minCtrl {
			minCtrl = l
		}
	}
	lo := maxAll
	if minCtrl < lo {
		lo = minCtrl
	}
	return outV, lo.Add(d)
}

func randomDomain(r *rand.Rand) waveform.Signal {
	w := func() waveform.Wave {
		pick := func() waveform.Time {
			switch r.Intn(5) {
			case 0:
				return waveform.NegInf
			case 1:
				return waveform.PosInf
			default:
				return waveform.Time(r.Intn(9) - 2)
			}
		}
		return waveform.Wave{Lmin: pick(), Lmax: pick()}.Canon()
	}
	s := waveform.Signal{W0: w(), W1: w()}
	if s.IsEmpty() {
		return waveform.FullSignal
	}
	return s
}

func TestGateProjectionSoundness(t *testing.T) {
	types := []struct {
		gt circuit.GateType
		k  int
	}{
		{circuit.AND, 2}, {circuit.NAND, 2}, {circuit.OR, 2}, {circuit.NOR, 2},
		{circuit.AND, 3}, {circuit.NOR, 3},
		{circuit.XOR, 2}, {circuit.XNOR, 2}, {circuit.XOR, 3},
		{circuit.NOT, 1}, {circuit.BUFFER, 1},
	}
	r := rand.New(rand.NewSource(99))
	for _, tc := range types {
		for trial := 0; trial < 400; trial++ {
			d := waveform.Time(r.Intn(3))
			// Build a one-gate circuit.
			b := circuit.NewBuilder("g")
			names := make([]string, tc.k)
			for i := range names {
				names[i] = string(rune('a' + i))
				b.Input(names[i])
			}
			b.Gate(tc.gt, int64(d), "z", names...)
			b.Output("z")
			c, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			sys := New(c)
			inIDs := make([]circuit.NetID, tc.k)
			orig := make([]waveform.Signal, tc.k)
			for i, n := range names {
				id, _ := c.NetByName(n)
				inIDs[i] = id
				orig[i] = randomDomain(r)
				sys.storeSig(id, orig[i])
			}
			z, _ := c.NetByName("z")
			origOut := randomDomain(r)
			sys.storeSig(z, origOut)
			sys.ScheduleAll()
			sys.Fixpoint()

			// Enumerate scenarios against the ORIGINAL domains.
			vals := make([]int, tc.k)
			ls := make([]waveform.Time, tc.k)
			var rec func(i int)
			rec = func(i int) {
				if t.Failed() {
					return
				}
				if i == tc.k {
					outV, lo := scenOut(tc.gt, d, vals, ls)
					if !origOut.Wave(outV).Contains(lo) {
						return // scenario violates the output requirement
					}
					// Consistent scenario: must survive narrowing.
					for j := range vals {
						if !sys.wave(inIDs[j], vals[j]).Contains(ls[j]) {
							t.Errorf("%s/%d d=%s: scenario vals=%v ls=%v outL=%s lost input %d\n  orig in=%v out=%v\n  new in=%v out=%v",
								tc.gt, tc.k, d, vals, ls, lo, j, orig, origOut,
								domains(sys, inIDs), sys.sig(z))
							return
						}
					}
					if !sys.wave(z, outV).Contains(lo) {
						t.Errorf("%s/%d d=%s: scenario vals=%v ls=%v lost output L=%s (class %d)\n  orig in=%v out=%v\n  new in=%v out=%v",
							tc.gt, tc.k, d, vals, ls, lo, outV, orig, origOut,
							domains(sys, inIDs), sys.sig(z))
					}
					return
				}
				for _, v := range []int{0, 1} {
					for _, l := range concreteTimes {
						if !orig[i].Wave(v).Contains(l) {
							continue
						}
						vals[i], ls[i] = v, l
						rec(i + 1)
					}
				}
			}
			rec(0)
			if t.Failed() {
				return
			}
		}
	}
}

func domains(sys *System, ids []circuit.NetID) []waveform.Signal {
	out := make([]waveform.Signal, len(ids))
	for i, id := range ids {
		out[i] = sys.Domain(id)
	}
	return out
}
