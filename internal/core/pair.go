package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/constraint"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// Two-vector transition mode (Section 1 of the paper: the framework
// "adapts to different circuit-delay modes … by a simple change in the
// abstract waveforms applied to the inputs"). For a specific vector
// pair <v1, v2> every input's abstract signal is pinned: an unchanged
// input is the constant waveform of its class (last transition −∞), a
// changed input transitions exactly at time 0. The fixpoint then yields
// sound per-net last-transition bounds for the pair.

// pairInputDomain builds the transition-mode input domain for one bit.
func pairInputDomain(v1, v2 int) waveform.Signal {
	if v1 == v2 {
		// Constant at v2: only the never-transitioning waveform.
		return waveform.SettledTo(v2).Intersect(waveform.Signal{
			W0: waveform.Wave{Lmin: waveform.NegInf, Lmax: waveform.NegInf},
			W1: waveform.Wave{Lmin: waveform.NegInf, Lmax: waveform.NegInf},
		})
	}
	// Single transition at exactly t = 0 to v2.
	return waveform.SettledTo(v2).Intersect(waveform.Signal{
		W0: waveform.Wave{Lmin: 0, Lmax: 0},
		W1: waveform.Wave{Lmin: 0, Lmax: 0},
	})
}

// PairBounds holds the transition-mode analysis of one vector pair.
type PairBounds struct {
	V1, V2 sim.Vector
	// Bound is a sound upper bound on every net's last-transition time
	// for the pair (from the narrowing fixpoint).
	Bound []waveform.Time
	// Exact is the concrete per-net last-transition time from the
	// two-vector simulation.
	Exact []waveform.Time
}

// CheckPair analyses the specific two-vector pair: the constraint
// system with pinned inputs gives per-net last-transition upper bounds,
// cross-checked against the exact two-vector simulation (Bound must
// dominate Exact; the returned struct carries both so callers can
// report the abstraction gap).
func (v *Verifier) CheckPair(v1, v2 sim.Vector) (*PairBounds, error) {
	pis := v.c.PrimaryInputs()
	if len(v1) != len(pis) || len(v2) != len(pis) {
		return nil, fmt.Errorf("core: pair vectors have %d/%d bits for %d inputs", len(v1), len(v2), len(pis))
	}
	sys := constraint.New(v.c)
	for i, pi := range pis {
		sys.Narrow(pi, pairInputDomain(v1[i], v2[i]))
	}
	sys.ScheduleAll()
	if !sys.Fixpoint() {
		return nil, fmt.Errorf("core: transition-mode fixpoint inconsistent (internal error)")
	}
	pb := &PairBounds{V1: append(sim.Vector(nil), v1...), V2: append(sim.Vector(nil), v2...)}
	pb.Bound = make([]waveform.Time, v.c.NumNets())
	for n := range pb.Bound {
		pb.Bound[n] = sys.Domain(circuit.NetID(n)).LatestTransition()
	}
	r, err := sim.RunPair(v.c, v1, v2, 0)
	if err != nil {
		return nil, err
	}
	pb.Exact = r.Last
	return pb, nil
}
