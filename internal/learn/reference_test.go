package learn

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// refPrecompute is the map-based learning pass Precompute replaced,
// kept verbatim as the reference the rewrite must reproduce entry for
// entry: a map dedupes the (from, to) pairs, each key's list grows by
// append, and the propagation queue drains by re-slicing.
func refPrecompute(c *circuit.Circuit) *Table {
	t := &Table{
		c:          c,
		imp:        make([][]Assignment, 2*c.NumNets()),
		impossible: make([]bool, 2*c.NumNets()),
	}
	p := newProp(c)
	seen := make(map[[2]int]bool)
	add := func(from Assignment, to Assignment) {
		if from.Net == to.Net {
			return
		}
		k := [2]int{key(from.Net, from.Val), key(to.Net, to.Val)}
		if seen[k] {
			return
		}
		seen[k] = true
		t.imp[key(from.Net, from.Val)] = append(t.imp[key(from.Net, from.Val)], to)
		t.Implications++
	}
	for n := 0; n < c.NumNets(); n++ {
		for v := 0; v <= 1; v++ {
			nid := circuit.NetID(n)
			ok, assigned := refRun(p, nid, v)
			if !ok {
				t.impossible[key(nid, v)] = true
				continue
			}
			for _, a := range assigned {
				if a.Net == nid {
					continue
				}
				add(Assignment{nid, v}, a)
				// Contrapositive: ¬a ⇒ ¬(n=v).
				add(Assignment{a.Net, 1 - a.Val}, Assignment{nid, 1 - v})
			}
		}
	}
	return t
}

// refRun is the propagation run refPrecompute used: a fresh output
// slice per run and a queue drained by re-slicing its head.
func refRun(p *prop, n circuit.NetID, v int) (ok bool, out []Assignment) {
	ok = true
	defer func() {
		for _, m := range p.trail {
			p.val[m] = -1
		}
		p.trail = p.trail[:0]
		for _, g := range p.dirty {
			p.inQ[g] = false
		}
		p.dirty = p.dirty[:0]
	}()
	if !p.assign(n, int8(v)) {
		return false, nil
	}
	for len(p.dirty) > 0 {
		g := p.dirty[0]
		p.dirty = p.dirty[1:]
		p.inQ[g] = false
		if !p.applyGate(g) {
			return false, nil
		}
	}
	for _, m := range p.trail {
		out = append(out, Assignment{m, int(p.val[m])})
	}
	return true, out
}

// sameTable reports the first difference between two learning tables:
// the implication count, an impossible class, or any key's list —
// element by element, because Apply narrows in list order.
func sameTable(got, want *Table) error {
	if got.Implications != want.Implications {
		return fmt.Errorf("Implications = %d, want %d", got.Implications, want.Implications)
	}
	if len(got.imp) != len(want.imp) || len(got.impossible) != len(want.impossible) {
		return fmt.Errorf("table sizes %d/%d, want %d/%d", len(got.imp), len(got.impossible), len(want.imp), len(want.impossible))
	}
	for k := range want.imp {
		if got.impossible[k] != want.impossible[k] {
			return fmt.Errorf("impossible[%d] = %v, want %v", k, got.impossible[k], want.impossible[k])
		}
		g, w := got.imp[k], want.imp[k]
		if len(g) != len(w) {
			return fmt.Errorf("imp[%d] has %d entries, want %d", k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("imp[%d][%d] = %+v, want %+v", k, i, g[i], w[i])
			}
		}
	}
	return nil
}

// TestPrecomputeMatchesReference checks the map-free pass against the
// map-based one on the substitute suite, seeded random netlists and
// the industrial workload: every list identical and in the same order.
func TestPrecomputeMatchesReference(t *testing.T) {
	type named struct {
		name string
		c    *circuit.Circuit
	}
	var cs []named
	for _, e := range gen.SubstituteSuite() {
		cs = append(cs, named{e.Name, e.Circuit})
	}
	for seed := int64(1); seed <= 20; seed++ {
		cs = append(cs, named{fmt.Sprintf("random%d", seed), gen.Random(seed, 4+int(seed%9), 10+int(seed*7%90), 10)})
	}
	for _, blocks := range []int{100, 200, 400} {
		if testing.Short() && blocks > 100 {
			break
		}
		cs = append(cs, named{fmt.Sprintf("industrial%d", blocks), gen.Industrial(1, blocks, 10)})
	}
	for _, n := range cs {
		if err := sameTable(Precompute(n.c), refPrecompute(n.c)); err != nil {
			t.Errorf("%s: %v", n.name, err)
		}
	}
}

// FuzzPrecompute compares the map-free pass with the map-based
// reference on seeded random netlists of fuzzed shape.
func FuzzPrecompute(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20))
	f.Add(int64(7), uint8(2), uint8(60))
	f.Add(int64(42), uint8(11), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nGates uint8) {
		c := gen.Random(seed, 1+int(nPI%12), 1+int(nGates), 10)
		if err := sameTable(Precompute(c), refPrecompute(c)); err != nil {
			t.Fatalf("seed %d, %d inputs, %d gates: %v", seed, 1+nPI%12, 1+int(nGates), err)
		}
	})
}

// TestPrecomputeFewerAllocs pins the map-free pass's allocation
// count: a fixed handful of arrays plus the amortised growth of the
// entry list, independent of the per-run work.
func TestPrecomputeFewerAllocs(t *testing.T) {
	c := gen.Industrial(1, 100, 10)
	got := testing.AllocsPerRun(3, func() { Precompute(c) })
	ref := testing.AllocsPerRun(3, func() { refPrecompute(c) })
	if got > 100 || got*10 > ref {
		t.Fatalf("Precompute allocates %.0f times per pass (reference %.0f)", got, ref)
	}
}

// BenchmarkPrepare/learn times the learning pass, the prepare/learn layer,
// on the industrial workload.
func BenchmarkPrepare(b *testing.B) {
	for _, blocks := range []int{100, 200, 400} {
		c := gen.Industrial(1, blocks, 10)
		b.Run(fmt.Sprintf("learn/blocks=%d", blocks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Precompute(c)
			}
		})
	}
}
