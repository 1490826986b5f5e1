package constraint

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/waveform"
)

// BenchmarkFixpoint is the fixpoint layer: one op is a cold
// ScheduleAll fixpoint for every output in turn, each on a Reset
// system with the check CheckOutput(δ) on that output — c6288 at its
// exact delay D = 1210, and gen.Industrial(1, 200) at its topological
// delay. It reports the time per gate-constraint application and the
// applications per op, and a warmed system must not allocate.
func BenchmarkFixpoint(b *testing.B) {
	var c6288 *circuit.Circuit
	for _, e := range gen.SubstituteSuite() {
		if e.Name == "c6288" {
			c6288 = e.Circuit
		}
	}
	ind := gen.Industrial(1, 200, 10)
	for _, bc := range []struct {
		name  string
		c     *circuit.Circuit
		delta waveform.Time
	}{
		{"c6288", c6288, 1210},
		{"industrial-200", ind, delay.New(ind).Topological()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(bc.c)
			pass := func() int64 {
				var props int64
				for _, po := range bc.c.PrimaryOutputs() {
					s.Reset()
					s.Narrow(po, waveform.CheckOutput(bc.delta))
					s.ScheduleAll()
					s.Fixpoint()
					props += s.Propagations
				}
				return props
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			var props int64
			for i := 0; i < b.N; i++ {
				props += pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(props), "ns/prop")
			b.ReportMetric(float64(props)/float64(b.N), "props/op")
		})
	}
}
