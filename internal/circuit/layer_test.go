package circuit_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// generated renders the substitute suite, seeded random netlists and
// the industrial workload as .bench text — the netlists the parser
// meets in practice.
func generated(t testing.TB) map[string]string {
	out := map[string]string{}
	for _, e := range gen.SubstituteSuite() {
		out[e.Name] = circuit.BenchString(e.Circuit)
	}
	for seed := int64(1); seed <= 10; seed++ {
		out[fmt.Sprintf("random%d", seed)] = circuit.BenchString(gen.Random(seed, 3+int(seed), 20*int(seed), 10))
	}
	for _, blocks := range []int{100, 200, 400} {
		out[fmt.Sprintf("industrial%d", blocks)] = circuit.BenchString(gen.Industrial(1, blocks, 10))
	}
	return out
}

// TestReadBenchMatchesReference checks the allocation-lean parser
// against the reference parser on generated netlists, as written and
// with every keyword and mnemonic lower-cased, and with the delay
// directives stripped so the default delay applies.
func TestReadBenchMatchesReference(t *testing.T) {
	for name, src := range generated(t) {
		variants := map[string]string{
			"as written": src,
			"lower case": strings.ToLower(src),
			"no delays":  strings.ReplaceAll(src, "# !delay=", "# delay="),
		}
		for v, text := range variants {
			if d := circuit.DiffParses(text, circuit.BenchOptions{DefaultDelay: 7, Name: name}); d != "" {
				t.Errorf("%s (%s): %s", name, v, d)
			}
		}
	}
}

// BenchmarkParse times circuit.ReadBench, the parse layer, on the
// industrial workload.
func BenchmarkParse(b *testing.B) {
	for _, blocks := range []int{100, 200, 400} {
		src := circuit.BenchString(gen.Industrial(1, blocks, 10))
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := circuit.ParseBenchString(src, circuit.BenchOptions{DefaultDelay: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepare/stems times ReconvergentStems, the prepare/stems
// layer, on the industrial workload.
func BenchmarkPrepare(b *testing.B) {
	for _, blocks := range []int{100, 200, 400} {
		c := gen.Industrial(1, blocks, 10)
		b.Run(fmt.Sprintf("stems/blocks=%d", blocks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.ReconvergentStems()
			}
		})
	}
}
