package waveform_test

import (
	"fmt"

	"repro/internal/waveform"
)

// ExampleSignal_Intersect shows the timing-check construction of the
// paper: the output domain intersected with "transitions at or after δ"
// keeps only violating waveforms.
func ExampleSignal_Intersect() {
	// A net whose last transition lies at or before t = 70 on both
	// settling classes.
	d := waveform.Signal{
		W0: waveform.StableAfter(70),
		W1: waveform.StableAfter(70),
	}
	check := waveform.CheckOutput(61)
	fmt.Println(d.Intersect(check))
	fmt.Println(d.Intersect(waveform.CheckOutput(71)).IsEmpty())
	// Output:
	// (0|61^70, 1|61^70)
	// true
}

// ExampleWave_Union demonstrates the deliberate hull approximation of
// Lemma 1: disjoint intervals widen to their hull.
func ExampleWave_Union() {
	a := waveform.Wave{Lmin: 0, Lmax: 10}
	b := waveform.Wave{Lmin: 40, Lmax: 50}
	fmt.Println(a.Union(b))
	c := waveform.Wave{Lmin: 5, Lmax: 42}
	fmt.Println(a.Union(c))
	// Output:
	// [0,50]
	// [0,42]
}
