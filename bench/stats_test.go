package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns, the definition the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 7, 2.25}, [3]float64{0.5, 2.25, 7}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value did not fail")
	}
}

func TestSpread(t *testing.T) {
	got := newSide([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread()
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// A percentile is reported only when at least ten samples lie beyond
// it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(250 - i)
	}
	d := summarize(xs)
	if d.N != 250 || d.P50 != 125.5 || d.TailP != 0.9 || d.Tail != 225 {
		t.Errorf("summarize = %+v", d)
	}
	if levelName(d.TailP) != "p90" || levelName(0.999) != "p99.9" || levelName(0) != "none" {
		t.Error("levelName renders levels wrongly")
	}
}
