package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLevels are the percentiles a timing may be reported at, lowest
// first. A level is supported by a sample set when at least
// minBeyond samples lie beyond it.
var tailLevels = []float64{0.50, 0.90, 0.99, 0.999}

const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an
// even count); NaN for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(xs, n=4) returns with its default "exclusive"
// method, so the spreads printed here are the ones an external check of
// the benchmark computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// percentile is the nearest-rank p-quantile of an ascending slice.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// supportedTail is the highest tail level with at least minBeyond of n
// samples beyond it; 0 when even the median is unsupported.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// dist summarises one timing sample set.
type dist struct {
	N     int
	P50   float64
	TailP float64 // highest supported tail level (see supportedTail)
	Tail  float64 // the value at TailP
}

func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = median(s)
	d.TailP = supportedTail(len(s))
	if d.TailP > 0 {
		d.Tail = percentile(s, d.TailP)
	}
	return d
}

// levelName renders a tail level as "p50", "p99", "p99.9".
func levelName(p float64) string {
	if p == 0 {
		return "none"
	}
	return "p" + trimFloat(p*100)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
