package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with atomic counters: Observe
// is a bounded binary search over the (immutable) bucket bounds plus
// two atomic adds, so it is safe — and cheap — to share one histogram
// across every worker of a parallel sweep. Buckets are cumulative-
// upper-bound style (Prometheus "le" semantics): bucket i counts
// observations v <= bounds[i], and one implicit overflow bucket
// counts everything above the last bound.
type Histogram struct {
	bounds    []int64 // ascending upper bounds; immutable after New
	counts    []atomic.Uint64
	sum       atomic.Int64
	total     atomic.Uint64
	exemplars []atomic.Pointer[Exemplar] // one slot per bucket, overflow included
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is not copied and must not be mutated.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %d <= %d",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// ExpBuckets returns log-spaced upper bounds from lo to at least hi
// with perDecade buckets per factor of ten. Bounds are deduplicated
// after rounding, so small lo values stay valid.
func ExpBuckets(lo, hi int64, perDecade int) []int64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic("obs: ExpBuckets needs 0 < lo < hi and perDecade > 0")
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var out []int64
	v := float64(lo)
	for {
		b := int64(math.Round(v))
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
		if b >= hi {
			return out
		}
		v *= ratio
	}
}

// bucketFor returns the index of the bucket counting v: the first
// bound >= v, or the overflow bucket len(bounds).
func (h *Histogram) bucketFor(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	b := h.bucketFor(v)
	h.counts[b].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveDuration records a duration in nanoseconds, clamping
// negatives to zero (a monotonic-clock artefact, not a real value).
func (h *Histogram) ObserveDuration(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Observe(ns)
}

// Bounds returns the histogram's upper bounds (shared, do not mutate).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Exemplar links one observed value to the trace that produced it, so
// a latency bucket (say, the p99 one) resolves to a retrievable trace
// id instead of an anonymous count.
type Exemplar struct {
	// Value is the observed value in the histogram's native unit.
	Value int64 `json:"value"`
	// TraceID is the distributed trace id of the producing check.
	TraceID string `json:"traceId"`
}

// SetExemplar stores v's trace id as the exemplar of the bucket that
// counts v, replacing any previous exemplar there (last write wins).
// It does NOT count the value — callers Observe separately — so the
// cost is one atomic pointer store and exemplars never skew counts.
// The in-repo Prometheus exposition deliberately excludes exemplars
// (ParseProm rejects the OpenMetrics syntax); they are served through
// the /debug/checks JSON instead.
func (h *Histogram) SetExemplar(v int64, traceID string) {
	if traceID == "" {
		return
	}
	h.exemplars[h.bucketFor(v)].Store(&Exemplar{Value: v, TraceID: traceID})
}

// BucketExemplar is one bucket's exemplar in a snapshot: LE renders
// the bucket's upper bound ("+Inf" for the overflow bucket).
type BucketExemplar struct {
	LE      string `json:"le"`
	Value   int64  `json:"value"`
	TraceID string `json:"traceId"`
}

// Exemplars snapshots the buckets that currently hold an exemplar, in
// bucket order.
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := range h.exemplars {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = fmt.Sprintf("%d", h.bounds[i])
		}
		out = append(out, BucketExemplar{LE: le, Value: e.Value, TraceID: e.TraceID})
	}
	return out
}

// Snapshot captures the histogram's current state. Under concurrent
// observation the per-bucket reads are individually atomic but not
// mutually consistent; Count is recomputed from the captured buckets
// so Count == sum(Counts) always holds within one snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram's state,
// mergeable with snapshots taken over the same bounds.
type HistSnapshot struct {
	// Bounds are the upper bounds; Counts has one extra entry, the
	// overflow bucket.
	Bounds []int64
	Counts []uint64
	Count  uint64
	Sum    int64
}

// Merge adds o into s. The two snapshots must share bucket bounds.
func (s *HistSnapshot) Merge(o HistSnapshot) error {
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("obs: merging histograms with different bounds at %d: %d vs %d",
				i, s.Bounds[i], o.Bounds[i])
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the rank. Values in the
// overflow bucket saturate to the last bound. Returns 0 on an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next < rank || c == 0 {
			cum = next
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1] // overflow: saturate
		}
		lower := int64(0)
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		frac := (rank - cum) / float64(c)
		return lower + int64(frac*float64(s.Bounds[i]-lower))
	}
	return s.Bounds[len(s.Bounds)-1]
}
