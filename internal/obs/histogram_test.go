package obs

import (
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 100, 5)
	if b[0] != 1 {
		t.Fatalf("first bound %d, want 1", b[0])
	}
	if last := b[len(b)-1]; last < 100 {
		t.Fatalf("last bound %d < hi 100", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %v", i, b)
		}
	}
	// Five buckets per decade on a 2-decade range: roughly 11 bounds
	// (deduplication at the small end may drop a couple).
	if len(b) < 8 || len(b) > 12 {
		t.Fatalf("unexpected bucket count %d: %v", len(b), b)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	h.Observe(5000) // overflow

	s := h.Snapshot()
	if s.Count != 1001 {
		t.Fatalf("count %d, want 1001", s.Count)
	}
	wantCounts := []uint64{10, 90, 900, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	wantSum := int64(1000*1001/2 + 5000)
	if s.Sum != wantSum {
		t.Fatalf("sum %d, want %d", s.Sum, wantSum)
	}
	// The median of 1..1000 is ~500; bucket interpolation lands within
	// the (100, 1000] bucket.
	if q := s.Quantile(0.5); q < 300 || q > 700 {
		t.Fatalf("p50 %d, want ≈500", q)
	}
	if q := s.Quantile(0); q < 0 || q > 10 {
		t.Fatalf("p0 %d, want within first bucket", q)
	}
	// p100 includes the overflow observation and saturates to the last
	// bound.
	if q := s.Quantile(1); q != 1000 {
		t.Fatalf("p100 %d, want 1000 (saturated)", q)
	}
	if m := float64(s.Sum) / float64(s.Count); m < 490 || m > 520 {
		t.Fatalf("mean %f, want ≈505", m)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram([]int64{1, 2})
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile %d, want 0", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(ExpBuckets(1, 1000, 3))
	b := NewHistogram(ExpBuckets(1, 1000, 3))
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
		b.Observe(i * 10)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 200 {
		t.Fatalf("merged count %d, want 200", sa.Count)
	}
	if want := int64(100*101/2 + 10*100*101/2); sa.Sum != want {
		t.Fatalf("merged sum %d, want %d", sa.Sum, want)
	}

	other := NewHistogram([]int64{1, 2, 3}).Snapshot()
	if err := sa.Merge(other); err == nil {
		t.Fatal("merging mismatched bounds must error")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 1_000_000, 5))
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i + 1))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	n := int64(workers * per)
	if want := n * (n + 1) / 2; s.Sum != want {
		t.Fatalf("sum %d, want %d", s.Sum, want)
	}
}
