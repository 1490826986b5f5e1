package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func series(base float64, steps ...float64) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = base + s
	}
	return out
}

var tenSteps = []float64{0, 0.1, -0.1, 0.2, -0.2, 0.05, -0.05, 0.15, -0.15, 0}

func TestCompareMetricRules(t *testing.T) {
	lat := metricSpec{"batch_p50_ms", "ms", "lower"}
	thr := metricSpec{"checks_per_s", "1/s", "higher"}
	parent := series(10, tenSteps...)
	for _, tc := range []struct {
		name         string
		spec         metricSpec
		change       []float64
		moreFailures bool
		want         string
	}{
		{"clear gain", lat, series(8, tenSteps...), false, "GAIN"},
		{"gain with more failures", lat, series(8, tenSteps...), true, "no claim"},
		{"throughput gain", thr, series(12, tenSteps...), false, "GAIN"},
		{"within bound", lat, series(10.3, tenSteps...), false, "within bound"},
		{"regression", lat, series(13, tenSteps...), false, "REGRESSION"},
		{"throughput regression", thr, series(8, tenSteps...), false, "REGRESSION"},
		{"noisy change", lat, series(10, 0, 5, -5, 6, -6, 0, 4, -4, 5, 0), false, "unresolved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compareMetric(tc.spec, 0.15, parent, tc.change, tc.moreFailures)
			if !strings.HasPrefix(c.Verdict, tc.want) {
				t.Errorf("verdict %q, want %q (wins %d, worse %+.3f)", c.Verdict, tc.want, c.Wins, c.Worse)
			}
		})
	}
}

// Fewer than ten pairs never support a claimed gain, however large.
func TestCompareNeedsTenPairs(t *testing.T) {
	spec := metricSpec{"batch_p50_ms", "ms", "lower"}
	c := compareMetric(spec, 0.15, series(10, tenSteps[:9]...), series(5, tenSteps[:9]...), false)
	if c.Verdict == "GAIN" {
		t.Errorf("nine pairs claimed a gain")
	}
}

// A wide spread leaves a metric unresolved unless every change run
// reads better than every parent run.
func TestCompareWideSpreadAllBetter(t *testing.T) {
	spec := metricSpec{"batch_p50_ms", "ms", "lower"}
	parent := []float64{10, 14, 18, 12, 16}
	change := []float64{5, 7, 9, 6, 8}
	if c := compareMetric(spec, 0.1, parent, change, false); !strings.HasPrefix(c.Verdict, "no regression") {
		t.Errorf("verdict %q", c.Verdict)
	}
}

func writeRecords(t *testing.T, path, config string, seeds []int64, value float64, start time.Time, step time.Duration) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, s := range seeds {
		m := metricSet{}
		for _, spec := range endToEnd {
			m[spec.Name] = metric{Value: value, Unit: spec.Unit, N: 1}
		}
		b, err := json.Marshal(record{Schema: recordSchema, Config: config, Workload: wlWarm, Seed: s,
			Seconds: 1, Finished: start.Add(time.Duration(i) * step), Correct: true, Attempted: 1, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bj := filepath.Join(dir, "BENCHMARK.json")
	var doc struct {
		EndToEnd []map[string]any `json:"end_to_end"`
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, map[string]any{"name": s.Name, "bound": 0.15})
	}
	b, _ := json.Marshal(doc)
	if err := os.WriteFile(bj, b, 0o644); err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3}
	t0 := time.Unix(1_700_000_000, 0)
	parent, change := filepath.Join(dir, "p.jsonl"), filepath.Join(dir, "c.jsonl")
	cfg := configHash(1)
	writeRecords(t, parent, cfg, seeds, 10, t0, 2*time.Second)
	writeRecords(t, change, cfg, seeds, 10, t0.Add(time.Second), 2*time.Second)
	rows, notes, err := compareFiles(parent, change, bj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(endToEnd) {
		t.Errorf("%d rows, want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	for _, n := range notes {
		if strings.Contains(n, "interleaved") {
			t.Errorf("alternating runs reported as not interleaved: %s", n)
		}
	}

	writeRecords(t, change, configHash(2), seeds, 10, t0, time.Second)
	if _, _, err := compareFiles(parent, change, bj); err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("runs under different configs compared: %v", err)
	}
	writeRecords(t, change, cfg, []int64{1, 2, 4}, 10, t0, time.Second)
	if _, _, err := compareFiles(parent, change, bj); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("pairs with different seeds compared: %v", err)
	}
}
