package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_requests_total", "Requests served.", Labels{"code": "200"})
	c.Add(7)
	reg.CounterFunc("test_requests_total", "Requests served.", Labels{"code": "500"},
		func() int64 { return 2 })
	reg.GaugeFunc("test_queue_depth", "Queue depth.", nil, func() float64 { return 3.5 })
	h := NewHistogram([]int64{1000, 1_000_000})
	h.Observe(500)
	h.Observe(2_000_000)
	reg.Histogram("test_latency_seconds", "Latency.", Labels{"op": `a"b\c`}, h, 1e-9)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()

	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, text)
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3:\n%s", len(fams), text)
	}
	for _, want := range []string{
		`test_requests_total{code="200"} 7`,
		`test_requests_total{code="500"} 2`,
		"test_queue_depth 3.5",
		`test_latency_seconds_bucket{le="+Inf",op="a\"b\\c"} 2`,
		`test_latency_seconds_count{op="a\"b\\c"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Exactly one HELP/TYPE pair for the two-series counter family.
	if n := strings.Count(text, "# TYPE test_requests_total"); n != 1 {
		t.Errorf("TYPE emitted %d times for shared family, want 1", n)
	}
}

// TestCounterVec pins the lazily-labeled counter family: the
// HELP/TYPE block appears even while the vector is empty, series
// materialise on first With, the exposition stays ParseProm-valid
// throughout, and With is stable (same value → same counter).
func TestCounterVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_requeues_total", "Requeues by reason.", "reason")

	render := func() string {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		return buf.String()
	}
	empty := render()
	if err := ValidateProm(strings.NewReader(empty)); err != nil {
		t.Fatalf("empty vector exposition invalid: %v\n%s", err, empty)
	}
	if !strings.Contains(empty, "# TYPE test_requeues_total counter") {
		t.Fatalf("empty vector has no TYPE block:\n%s", empty)
	}

	v.With("transport").Add(3)
	v.With("backpressure").Add(1)
	if v.With("transport") != v.With("transport") {
		t.Fatal("With is not stable for a repeated value")
	}
	v.With("transport").Add(1)

	text := render()
	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("populated vector exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`test_requeues_total{reason="transport"} 4`,
		`test_requeues_total{reason="backpressure"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# TYPE test_requeues_total"); n != 1 {
		t.Errorf("TYPE emitted %d times for the vector family, want 1", n)
	}
	var fam *PromFamily
	for i := range fams {
		if fams[i].Name == "test_requeues_total" {
			fam = &fams[i]
		}
	}
	if fam == nil || len(fam.Samples) != 2 {
		t.Fatalf("parsed family = %+v, want 2 labeled samples", fam)
	}

	mustPanic(t, "invalid label key", func() {
		reg.CounterVec("test_other_total", "x", "9bad")
	})
}

func TestRegistryRejectsConflicts(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("x_total", "a counter", nil, func() int64 { return 0 })
	mustPanic(t, "re-register as gauge", func() {
		reg.GaugeFunc("x_total", "a counter", nil, func() float64 { return 0 })
	})
	mustPanic(t, "invalid name", func() {
		reg.CounterFunc("9bad", "nope", nil, func() int64 { return 0 })
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"duplicate HELP": "# HELP a one\n# HELP a two\n# TYPE a counter\na 1\n",
		"duplicate TYPE": "# TYPE a counter\n# TYPE a counter\na 1\n",
		"no TYPE":        "a 1\n",
		"bad value":      "# TYPE a counter\na pizza\n",
		"timestamp":      "# TYPE a counter\na 1 1234567890\n",
		"bad TYPE":       "# TYPE a zebra\na 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\nh_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 6\n",
		"unterminated labels": "# TYPE a counter\na{x=\"y 1\n",
		"HELP without TYPE":   "# HELP a doc\n",
	}
	for name, text := range cases {
		if err := ValidateProm(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected validation error on:\n%s", name, text)
		}
	}
}

func TestParsePromAcceptsRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeProm(&buf)
	fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("runtime exposition invalid: %v\n%s", err, buf.String())
	}
	want := map[string]bool{"go_goroutines": false, "go_gc_pause_seconds": false}
	for _, f := range fams {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("runtime exposition missing %s:\n%s", name, buf.String())
		}
	}
}

// TestPromExpositionFile validates an exposition scraped from a live
// lttad — CI starts the daemon, curls /metrics into a file, and runs
// this test with PROM_FILE pointing at it. Skips when unset.
func TestPromExpositionFile(t *testing.T) {
	path := os.Getenv("PROM_FILE")
	if path == "" {
		t.Skip("PROM_FILE not set (CI-only scrape validation)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams, err := ParseProm(f)
	if err != nil {
		t.Fatalf("scraped exposition invalid: %v", err)
	}
	stages := map[string]bool{}
	for _, fam := range fams {
		if fam.Name != "ltta_stage_duration_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			if st := s.Labels["stage"]; st != "" {
				stages[st] = true
			}
		}
	}
	for _, st := range []string{"fixpoint", "gitd", "stems", "casean"} {
		if !stages[st] {
			t.Errorf("scrape has no histogram for pipeline stage %q (got %v)", st, stages)
		}
	}
}
