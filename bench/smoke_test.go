package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// lttadBin is the daemon the served smoke runs start, built once by
// TestMain.
var lttadBin string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "bench-lttad")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer os.RemoveAll(dir)
			lttadBin = filepath.Join(dir, "lttad")
			build := exec.Command("go", "build", "-o", lttadBin, "repro/cmd/lttad")
			build.Stdout, build.Stderr = os.Stderr, os.Stderr
			if err := build.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "building lttad:", err)
				return 1
			}
		}
		return m.Run()
	}())
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Command     []string `json:"command"`
	Paths       []string `json:"paths"`
	RunSeconds  int      `json:"run_seconds"`
	Workloads   []struct{ Name, Why string }
	EndToEnd    []specJSON `json:"end_to_end"`
	PerLayer    []specJSON `json:"per_layer"`
	rawKeyCount int
}

type specJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	doc.rawKeyCount = len(keys)
	return doc
}

// BENCHMARK.json declares exactly the workloads and metrics this
// command runs and prints.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if doc.rawKeyCount != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", doc.rawKeyCount)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default window %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []specJSON, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %s/%s/%s, want %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound < 0.1 || *g.Bound > 0.25):
				t.Errorf("%s: bound of %s must lie in [0.1, 0.25]", kind, g.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// runSmoke runs one workload for a one-second window on seed 1 and
// returns its printed report.
func runSmoke(t *testing.T, workload string, trace bool) (*outcome, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs real daemons and the Table-1 protocol")
	}
	cfg := config{Workload: workload, Seed: 1, Seconds: 1, Trace: trace, Lttad: lttadBin, TraceDir: t.TempDir()}
	o, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("fail_ratio %d/%d, correct %v\n%s", res.Failed, res.Attempted, res.Correct, out)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok || m.Unit != s.Unit {
			t.Errorf("result lacks %s in %s", s.Name, s.Unit)
		}
		if !strings.Contains(out, "  "+s.Name+" ") {
			t.Errorf("report does not print %s", s.Name)
		}
	}
	for _, s := range endToEnd {
		if v := res.Metrics[s.Name].Value; !trace && v <= 0 {
			t.Errorf("end-to-end metric %s reads %v", s.Name, v)
		}
	}
	if !strings.Contains(out, "fail_ratio") {
		t.Error("report does not print fail_ratio")
	}
	return o, out
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) { runSmoke(t, w, false) })
	}
}

// A traced run prints every per-layer metric BENCHMARK.json names and
// the attribution table, writes a valid Perfetto file, and holds the
// fixed values of the registry-hit path.
func TestSmokeTraced(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	for _, w := range []string{wlWarm, wlCluster} {
		t.Run(w, func(t *testing.T) {
			o, out := runSmoke(t, w, true)
			for _, s := range doc.PerLayer {
				if !strings.Contains(out, "  "+s.Name+" ") {
					t.Errorf("traced report does not print %s", s.Name)
				}
			}
			for _, want := range []string{"attribution", "end-to-end median", "remainder"} {
				if !strings.Contains(out, want) {
					t.Errorf("traced report lacks %q", want)
				}
			}
			f, err := os.Open(o.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if n, err := obs.ValidateTrace(f); err != nil || n == 0 {
				t.Errorf("trace file %s: %d events, %v", o.TraceFile, n, err)
			}
			if m := o.Metrics["registry.hit_ratio"]; m.Value != 1 || m.N == 0 {
				t.Errorf("registry.hit_ratio = %v over %d lookups, want 1", m.Value, m.N)
			}
			if m := o.Metrics["server.netlist_parses"]; m.Value != 0 {
				t.Errorf("server.netlist_parses = %v in the window, want 0", m.Value)
			}
			if w == wlCluster && o.Metrics["coord.dispatch_ms"].N == 0 {
				t.Error("no shard passed the recording proxies")
			}
		})
	}
}
