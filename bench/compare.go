package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSources is this command's own source. Two runs compare only when
// made by identical benchmark code with the same window.
//
//go:embed *.go go.mod run.sh
var benchSources embed.FS

// configHash fingerprints what fixes a run's measurement: the benchmark
// code and the window length. -compare refuses to set runs with
// different fingerprints side by side.
func configHash(seconds int) string {
	h := sha256.New()
	fmt.Fprintf(h, "seconds=%d\n", seconds)
	files, err := fs.Glob(benchSources, "*")
	if err != nil {
		panic(err) // the pattern is constant
	}
	for _, name := range files { // fs.Glob returns sorted names
		b, err := benchSources.ReadFile(name)
		if err != nil {
			panic(err) // embedded at build time
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// cleanMetrics drops values JSON cannot carry (a timing with no
// samples is NaN).
func cleanMetrics(m metricSet) metricSet {
	out := metricSet{}
	for k, v := range m {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			out[k] = v
		}
	}
	return out
}

// readRecords loads an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, r.Schema, recordSchema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// readBounds loads the regression bound of every end-to-end metric from
// BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// minPairs is the number of parent/change pairs a claimed gain needs.
const minPairs = 10

// side summarises one commit's runs of one metric on one workload.
type side struct {
	Med, Q1, Q3 float64
	Vals        []float64
}

func newSide(vals []float64) side {
	s := side{Med: median(vals), Vals: vals}
	s.Q1, s.Q3 = s.Med, s.Med
	if q1, _, q3, err := quartiles(vals); err == nil {
		s.Q1, s.Q3 = q1, q3
	}
	return s
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound is judged against.
func (s side) spread() float64 {
	if s.Med == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Med)
}

// comparison is the verdict on one metric of one workload.
type comparison struct {
	Workload, Metric string
	Parent, Change   side
	Wins             int
	Worse            float64 // change median vs parent's, as a share; > 0 is worse
	Verdict          string
}

// compareMetric applies the claim and no-regression rules: a gain needs
// at least minPairs pairs, wins in nine tenths of them (ties count for
// neither) and a median difference beyond the parent's own interquartile
// distance; a regression is a median worse by more than the bound; when
// either side's spread exceeds the bound the metric is unresolved unless
// every change run reads better than every parent run.
func compareMetric(spec metricSpec, bound float64, parent, change []float64, moreFailures bool) comparison {
	c := comparison{Metric: spec.Name, Parent: newSide(parent), Change: newSide(change)}
	lower := spec.Better == "lower"
	better := func(ch, pa float64) bool {
		if lower {
			return ch < pa
		}
		return ch > pa
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	if c.Parent.Med != 0 {
		c.Worse = (c.Change.Med - c.Parent.Med) / math.Abs(c.Parent.Med)
		if !lower {
			c.Worse = -c.Worse
		}
	}
	allBetter := true
	for _, ch := range change {
		for _, pa := range parent {
			if !better(ch, pa) {
				allBetter = false
			}
		}
	}
	n := len(parent)
	gain := n >= minPairs && c.Wins*10 >= 9*n && better(c.Change.Med, c.Parent.Med) &&
		math.Abs(c.Change.Med-c.Parent.Med) > c.Parent.Q3-c.Parent.Q1
	switch {
	case gain && moreFailures:
		c.Verdict = "no claim: more operations failed than at the parent"
	case gain:
		c.Verdict = "GAIN"
	case math.Max(c.Parent.spread(), c.Change.spread()) > bound && allBetter:
		c.Verdict = "no regression (every change run better)"
	case math.Max(c.Parent.spread(), c.Change.spread()) > bound:
		c.Verdict = "unresolved (spread exceeds the bound)"
	case c.Worse > bound:
		c.Verdict = "REGRESSION"
	default:
		c.Verdict = "within bound"
	}
	return c
}

// runCompare implements -compare parent.jsonl change.jsonl. It pairs
// the i-th untraced run of a workload in one file with the i-th in the
// other, requires the pairs to share seeds and every run to share one
// config hash, and prints one row per workload and end-to-end metric.
// The exit code is 1 when any metric regressed.
func runCompare(args []string, benchJSON string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two -out files: parent.jsonl change.jsonl")
		return 2
	}
	rows, notes, err := compareFiles(args[0], args[1], benchJSON)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "%-15s %-13s %12s %12s %12s %12s %7s %5s  %s\n",
		"workload", "metric", "parent p50", "parent IQR", "change p50", "change IQR", "worse", "wins", "verdict")
	code := 0
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-15s %-13s %12.5g %12.5g %12.5g %12.5g %+6.1f%% %2d/%-2d  %s\n",
			c.Workload, c.Metric, c.Parent.Med, c.Parent.Q3-c.Parent.Q1, c.Change.Med, c.Change.Q3-c.Change.Q1,
			100*c.Worse, c.Wins, len(c.Parent.Vals), c.Verdict)
		if c.Verdict == "REGRESSION" {
			code = 1
		}
	}
	return code
}

func compareFiles(parentPath, changePath, benchJSON string) ([]comparison, []string, error) {
	bounds, err := readBounds(benchJSON)
	if err != nil {
		return nil, nil, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return nil, nil, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return nil, nil, err
	}
	configs := map[string]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		configs[r.Config] = true
	}
	if len(configs) != 1 {
		return nil, nil, fmt.Errorf("runs were made under %d different benchmark configs; compare runs of one config", len(configs))
	}
	byWorkload := func(rs []record) map[string][]record {
		out := map[string][]record{}
		for _, r := range rs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var rows []comparison
	var notes []string
	for _, w := range workloadNames {
		p, c := pw[w], cw[w]
		n := min(len(p), len(c))
		if n == 0 {
			continue
		}
		if len(p) != len(c) {
			notes = append(notes, fmt.Sprintf("%s: %d parent runs, %d change runs; pairing the first %d", w, len(p), len(c), n))
		}
		p, c = p[:n], c[:n]
		pFailed, cFailed := 0, 0
		for i := range p {
			if p[i].Seed != c[i].Seed {
				return nil, nil, fmt.Errorf("%s pair %d ran seed %d and seed %d; pairs must share seeds", w, i+1, p[i].Seed, c[i].Seed)
			}
			pFailed += p[i].Failed
			cFailed += c[i].Failed
		}
		if !interleaved(p, c) {
			notes = append(notes, fmt.Sprintf("%s: runs were not interleaved, so drift between the sides is not cancelled", w))
		}
		if n < minPairs {
			notes = append(notes, fmt.Sprintf("%s: %d pairs; a gain needs at least %d", w, n, minPairs))
		}
		for _, spec := range endToEnd {
			var pv, cv []float64
			for i := range p {
				pm, okp := p[i].Metrics[spec.Name]
				cm, okc := c[i].Metrics[spec.Name]
				if okp && okc {
					pv, cv = append(pv, pm.Value), append(cv, cm.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			bound, ok := bounds[spec.Name]
			if !ok {
				return nil, nil, fmt.Errorf("%s has no bound for %s", benchJSON, spec.Name)
			}
			row := compareMetric(spec, bound, pv, cv, cFailed > pFailed)
			row.Workload = w
			rows = append(rows, row)
		}
	}
	return rows, notes, nil
}

// interleaved reports whether the two sides' runs alternate in time, so
// each pair was run back to back.
func interleaved(parent, change []record) bool {
	type run struct {
		at     int64
		parent bool
	}
	var runs []run
	for _, r := range parent {
		runs = append(runs, run{r.Finished.UnixNano(), true})
	}
	for _, r := range change {
		runs = append(runs, run{r.Finished.UnixNano(), false})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].at < runs[j].at })
	for i := 0; i+1 < len(runs); i += 2 {
		if runs[i].parent == runs[i+1].parent {
			return false
		}
	}
	return true
}
