// Command bench is the repository's benchmark: it drives real lttad
// daemons (built from this checkout) with seeded check traffic and runs
// the paper's Table-1 protocol in-process, checks every answer against
// in-process references, and prints every end-to-end metric — or, with
// -trace, every per-layer metric — by name, with its unit and sample
// count. The last line of its output is a JSON result object.
//
// Usage (from the repository root; bench/run.sh builds this command
// and lttad, then runs it):
//
//	bash bench/run.sh -seed N [-workload W] [-seconds S] [-trace] [-out F]
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// Without -workload every workload runs, each in its own re-executed
// process so heap, GC and RSS never leak from one into the next.
// README.md explains each workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the measuring window of one run; it equals
// BENCHMARK.json's run_seconds.
const defaultSeconds = 20

type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Lttad    string
	TraceDir string
	Out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, each in its own process)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&cfg.Seconds, "seconds", defaultSeconds, "length of the measuring window")
	fs.BoolVar(&cfg.Trace, "trace", false, "repeat the window traced and print the per-layer metrics")
	fs.StringVar(&cfg.Lttad, "lttad", ".bench_build/bin/lttad", "lttad binary the served workloads start")
	fs.StringVar(&cfg.TraceDir, "trace-dir", ".bench_build/traces", "directory for Perfetto trace files")
	fs.StringVar(&cfg.Out, "out", "", "append one JSON record per workload run to this file")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if compare {
		return runCompare(fs.Args(), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if cfg.Seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if cfg.Workload == "" {
		return runAll(args, stdout, stderr)
	}
	o, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if cfg.Out != "" {
		if err := appendRecord(cfg, o); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := o.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// normalizeArgs joins a boolean -trace with a following 0/1/true/false
// ("--trace 1" → "--trace=1"); the flag package would otherwise take
// the value for a positional argument.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func runWorkload(cfg config) (*outcome, error) {
	switch cfg.Workload {
	case wlTable1:
		return runTable1(cfg)
	case wlWarm, wlCluster, wlCold:
		if st, err := os.Stat(cfg.Lttad); err != nil || st.IsDir() {
			return nil, fmt.Errorf("no lttad binary at %s (bench/run.sh builds one)", cfg.Lttad)
		}
		if cfg.Workload == wlCold {
			return runCold(cfg)
		}
		return runChecks(cfg)
	}
	return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
}

// runAll runs every workload, each in a fresh process of this binary,
// and ends with one result object whose metric names are prefixed with
// their workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]resultMetric{}}
	code := 0
	for _, w := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		// A workload process must not outlive this one.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w, err)
			all.Correct, code = false, 1
			continue
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: no result line: %v\n", w, err)
			all.Correct, code = false, 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w+"/"+name] = m
		}
		fmt.Fprintln(stdout)
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// record is one line of an -out file.
type record struct {
	Schema    string    `json:"schema"`
	Config    string    `json:"config"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     bool      `json:"trace"`
	Finished  time.Time `json:"finished"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

const recordSchema = "ltta-bench-run/1"

func appendRecord(cfg config, o *outcome) error {
	line, err := json.Marshal(record{
		Schema: recordSchema, Config: configHash(cfg.Seconds), Workload: o.Workload, Seed: o.Seed,
		Seconds: o.Seconds, Trace: o.Trace, Finished: time.Now().UTC(), Correct: o.correct(),
		Attempted: o.Attempted, Failed: o.Failed, Metrics: cleanMetrics(o.Metrics),
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(cfg.Out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening -out file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing -out file: %w", err)
	}
	return f.Close()
}
