package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/waveform"
)

// Stage identifies one phase of the check pipeline for tracing and
// per-stage statistics. The order matches the paper's Table-1 columns.
type Stage int

const (
	// StagePlain is the plain waveform-narrowing fixpoint (column
	// "BEFORE G.I.T.D.").
	StagePlain Stage = iota
	// StageGITD is the global-implication loop: dynamic timing
	// dominators plus static learning (column "AFTER G.I.T.D.").
	StageGITD
	// StageStem is the reconvergent-stem correlation preprocessing
	// (column "AFTER STEM C.").
	StageStem
	// StageCase is the FAN-derived case analysis (column "C.A.").
	StageCase

	// NumStages is the number of pipeline stages.
	NumStages = 4
)

func (s Stage) String() string {
	switch s {
	case StagePlain:
		return "fixpoint"
	case StageGITD:
		return "gitd"
	case StageStem:
		return "stems"
	case StageCase:
		return "casean"
	}
	return "?"
}

// Tracer observes the check pipeline. Every callback fires on the
// goroutine running the check; a tracer shared across parallel checks
// (RunAll with Workers > 1) must be safe for concurrent
// use. A nil Tracer in a Request is the fast path: the engine performs
// no tracer work at all beyond one nil check per event site, so tracing
// costs nothing when disabled.
type Tracer interface {
	// CheckStart fires once when a check (sink, δ) begins.
	CheckStart(sink circuit.NetID, delta waveform.Time)
	// StageEnter/StageExit bracket each pipeline stage that runs;
	// StageExit carries the stage verdict and its wall-clock time.
	StageEnter(stage Stage)
	StageExit(stage Stage, verdict Result, elapsed time.Duration)
	// DominatorRound fires after each dominator-narrowing round of the
	// evaluate loop with the dominator count and whether any domain
	// narrowed.
	DominatorRound(round, dominators int, narrowed bool)
	// Decision fires on every case-analysis decision (depth is the
	// decision-stack depth after pushing).
	Decision(depth int, net circuit.NetID, val int)
	// Backtrack fires on every case-analysis backtrack with the running
	// total.
	Backtrack(total int)
	// StemSplit fires for each stem correlated during stem correlation.
	StemSplit(split int, stem circuit.NetID)
	// CheckDone fires once with the finished report (counters filled).
	CheckDone(rep *Report)
}

// Stats is the engine-level telemetry of one check, beyond the paper's
// Table-1 counters — filled on every Report whether or not a tracer is
// installed (the counters are plain increments on state the engine
// tracks anyway).
type Stats struct {
	// Narrowings counts domain changes across all stages.
	Narrowings int64
	// QueueHighWater is the fixpoint worklist's peak length.
	QueueHighWater int
	// Decisions counts case-analysis decisions.
	Decisions int64
	// StemSplits counts stems correlated by stem correlation.
	StemSplits int
	// StageTime is the wall-clock time spent per pipeline stage,
	// indexed by Stage.
	StageTime [NumStages]time.Duration
}

// StatsTracer aggregates telemetry across checks into totals — the
// cheap always-on tracer behind `ltta -stats` and the per-circuit
// summaries. Safe for concurrent use.
type StatsTracer struct {
	mu sync.Mutex

	// Checks counts finished checks; the per-verdict counters break
	// them down by final result.
	Checks     int
	Refuted    int // NoViolation
	Violations int // ViolationFound
	Abandons   int // Abandoned
	Cancels    int // Cancelled
	Possible   int // PossibleViolation (VerifyOnly runs)

	Propagations    int64
	Narrowings      int64
	Backtracks      int64
	Decisions       int64
	DominatorRounds int64
	StemSplits      int64
	QueueHighWater  int // max over checks
	StageTime       [NumStages]time.Duration
	Elapsed         time.Duration
}

var _ Tracer = (*StatsTracer)(nil)

func (t *StatsTracer) CheckStart(circuit.NetID, waveform.Time) {}
func (t *StatsTracer) StageEnter(Stage)                        {}

func (t *StatsTracer) StageExit(stage Stage, _ Result, elapsed time.Duration) {
	t.mu.Lock()
	t.StageTime[stage] += elapsed
	t.mu.Unlock()
}

func (t *StatsTracer) DominatorRound(_, _ int, narrowed bool) {
	if !narrowed {
		return
	}
	t.mu.Lock()
	t.DominatorRounds++
	t.mu.Unlock()
}

func (t *StatsTracer) Decision(int, circuit.NetID, int) {
	t.mu.Lock()
	t.Decisions++
	t.mu.Unlock()
}

func (t *StatsTracer) Backtrack(int) {}

func (t *StatsTracer) StemSplit(int, circuit.NetID) {
	t.mu.Lock()
	t.StemSplits++
	t.mu.Unlock()
}

func (t *StatsTracer) CheckDone(rep *Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Checks++
	switch rep.Final {
	case NoViolation:
		t.Refuted++
	case ViolationFound:
		t.Violations++
	case Abandoned:
		t.Abandons++
	case Cancelled:
		t.Cancels++
	case PossibleViolation:
		t.Possible++
	}
	t.Propagations += rep.Propagations
	t.Narrowings += rep.Stats.Narrowings
	if rep.Backtracks > 0 {
		t.Backtracks += int64(rep.Backtracks)
	}
	if rep.Stats.QueueHighWater > t.QueueHighWater {
		t.QueueHighWater = rep.Stats.QueueHighWater
	}
	t.Elapsed += rep.Elapsed
}

// String renders a one-paragraph summary of the aggregated telemetry.
func (t *StatsTracer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := fmt.Sprintf(
		"checks %d (N %d, V %d, A %d, C %d, P %d); propagations %d, narrowings %d, backtracks %d, decisions %d, dominator rounds %d, stem splits %d; queue high-water %d; cpu %.3fs",
		t.Checks, t.Refuted, t.Violations, t.Abandons, t.Cancels, t.Possible,
		t.Propagations, t.Narrowings, t.Backtracks, t.Decisions,
		t.DominatorRounds, t.StemSplits, t.QueueHighWater, t.Elapsed.Seconds())
	for st := Stage(0); st < NumStages; st++ {
		if t.StageTime[st] > 0 {
			s += fmt.Sprintf("; %s %.3fs", st, t.StageTime[st].Seconds())
		}
	}
	return s
}

// TraceWriter renders every tracer event as one line of text or JSON —
// the engine-level counterpart of the paper's propagation listings,
// wired into `ltta -trace`. Safe for concurrent use (events from
// parallel checks interleave but each line is written atomically).
type TraceWriter struct {
	mu   sync.Mutex
	w    io.Writer
	c    *circuit.Circuit // optional: names nets in events
	json bool
	seq  int
}

// NewTraceWriter returns a text trace writer. The circuit is optional;
// when non-nil, events name nets instead of printing raw ids.
func NewTraceWriter(w io.Writer, c *circuit.Circuit) *TraceWriter {
	return &TraceWriter{w: w, c: c}
}

// NewJSONTraceWriter returns a trace writer emitting one JSON object
// per event (for downstream tooling).
func NewJSONTraceWriter(w io.Writer, c *circuit.Circuit) *TraceWriter {
	return &TraceWriter{w: w, c: c, json: true}
}

var _ Tracer = (*TraceWriter)(nil)

func (t *TraceWriter) netName(n circuit.NetID) string {
	if t.c != nil && n != circuit.InvalidNet {
		return t.c.Net(n).Name
	}
	return fmt.Sprintf("net%d", int(n))
}

// event emits one trace line; fields come in key/value pairs.
func (t *TraceWriter) event(ev string, fields ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if t.json {
		obj := map[string]any{"seq": t.seq, "ev": ev}
		for i := 0; i+1 < len(fields); i += 2 {
			obj[fields[i].(string)] = fields[i+1]
		}
		b, err := json.Marshal(obj)
		if err != nil {
			return
		}
		fmt.Fprintf(t.w, "%s\n", b)
		return
	}
	fmt.Fprintf(t.w, "[%6d] %-10s", t.seq, ev)
	for i := 0; i+1 < len(fields); i += 2 {
		fmt.Fprintf(t.w, " %s=%v", fields[i], fields[i+1])
	}
	fmt.Fprintln(t.w)
}

func (t *TraceWriter) CheckStart(sink circuit.NetID, delta waveform.Time) {
	t.event("check", "sink", t.netName(sink), "delta", delta.String())
}

func (t *TraceWriter) StageEnter(stage Stage) {
	t.event("stage", "name", stage.String())
}

func (t *TraceWriter) StageExit(stage Stage, verdict Result, elapsed time.Duration) {
	t.event("stage.done", "name", stage.String(), "verdict", verdict.String(),
		"us", elapsed.Microseconds())
}

func (t *TraceWriter) DominatorRound(round, dominators int, narrowed bool) {
	t.event("domround", "round", round, "dominators", dominators, "narrowed", narrowed)
}

func (t *TraceWriter) Decision(depth int, net circuit.NetID, val int) {
	t.event("decide", "depth", depth, "net", t.netName(net), "val", val)
}

func (t *TraceWriter) Backtrack(total int) {
	t.event("backtrack", "total", total)
}

func (t *TraceWriter) StemSplit(split int, stem circuit.NetID) {
	t.event("stemsplit", "n", split, "stem", t.netName(stem))
}

func (t *TraceWriter) CheckDone(rep *Report) {
	t.event("check.done", "sink", t.netName(rep.Sink), "delta", rep.Delta.String(),
		"final", rep.Final.String(), "backtracks", rep.Backtracks,
		"propagations", rep.Propagations, "us", rep.Elapsed.Microseconds())
}

// MultiTracer fans every event out to each tracer in order (e.g. a
// TraceWriter plus a StatsTracer for `ltta -trace -stats`). Nil entries
// are skipped; a MultiTracer of zero non-nil tracers behaves like nil.
func MultiTracer(tracers ...Tracer) Tracer {
	var ts []Tracer
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	switch len(ts) {
	case 0:
		return nil
	case 1:
		return ts[0]
	}
	return multiTracer(ts)
}

type multiTracer []Tracer

func (m multiTracer) CheckStart(sink circuit.NetID, delta waveform.Time) {
	for _, t := range m {
		t.CheckStart(sink, delta)
	}
}
func (m multiTracer) StageEnter(stage Stage) {
	for _, t := range m {
		t.StageEnter(stage)
	}
}
func (m multiTracer) StageExit(stage Stage, verdict Result, elapsed time.Duration) {
	for _, t := range m {
		t.StageExit(stage, verdict, elapsed)
	}
}
func (m multiTracer) DominatorRound(round, dominators int, narrowed bool) {
	for _, t := range m {
		t.DominatorRound(round, dominators, narrowed)
	}
}
func (m multiTracer) Decision(depth int, net circuit.NetID, val int) {
	for _, t := range m {
		t.Decision(depth, net, val)
	}
}
func (m multiTracer) Backtrack(total int) {
	for _, t := range m {
		t.Backtrack(total)
	}
}
func (m multiTracer) StemSplit(split int, stem circuit.NetID) {
	for _, t := range m {
		t.StemSplit(split, stem)
	}
}
func (m multiTracer) CheckDone(rep *Report) {
	for _, t := range m {
		t.CheckDone(rep)
	}
}
