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

// CheckDoneFunc is a Tracer that sees only finished checks: CheckDone
// calls it with the report, and every other event is ignored. ltta
// -trace-out and lttad's delay search put checks on their timelines
// through it.
type CheckDoneFunc func(*Report)

func (f CheckDoneFunc) CheckStart(circuit.NetID, waveform.Time) {}
func (f CheckDoneFunc) StageEnter(Stage)                        {}
func (f CheckDoneFunc) StageExit(Stage, Result, time.Duration)  {}
func (f CheckDoneFunc) DominatorRound(int, int, bool)           {}
func (f CheckDoneFunc) Decision(int, circuit.NetID, int)        {}
func (f CheckDoneFunc) Backtrack(int)                           {}
func (f CheckDoneFunc) StemSplit(int, circuit.NetID)            {}
func (f CheckDoneFunc) CheckDone(rep *Report)                   { f(rep) }

// MultiTracer fans every event out to each tracer in order (e.g. a
// TraceWriter plus an obs.Tracer for `ltta -trace -stats`). Nil entries
// are skipped; a MultiTracer of zero non-nil tracers returns nil and
// one of a single non-nil tracer returns that tracer, without
// allocating.
func MultiTracer(tracers ...Tracer) Tracer {
	var one Tracer
	n := 0
	for _, t := range tracers {
		if t != nil {
			one = t
			n++
		}
	}
	if n <= 1 {
		return one
	}
	ts := make(multiTracer, 0, n)
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	return ts
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
