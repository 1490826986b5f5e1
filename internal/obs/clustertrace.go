package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// TraceEvent is one Chrome trace_event record — the JSON schema
// Perfetto and chrome://tracing load directly. Ph "X" is a complete
// span (Ts + Dur), "M" carries metadata (process and thread names).
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds since the timeline's origin
	Dur  float64        `json:"dur,omitempty"` // microseconds; "X" events only
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the containing JSON object trace viewers expect.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ClusterTrace assembles a batch timeline from span endpoints: on a
// coordinator, its own routing/dispatch/merge spans plus the per-check
// span summaries its workers return in-band; on a worker or in ltta,
// the finished checks (see Check). Because every contributor reports
// wall-clock (Unix microsecond) endpoints after the fact, spans are
// recorded as Chrome trace_event "X" complete events, which tolerate
// out-of-order arrival — a requeued attempt's span reaches the
// coordinator long after later primaries finished.
//
// Spans are grouped (rendered as processes): on a coordinator one
// group for itself, one per worker. Within a group, lanes (threads) are
// allocated greedily — a span reuses the lowest lane whose previous
// span ended at or before the new span's start — so overlap between
// concurrent attempts stays visible while the timeline remains
// compact; a check's stage spans share its lane. WriteTrace sorts
// events by timestamp, keeping a span ahead of the spans nested in it,
// which gives the per-lane order ValidateTrace checks.
type ClusterTrace struct {
	origin int64 // Unix µs all timestamps are relative to

	mu     sync.Mutex
	events []TraceEvent           // guarded by mu
	groups map[string]*traceGroup // guarded by mu
	pids   int                    // guarded by mu: process ids handed out
}

type traceGroup struct {
	pid   int
	lanes []int64 // per lane, end ts (µs since origin) of its last span
}

// NewClusterTrace starts a timeline anchored at origin (typically the
// batch admission time); spans wholly before origin are clamped to it.
func NewClusterTrace(origin time.Time) *ClusterTrace {
	return &ClusterTrace{origin: origin.UnixMicro(), groups: map[string]*traceGroup{}}
}

// Span records one completed span in the named group. startUnixUs is
// the span's wall-clock start (Unix µs), durUs its duration; args are
// optional viewer metadata. Safe for concurrent use.
func (ct *ClusterTrace) Span(group, name string, startUnixUs, durUs int64, args map[string]any) {
	ct.record(group, startUnixUs, []TraceEvent{{Name: name, Dur: float64(max(durUs, 0)), Args: args}})
}

// Check records one finished check: a "check <sink>" span from
// rep.Started lasting rep.Elapsed, and one span per pipeline stage that
// ran, nested on the same lane. The engine times its stages but not
// their offsets, so the stage spans are laid end to end from the check
// start. A report the engine never stamped (a check cancelled or
// refused before it started) ends now. This is the one conversion from
// a report to a timeline; ltta -trace-out and lttad -trace-dir both use
// it. args are added to the check span's.
func (ct *ClusterTrace) Check(group, sink string, rep *core.Report, args map[string]any) {
	started := rep.Started
	if started.IsZero() {
		started = time.Now().Add(-rep.Elapsed)
	}
	checkArgs := map[string]any{"delta": int64(rep.Delta), "final": rep.Final.String(),
		"propagations": rep.Propagations, "backtracks": rep.Backtracks}
	for k, v := range args {
		checkArgs[k] = v
	}
	spans := []TraceEvent{{Name: "check " + sink, Dur: float64(rep.Elapsed.Microseconds()), Args: checkArgs}}
	var total time.Duration
	for _, d := range rep.Stats.StageTime {
		total += d
	}
	if total > 0 {
		// A stage ran when its verdict column is not "-"; one that ran
		// in under a microsecond still gets its (0 µs) span.
		verdicts := [core.NumStages]core.Result{rep.BeforeGITD, rep.AfterGITD, rep.AfterStem, rep.CaseAnalysis}
		var off int64
		for st, d := range rep.Stats.StageTime {
			if verdicts[st] == core.StageSkipped {
				continue
			}
			us := d.Microseconds()
			spans = append(spans, TraceEvent{Name: core.Stage(st).String(), Ts: float64(off), Dur: float64(us),
				Args: map[string]any{"verdict": verdicts[st].String()}})
			off += us
		}
	}
	ct.record(group, started.UnixMicro(), spans)
}

// record places spans[0] on the lowest lane of group that is free from
// startUnixUs, and the remaining spans — nested inside it, their Ts
// relative to its start — on the same lane. Each span's Dur is set.
func (ct *ClusterTrace) record(group string, startUnixUs int64, spans []TraceEvent) {
	ts := startUnixUs - ct.origin
	if ts < 0 {
		ts = 0 // clock skew between tiers; clamp rather than break validation
	}
	end := ts + int64(spans[0].Dur)
	ct.mu.Lock()
	defer ct.mu.Unlock()
	g := ct.groups[group]
	if g == nil {
		ct.pids++
		g = &traceGroup{pid: ct.pids}
		ct.groups[group] = g
		ct.events = append(ct.events, TraceEvent{
			Name: "process_name", Ph: "M", Pid: g.pid, Tid: 0,
			Args: map[string]any{"name": group},
		})
	}
	lane := -1
	for i, laneEnd := range g.lanes {
		if laneEnd <= ts {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(g.lanes)
		g.lanes = append(g.lanes, 0)
		ct.events = append(ct.events, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: g.pid, Tid: lane + 1,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", lane+1)},
		})
	}
	g.lanes[lane] = end
	for _, sp := range spans {
		sp.Ph, sp.Ts, sp.Pid, sp.Tid = "X", float64(ts)+sp.Ts, g.pid, lane+1
		ct.events = append(ct.events, sp)
	}
}

// Len reports the number of recorded events.
func (ct *ClusterTrace) Len() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.events)
}

// WriteTrace renders the timeline as trace_event JSON, loadable in
// Perfetto. Events are sorted by timestamp (metadata first) so every
// lane is monotonic regardless of arrival order.
func (ct *ClusterTrace) WriteTrace(w io.Writer) error {
	ct.mu.Lock()
	events := make([]TraceEvent, len(ct.events))
	copy(events, ct.events)
	ct.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return events[i].Ts < events[j].Ts
	})
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateTrace parses trace_event JSON and checks the span discipline
// this package promises: per lane (pid, tid pair), timestamps are
// non-decreasing, every span is an "X" complete span with a
// non-negative duration, and spans on one lane are disjoint or nested
// (a stage span inside its check span). Returns the event count for
// smoke assertions.
func ValidateTrace(rd io.Reader) (int, error) {
	var tf traceFile
	if err := json.NewDecoder(rd).Decode(&tf); err != nil {
		return 0, fmt.Errorf("obs: trace JSON: %w", err)
	}
	type laneKey struct{ pid, tid int }
	type laneState struct {
		ts   float64
		ends []float64 // end times of the enclosing spans, innermost last
	}
	lanes := map[laneKey]*laneState{}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
		default:
			return 0, fmt.Errorf("obs: trace event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Dur < 0 {
			return 0, fmt.Errorf("obs: trace event %d: X %q with negative dur %.3f", i, ev.Name, ev.Dur)
		}
		key := laneKey{ev.Pid, ev.Tid}
		ls := lanes[key]
		if ls == nil {
			ls = &laneState{}
			lanes[key] = ls
		}
		if ev.Ts < ls.ts {
			return 0, fmt.Errorf("obs: trace event %d: ts %.3f before %.3f on lane %d/%d",
				i, ev.Ts, ls.ts, ev.Pid, ev.Tid)
		}
		ls.ts = ev.Ts
		for n := len(ls.ends); n > 0 && ls.ends[n-1] <= ev.Ts; n-- {
			ls.ends = ls.ends[:n-1] // spans that ended before this one starts
		}
		end := ev.Ts + ev.Dur
		if n := len(ls.ends); n > 0 && ls.ends[n-1] < end {
			return 0, fmt.Errorf("obs: trace event %d: X %q [%.3f, %.3f] overlaps an enclosing span ending at %.3f on lane %d/%d without nesting",
				i, ev.Name, ev.Ts, end, ls.ends[n-1], ev.Pid, ev.Tid)
		}
		ls.ends = append(ls.ends, end)
	}
	return len(tf.TraceEvents), nil
}
