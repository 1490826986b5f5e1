package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// TestClusterTraceLanesAndGroups drives the lane allocator directly:
// overlapping spans inside one group must land on distinct lanes,
// back-to-back spans must reuse a lane, and each group must become its
// own process with a name metadata event. Spans arrive out of order —
// exactly how requeued attempts reach a coordinator — and the written
// trace must still validate.
func TestClusterTraceLanesAndGroups(t *testing.T) {
	origin := time.Unix(1000, 0)
	us := origin.UnixMicro()
	ct := obs.NewClusterTrace(origin)

	// Two overlapping coordinator spans → two lanes; a third span
	// starting after both end reuses lane 1.
	ct.Span("coordinator", "dispatch a", us+0, 100, nil)
	ct.Span("coordinator", "dispatch b", us+50, 100, nil)
	ct.Span("coordinator", "merge", us+200, 10, map[string]any{"trace_id": "x"})
	// A worker span arriving late, with a start before the second
	// coordinator span — out-of-order recording must be tolerated.
	ct.Span("worker w1", "check G0", us+20, 40, nil)
	// Clock skew: a span "before" the origin clamps to ts 0.
	ct.Span("worker w1", "check G1", us-500, 30, nil)
	// Negative duration clamps to zero rather than breaking Perfetto.
	ct.Span("worker w1", "check G2", us+300, -5, nil)

	// 6 spans + 2 process_name + 3 lane thread_name events (2
	// coordinator lanes, 1 worker lane — the skew-clamped span starts
	// at ts 0 while lane 1 is busy until 60... so it opens lane 2).
	var buf bytes.Buffer
	if err := ct.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("cluster trace does not validate: %v\n%s", err, buf.String())
	}
	if n != ct.Len() {
		t.Fatalf("validator saw %d events, trace holds %d", n, ct.Len())
	}
	text := buf.String()
	for _, want := range []string{
		`"name":"coordinator"`, `"name":"worker w1"`, // process names
		`"name":"dispatch a"`, `"name":"check G0"`,
		`"ph":"X"`, `"trace_id":"x"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("trace JSON missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `"name":"lane 2"`) {
		t.Error("overlapping spans did not open a second lane")
	}
}

// TestClusterTraceLaneReuse: strictly sequential spans in one group
// stay on one lane no matter how many there are.
func TestClusterTraceLaneReuse(t *testing.T) {
	origin := time.Unix(2000, 0)
	us := origin.UnixMicro()
	ct := obs.NewClusterTrace(origin)
	for i := int64(0); i < 20; i++ {
		ct.Span("worker w1", "check", us+i*100, 50, nil)
	}
	var buf bytes.Buffer
	if err := ct.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `"name":"lane 1"`) {
		t.Fatal("no lane metadata recorded")
	}
	if strings.Contains(text, `"name":"lane 2"`) {
		t.Fatal("sequential spans opened a second lane; reuse is broken")
	}
	if _, err := obs.ValidateTrace(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTraceConcurrent records from many goroutines at once —
// the coordinator's dispatch goroutines and merge path share one
// ClusterTrace — and the result must still be a valid timeline.
func TestClusterTraceConcurrent(t *testing.T) {
	origin := time.Unix(3000, 0)
	us := origin.UnixMicro()
	ct := obs.NewClusterTrace(origin)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			group := []string{"coordinator", "worker a", "worker b", "merge"}[g]
			for i := int64(0); i < 50; i++ {
				ct.Span(group, "s", us+i*10, 5, nil)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	var buf bytes.Buffer
	if err := ct.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("concurrently-built trace does not validate: %v", err)
	}
}

// recordChecks returns a timeline and the tracer that puts every
// finished check on it — how ltta -trace-out records.
func recordChecks(c *circuit.Circuit) (*obs.ClusterTrace, core.Tracer) {
	ct := obs.NewClusterTrace(time.Now())
	return ct, core.CheckDoneFunc(func(rep *core.Report) {
		ct.Check("checks", c.Net(rep.Sink).Name, rep, nil)
	})
}

// spanNames writes the timeline and returns countSpans of it plus its
// text.
func spanNames(t *testing.T, ct *obs.ClusterTrace) (map[string]int, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := ct.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, names := countSpans(t, buf.Bytes())
	if n != ct.Len() {
		t.Fatalf("validator saw %d events, trace holds %d", n, ct.Len())
	}
	return names, buf.String()
}

// countSpans validates trace_event JSON and counts its X spans by name
// ("check <sink>" spans count under "check").
func countSpans(t *testing.T, raw []byte) (int, map[string]int) {
	t.Helper()
	n, err := obs.ValidateTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, raw)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			names[strings.SplitN(ev.Name, " ", 2)[0]]++
		}
	}
	return n, names
}

// TestClusterTraceCheckRoundTrip records a parallel sweep through
// Check and expects a valid timeline — every stage span nested in its
// check span on one lane, the property Perfetto needs — holding at
// least one check span and one fixpoint span per output checked.
func TestClusterTraceCheckRoundTrip(t *testing.T) {
	c := gen.Industrial(3, 16, 10)
	v := core.NewVerifier(c, core.Default())
	ct, tr := recordChecks(c)
	cr := v.RunAll(context.Background(), core.Request{
		Delta: v.Topological().Add(1), Workers: 4, Tracer: tr,
	})
	names, text := spanNames(t, ct)
	if names["check"] < len(cr.PerOutput) || names["fixpoint"] < len(cr.PerOutput) {
		t.Fatalf("%d check and %d fixpoint spans for %d outputs", names["check"], names["fixpoint"], len(cr.PerOutput))
	}
	for _, want := range []string{`"displayTimeUnit":"ms"`, `"ph":"M"`, `"name":"lane 1"`, `"verdict":"N"`} {
		if !strings.Contains(text, want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}
}

// TestClusterTraceCheckLaneRecycling runs a serial sweep — at most one
// check in flight — and expects every check on a single lane rather
// than one lane per check.
func TestClusterTraceCheckLaneRecycling(t *testing.T) {
	c := gen.CarrySkipAdder(8, 4, 10)
	v := core.NewVerifier(c, core.Default())
	ct, tr := recordChecks(c)
	cr := v.RunAll(context.Background(), core.Request{
		Delta: v.Topological().Add(1), Workers: 1, Tracer: tr,
	})
	names, text := spanNames(t, ct)
	if names["check"] != len(cr.PerOutput) {
		t.Fatalf("%d check spans for %d checks", names["check"], len(cr.PerOutput))
	}
	if !strings.Contains(text, `"name":"lane 1"`) {
		t.Fatal("no lane metadata recorded")
	}
	if strings.Contains(text, `"name":"lane 2"`) {
		t.Fatal("serial sweep opened a second lane; recycling is broken")
	}
}

// TestClusterTraceCheckStages pins the report conversion: stages whose
// verdict column is "-" get no span, one that ran in under a
// microsecond gets a 0 µs span, the rest are laid end to end from the
// check start, and a report with no stage time gets the check span
// alone.
func TestClusterTraceCheckStages(t *testing.T) {
	origin := time.Unix(4000, 0)
	ct := obs.NewClusterTrace(origin)
	rep := core.AbortedReport(0, 30, core.NoViolation)
	rep.AfterGITD, rep.AfterStem = core.PossibleViolation, core.NoViolation
	rep.Started, rep.Elapsed = origin.Add(100*time.Microsecond), 20*time.Microsecond
	rep.Stats.StageTime = [core.NumStages]time.Duration{300 * time.Nanosecond, 5 * time.Microsecond, 3 * time.Microsecond, 0}
	ct.Check("checks", "s", rep, map[string]any{"trace_id": "x"})
	ct.Check("checks", "t", core.AbortedReport(1, 30, core.Cancelled), nil)

	var buf bytes.Buffer
	if err := ct.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	countSpans(t, buf.Bytes())
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	type span struct {
		name    string
		ts, dur float64
	}
	var got []span
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name != "check t" {
			got = append(got, span{ev.Name, ev.Ts, ev.Dur})
		}
	}
	want := []span{{"check s", 100, 20}, {"fixpoint", 100, 0}, {"gitd", 100, 5}, {"stems", 105, 3}}
	if len(got) != len(want) {
		t.Fatalf("spans %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spans %+v, want %+v", got, want)
		}
	}
	text := buf.String()
	for _, want := range []string{`"name":"check t"`, `"final":"C"`, `"trace_id":"x"`, `"verdict":"P"`} {
		if !strings.Contains(text, want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"ts regression": `{"traceEvents":[
			{"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":3,"dur":1,"pid":1,"tid":1}]}`,
		"overlapping, not nested": `{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"dur":5,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":4,"dur":5,"pid":1,"tid":1}]}`,
		"B/E pair": `{"traceEvents":[
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"a","ph":"E","ts":2,"pid":1,"tid":1}]}`,
		"unknown phase": `{"traceEvents":[
			{"name":"a","ph":"Q","ts":1,"pid":1,"tid":1}]}`,
		"negative X duration": `{"traceEvents":[
			{"name":"a","ph":"X","ts":1,"dur":-2,"pid":1,"tid":1}]}`,
		"not JSON": `]`,
	}
	for name, text := range cases {
		if _, err := obs.ValidateTrace(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected validation error on %s", name, text)
		}
	}
	// Lanes are independent: interleaved timestamps across lanes are
	// fine as long as each lane is monotone, and on one lane spans may
	// nest (sharing an endpoint included) or follow one another.
	ok := `{"traceEvents":[
		{"name":"a","ph":"X","ts":5,"dur":4,"pid":1,"tid":1},
		{"name":"b","ph":"X","ts":1,"dur":1,"pid":1,"tid":2},
		{"name":"a1","ph":"X","ts":5,"dur":0,"pid":1,"tid":1},
		{"name":"a2","ph":"X","ts":5,"dur":4,"pid":1,"tid":1},
		{"name":"c","ph":"X","ts":9,"dur":1,"pid":1,"tid":1}]}`
	if n, err := obs.ValidateTrace(strings.NewReader(ok)); err != nil || n != 5 {
		t.Fatalf("nested and cross-lane spans should validate, got n=%d err=%v", n, err)
	}
}

// TestTraceFile validates a timeline written by a real binary: CI runs
// ltta -trace-out and lttad -trace-dir, then this test with TRACE_FILE
// pointing at each file. Skips when unset.
func TestTraceFile(t *testing.T) {
	path := os.Getenv("TRACE_FILE")
	if path == "" {
		t.Skip("TRACE_FILE not set (CI-only timeline validation)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, names := countSpans(t, raw)
	if names["check"] == 0 || names["fixpoint"] == 0 {
		t.Fatalf("%s: %d events but %d check and %d fixpoint spans", path, n, names["check"], names["fixpoint"])
	}
	t.Logf("%s: %d events, spans by name %v", path, n, names)
}
