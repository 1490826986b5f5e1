package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// goExecutor runs each of the first accept tasks on its own goroutine
// and refuses every submission after them.
func goExecutor(accept int) func(context.Context, func()) bool {
	var mu sync.Mutex
	n := 0 // guarded by mu
	return func(_ context.Context, f func()) bool {
		mu.Lock()
		defer mu.Unlock()
		if n >= accept {
			return false
		}
		n++
		go f()
		return true
	}
}

// withoutClocks copies a report with its wall-clock fields zeroed: the
// only fields two runs of one check may disagree on.
func withoutClocks(r *Report) Report {
	c := *r
	c.Started, c.Elapsed, c.Stats.StageTime = time.Time{}, 0, [NumStages]time.Duration{}
	return c
}

// TestFirstWitnessRefusedOutputsCancelled: an executor that refuses
// every submission after the k-th leaves each refused output a
// Cancelled report for its own sink and δ, while the accepted ones are
// answered.
func TestFirstWitnessRefusedOutputsCancelled(t *testing.T) {
	c := gen.Industrial(3, 16, 10)
	v := NewVerifier(c, Default())
	pos := c.PrimaryOutputs()
	delta := v.Topological().Add(1) // no witness: every output is kept
	const k = 2
	reports := v.FirstWitness(context.Background(), delta, goExecutor(k), func(ctx context.Context, i int) *Report {
		return v.Run(ctx, Request{Sink: pos[i], Delta: delta})
	})
	if len(reports) != len(pos) {
		t.Fatalf("%d reports for %d outputs", len(reports), len(pos))
	}
	for i, rep := range reports {
		want := NoViolation
		if i >= k {
			want = Cancelled
		}
		if rep.Final != want || rep.Sink != pos[i] || rep.Delta != delta {
			t.Errorf("output %d: report (%v, %s, %s), want (%v, %s, %s)",
				i, rep.Sink, rep.Delta, rep.Final, pos[i], delta, want)
		}
	}
	if cr := AggregateCircuit(delta, reports); cr.Final != Cancelled {
		t.Errorf("aggregate %s, want C", cr.Final)
	}
}

// TestFirstWitnessSerialPrefix: with the first witness at output 1, the
// function returns exactly reports[:2], equal to the serial sweep's,
// whichever order the executor runs the checks in — each task on its
// own goroutine, or all of them in reverse order after the last
// submission, so the later (also violable) output finishes first and
// is discarded.
func TestFirstWitnessSerialPrefix(t *testing.T) {
	c := gen.Industrial(2, 16, 10) // per-output delays 210, 290, 10, 290
	v := NewVerifier(c, Default())
	pos := c.PrimaryOutputs()
	const delta, witness = 290, 1
	serial := v.runAllSerial(context.Background(), Request{Delta: delta})
	if serial.WitnessOutput != witness || len(serial.PerOutput) != witness+1 {
		t.Fatalf("serial sweep: witness %d over %d reports, want %d", serial.WitnessOutput, len(serial.PerOutput), witness)
	}
	want := make([]Report, len(serial.PerOutput))
	for i, r := range serial.PerOutput {
		want[i] = withoutClocks(r)
	}

	reverse := func() func(context.Context, func()) bool {
		var tasks []func()
		return func(_ context.Context, f func()) bool {
			tasks = append(tasks, f)
			if len(tasks) == len(pos) {
				go func() {
					for i := len(tasks) - 1; i >= 0; i-- {
						tasks[i]()
					}
				}()
			}
			return true
		}
	}
	for name, submit := range map[string]func(context.Context, func()) bool{
		"goroutine per task": goExecutor(len(pos)),
		"reverse order":      reverse(),
	} {
		t.Run(name, func(t *testing.T) {
			reports := v.FirstWitness(context.Background(), delta, submit, func(ctx context.Context, i int) *Report {
				return v.Run(ctx, Request{Sink: pos[i], Delta: delta})
			})
			got := make([]Report, len(reports))
			for i, r := range reports {
				got[i] = withoutClocks(r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prefix differs from the serial sweep:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFirstWitnessCancelsLaterOutputs: a witness on output w cancels
// the checks still running on later outputs (each here blocks until its
// context ends), and earlier outputs keep their answers.
func TestFirstWitnessCancelsLaterOutputs(t *testing.T) {
	c := gen.Industrial(1, 16, 10)
	v := NewVerifier(c, Default())
	pos := c.PrimaryOutputs()
	const w = 1
	var started sync.WaitGroup
	started.Add(len(pos) - w - 1)
	reports := v.FirstWitness(context.Background(), 0, goExecutor(len(pos)), func(ctx context.Context, i int) *Report {
		rep := AbortedReport(pos[i], 0, NoViolation)
		switch {
		case i == w:
			started.Wait() // every later output is running
			rep.Final = ViolationFound
		case i > w:
			started.Done()
			<-ctx.Done()
			rep.Final = Cancelled
		}
		return rep
	})
	if len(reports) != w+1 || reports[w].Final != ViolationFound || reports[0].Final != NoViolation {
		t.Fatalf("got %d reports ending %s, want the prefix up to the witness on output %d", len(reports), reports[len(reports)-1].Final, w)
	}
}
