package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// reference is the in-process answer to one distinct check, computed
// before any timing with core.Prepare(c).NewVerifier(serverOptions()).Run.
type reference struct {
	// Want is the answer converted exactly as lttad converts it; every
	// field but wall clocks, trace attribution and cluster placement
	// must match the served answer.
	Want api.CheckResult
	// C and Sink replay served witnesses through sim.Run. C is nil when
	// the circuit was not kept (cold_uploads); the reference witness was
	// then replayed when it was computed, and a served witness equal to
	// it replays the same.
	C    *circuit.Circuit
	Sink circuit.NetID
}

type refTable map[checkKey]*reference

// referencesFor answers every check of input i in-process. With
// maxBacktracks > 0 the search is capped there and a check that hits
// the cap reports errTooHard; under the cap the answer is identical to
// the uncapped one, because the search is deterministic.
func referencesFor(i int, in *circuitInput, maxBacktracks int, keepCircuit bool) (refTable, error) {
	v := core.Prepare(in.C).NewVerifier(serverOptions())
	refs := refTable{}
	for _, k := range keysOf(i, in) {
		sink, ok := in.C.NetByName(k.Sink)
		if !ok {
			return nil, fmt.Errorf("%s: no net %q", in.Name, k.Sink)
		}
		rep := v.Run(context.Background(), core.Request{Sink: sink, Delta: waveform.Time(k.Delta),
			Budgets: core.Budgets{MaxBacktracks: maxBacktracks}})
		switch rep.Final {
		case core.Abandoned:
			if maxBacktracks > 0 {
				return nil, errTooHard
			}
			return nil, fmt.Errorf("%s (%s, δ=%d): reference abandoned", in.Name, k.Sink, k.Delta)
		case core.Cancelled:
			return nil, fmt.Errorf("%s (%s, δ=%d): reference cancelled", in.Name, k.Sink, k.Delta)
		}
		ref := &reference{Want: server.ResultFromReport(in.C, 0, rep), C: in.C, Sink: sink}
		ref.Want.ElapsedUs = 0 // wall clock: never compared
		if err := replayWitness(ref, ref.Want); err != nil {
			return nil, fmt.Errorf("reference %w", err)
		}
		if !keepCircuit {
			ref.C = nil
		}
		refs[k] = ref
	}
	return refs, nil
}

var errTooHard = fmt.Errorf("reference exceeds the generator's backtrack cap")

// warmReferences answers every distinct check of the warm inputs, one
// circuit per CPU at a time.
func warmReferences(inputs []*circuitInput) (refTable, error) {
	parts := make([]refTable, len(inputs))
	err := parallel(runtime.NumCPU(), len(inputs), func(i int) error {
		var err error
		parts[i], err = referencesFor(i, inputs[i], 0, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	refs := refTable{}
	for _, p := range parts {
		for k, r := range p {
			refs[k] = r
		}
	}
	return refs, nil
}

// parallel runs f(0..n-1) on the given number of goroutines and returns
// the first error; after one, no further call starts.
func parallel(workers, n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// checkAnswer compares one served answer, at batch position index,
// against its reference, and replays a served witness.
func checkAnswer(got api.CheckResult, ref *reference, index int) error {
	g := got
	g.ElapsedUs, g.TraceID, g.SpanID, g.StartUnixUs, g.StageUs = 0, "", "", 0, nil
	g.Worker, g.Attempt = "", 0
	want := ref.Want
	want.Index = index
	if diff := fieldDiff(g, want); diff != "" {
		return fmt.Errorf("check %d (%s, δ=%d): served answer differs from the reference: %s",
			index, want.Sink, want.Delta, diff)
	}
	return replayWitness(ref, got)
}

// fieldDiff names every field in which two answers differ, as
// "Field served/reference".
func fieldDiff(got, want api.CheckResult) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	var parts []string
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			parts = append(parts, fmt.Sprintf("%s %v/%v", gv.Type().Field(i).Name, g, w))
		}
	}
	return strings.Join(parts, ", ")
}

// replayWitness simulates a V answer's witness in floating mode and
// requires its sink to settle exactly at the reported time, at or after
// δ.
func replayWitness(ref *reference, r api.CheckResult) error {
	if r.Final != core.ViolationFound.String() || ref.C == nil {
		return nil
	}
	vec, err := server.DecodeWitness(r.Witness)
	if err != nil {
		return fmt.Errorf("(%s, δ=%d): %w", r.Sink, r.Delta, err)
	}
	res, err := sim.Run(ref.C, vec)
	if err != nil {
		return fmt.Errorf("(%s, δ=%d): replaying witness: %w", r.Sink, r.Delta, err)
	}
	settle := int64(res.OutputSettle(ref.Sink))
	if settle != r.WitnessSettle || settle < r.Delta {
		return fmt.Errorf("(%s, δ=%d): witness %s settles at %d, answer claims %d",
			r.Sink, r.Delta, r.Witness, settle, r.WitnessSettle)
	}
	return nil
}
