package server_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/server"
)

// TestQueueFullBackpressure pins the bounded-admission contract: with
// the single queue slot held by an in-flight batch, the next
// submission is rejected with 429 + Retry-After instead of queueing,
// and admission recovers once the slot frees.
func TestQueueFullBackpressure(t *testing.T) {
	src := gen.C17(10)
	bench := circuit.BenchString(src)
	top := int64(delay.New(src).Topological())

	s := server.New(server.Config{Workers: 1, QueueDepth: 1, MaxChecks: 1 << 20, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		ts.Close()
	})
	cl := client.New(ts.URL)

	// Occupy the only slot: a streaming sweep big enough (megabytes of
	// NDJSON) that, with the client not reading past the first event,
	// the server blocks writing — the handler stays alive and the slot
	// stays held until we release the stream.
	admitted := make(chan struct{})
	release := make(chan struct{})
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- cl.Stream(context.Background(), server.Request{
			Netlist: bench,
			Sweep:   &server.SweepSpec{Deltas: manyDeltas(top+1, 16384)},
		}, func(ev server.Event) error {
			if ev.Type == "circuit" {
				close(admitted)
				<-release // hold the response (and so the slot) open
			}
			return nil
		})
	}()
	select {
	case <-admitted:
	case err := <-streamErr:
		t.Fatalf("stream ended before admission: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("batch never admitted")
	}

	_, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: bench, Sweep: &server.SweepSpec{Deltas: []int64{top + 1}},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != "queue_full" {
		t.Fatalf("full queue: want 429 queue_full, got %v", err)
	}
	if !apiErr.Temporary() || apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("429 must carry the configured Retry-After: %+v", apiErr)
	}

	close(release)
	if err := <-streamErr; err != nil {
		t.Fatalf("held stream failed: %v", err)
	}
	// Slot released: the same submission is admitted now.
	if _, err := cl.CheckInline(context.Background(), server.Request{
		Netlist: bench, Sweep: &server.SweepSpec{Deltas: []int64{top + 1}},
	}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func manyDeltas(start int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)
	}
	return out
}
