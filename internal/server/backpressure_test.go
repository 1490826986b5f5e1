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

// TestRejectedInlineKeepsUploads: a batch takes its queue slot before
// its circuit is resolved, so an inline check refused with 429 neither
// registers its netlist nor evicts an uploaded circuit from a
// one-circuit registry, on either tier. A worker never registers
// inline netlists, so one refused for an unknown sink after admission
// leaves the upload in place too.
func TestRejectedInlineKeepsUploads(t *testing.T) {
	src := gen.C17(10)
	bench := circuit.BenchString(src)
	top := int64(delay.New(src).Topological())

	tiers := []struct {
		name      string
		start     func(t *testing.T) string
		transient bool // the tier builds inline netlists for their batch alone
	}{
		{"worker", func(t *testing.T) string {
			s := server.New(server.Config{Workers: 1, QueueDepth: 1, RegistryMaxCircuits: 1})
			ts := httptest.NewServer(s)
			t.Cleanup(func() {
				_ = s.Shutdown(context.Background())
				ts.Close()
			})
			return ts.URL
		}, true},
		{"coordinator", func(t *testing.T) string {
			w := startClusterWorker(t, server.Config{Workers: 1, QueueDepth: 2})
			co := server.NewCoordinator(server.CoordConfig{Workers: []string{w.addr}, QueueDepth: 1,
				HedgeAfter: -1, RegistryMaxCircuits: 1})
			cts := httptest.NewServer(co)
			t.Cleanup(func() {
				_ = co.Shutdown(context.Background())
				cts.Close()
				w.stop()
			})
			return cts.URL
		}, false},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			cl := client.New(tier.start(t))
			ctx := context.Background()
			kept, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "kept"})
			if err != nil {
				t.Fatal(err)
			}

			// Hold the only slot with a stream the client stops reading,
			// as in TestQueueFullBackpressure, checking the upload by hash.
			admitted := make(chan struct{})
			release := make(chan struct{})
			streamErr := make(chan error, 1)
			go func() {
				streamErr <- cl.StreamByHash(ctx, kept, server.Request{
					Sweep: &server.SweepSpec{Deltas: manyDeltas(top+1, 16384)},
				}, func(ev server.Event) error {
					if ev.Type == "circuit" {
						close(admitted)
						<-release
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
			other := server.Request{Netlist: bench, Name: "other",
				Checks: []server.CheckSpec{{Sink: "G22", Delta: top + 1}}}
			_, err = cl.CheckInline(ctx, other)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != "queue_full" {
				t.Fatalf("full queue: want 429 queue_full, got %v", err)
			}
			close(release)
			if err := <-streamErr; err != nil {
				t.Fatalf("held stream failed: %v", err)
			}

			if tier.transient {
				other.Checks[0].Sink = "nope"
				if _, err := cl.CheckInline(ctx, other); !errors.As(err, &apiErr) || apiErr.Code != "unknown_sink" {
					t.Fatalf("unknown sink: want 400 unknown_sink, got %v", err)
				}
			}
			resp, err := cl.CheckByHash(ctx, kept, server.Request{
				Checks: []server.CheckSpec{{Sink: "G22", Delta: top + 1}}})
			if err != nil {
				t.Fatalf("uploaded circuit lost to a rejected inline check: %v", err)
			}
			if len(resp.Results) != 1 || resp.Results[0].Final == "" {
				t.Fatalf("check by hash answered %+v", resp.Results)
			}
		})
	}
}
