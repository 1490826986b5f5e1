package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/server"
)

// TestDrainMidFlight is the graceful-drain contract under load (run
// with -race in CI): a δ-sweep over a 48-block industrial circuit is
// interrupted by a SIGTERM-equivalent shutdown mid-flight, and still
// every accepted check reports exactly one terminal result —
// Violation, NoViolation, or Cancelled — while new submissions are
// rejected with 503 and the server stops within the drain deadline.
func TestDrainMidFlight(t *testing.T) {
	src := gen.Industrial(7, 48, 10)
	bench := circuit.BenchString(src)
	local, err := circuit.ParseBenchString(bench, circuit.BenchOptions{DefaultDelay: 10, Name: "ind48"})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(delay.New(local).Topological())
	// δ alternately above and at or below the topological delay:
	// refutations and witnesses, never budget exhaustion, and enough
	// checks (len(deltas) × #POs) that the drain deadline lands
	// mid-batch, leaving a cancelled tail. Above the topological delay
	// every check is refuted by its cone's base snapshot in well under
	// a microsecond, so the witnesses below it are what keep the batch
	// running when the drain lands.
	var deltas []int64
	for k := int64(1); k <= 32; k++ {
		deltas = append(deltas, top+k, top+1-k)
	}
	wantChecks := len(deltas) * len(local.PrimaryOutputs())

	s := server.New(server.Config{Workers: 2, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	cl := client.New(ts.URL)

	type key struct {
		delta int64
		index int
	}
	var (
		mu      sync.Mutex
		seen    = map[key]string{}
		sawInfo *server.CircuitInfo
	)
	started := make(chan struct{})
	var startOnce sync.Once
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- cl.Stream(context.Background(), server.Request{
			Netlist: bench, Name: "ind48",
			Sweep: &server.SweepSpec{Deltas: deltas},
		}, func(ev server.Event) error {
			switch ev.Type {
			case "circuit":
				mu.Lock()
				sawInfo = ev.Circuit
				mu.Unlock()
			case "check":
				mu.Lock()
				k := key{delta: ev.Check.Delta, index: ev.Check.Index}
				if prev, dup := seen[k]; dup {
					mu.Unlock()
					return fmt.Errorf("check (δ=%d, #%d) answered twice: %s then %s", k.delta, k.index, prev, ev.Check.Final)
				}
				seen[k] = ev.Check.Final
				n := len(seen)
				mu.Unlock()
				if n >= 5 {
					startOnce.Do(func() { close(started) })
				}
			}
			return nil
		})
	}()

	// A few checks in: the SIGTERM path. BeginDrain rejects new work at
	// once; Shutdown with a short deadline cancels whatever the pool has
	// not finished by then — those checks must still answer (verdict C).
	select {
	case <-started:
	case err := <-streamErr:
		t.Fatalf("stream ended before shutdown could interrupt it: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no check events within 30s")
	}
	// An already-expired drain deadline is the harshest SIGTERM: the
	// remaining checks are cancelled at once and must still each answer.
	drainStart := time.Now()
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(dctx) // non-nil exactly when the deadline cancelled leftovers
	if d := time.Since(drainStart); d > 10*time.Second {
		t.Fatalf("shutdown took %s with an expired drain deadline", d)
	}

	// Draining (and after): new submissions bounce with 503 + Retry-After.
	_, err = cl.CheckInline(context.Background(), server.Request{
		Netlist: bench, Checks: []server.CheckSpec{{Sink: local.Net(local.PrimaryOutputs()[0]).Name, Delta: top}},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != "draining" {
		t.Fatalf("draining submit: want 503 draining, got %v", err)
	}
	if !apiErr.Temporary() || apiErr.RetryAfter <= 0 {
		t.Fatalf("draining rejection must carry a Retry-After hint: %+v", apiErr)
	}
	if _, err := cl.Readyz(context.Background()); err == nil {
		t.Fatal("readyz must report draining")
	}
	// Liveness is orthogonal: the process is up (and answering the
	// drain 503s above), so /healthz stays 200 while /readyz is 503.
	if h, err := cl.Healthz(context.Background()); err != nil || h.Status != "draining" {
		t.Fatalf("healthz during drain: want 200 with status draining, got %+v, %v", h, err)
	}

	// The in-flight batch must have finished cleanly: stream complete,
	// every accepted check answered exactly once with a terminal verdict.
	select {
	case err := <-streamErr:
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not finish after shutdown")
	}
	mu.Lock()
	defer mu.Unlock()
	if sawInfo == nil || sawInfo.Checks != wantChecks {
		t.Fatalf("circuit event announced %+v, want %d checks", sawInfo, wantChecks)
	}
	if len(seen) != wantChecks {
		t.Fatalf("accepted %d checks, answered %d", wantChecks, len(seen))
	}
	terminal := map[string]int{}
	for k, final := range seen {
		switch final {
		case "V", "N", "C":
			terminal[final]++
		default:
			t.Fatalf("check (δ=%d, #%d) ended %q, want V, N, or C", k.delta, k.index, final)
		}
	}
	t.Logf("terminal results: %v (drain triggered after 5 of %d)", terminal, wantChecks)
	if terminal["N"] == 0 {
		t.Error("no check finished before the drain; the trigger fired too early")
	}
	if terminal["C"] == 0 {
		t.Error("no check was cancelled; the drain landed after the batch finished")
	}

	// Stopped: the listener closes within the deadline's slack.
	closeStart := time.Now()
	ts.Close()
	if d := time.Since(closeStart); d > 10*time.Second {
		t.Fatalf("listener took %s to close after drain", d)
	}
}
