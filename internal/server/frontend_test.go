package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/server"
)

// frontEnd is one serving tier under test: its HTTP address and its
// drain switch.
type frontEnd struct {
	name  string
	url   string
	drain func()
}

// contractTiers starts a worker and a coordinator over one worker,
// both with the same small body and check caps, and returns them in
// that order. Everything is torn down at test cleanup.
func contractTiers(t *testing.T, maxBody int64, maxChecks int) []frontEnd {
	t.Helper()
	worker := server.New(server.Config{Workers: 1, QueueDepth: 2,
		MaxBodyBytes: maxBody, MaxChecks: maxChecks})
	wts := httptest.NewServer(worker)
	coord := server.NewCoordinator(server.CoordConfig{Workers: []string{wts.URL}, QueueDepth: 2,
		MaxBodyBytes: maxBody, MaxChecks: maxChecks, HedgeAfter: -1})
	cts := httptest.NewServer(coord)
	t.Cleanup(func() {
		_ = coord.Shutdown(context.Background())
		cts.Close()
		_ = worker.Shutdown(context.Background())
		wts.Close()
	})
	return []frontEnd{
		{name: "worker", url: wts.URL, drain: worker.BeginDrain},
		{name: "coordinator", url: cts.URL, drain: coord.BeginDrain},
	}
}

// contractReply is what the contract compares across tiers.
type contractReply struct {
	status     int
	code       string
	hash       api.Hash
	retryAfter string
}

func doContract(t *testing.T, method, url, body string) contractReply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb api.ErrorBody
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	_ = json.Unmarshal(buf.Bytes(), &eb)
	return contractReply{status: resp.StatusCode, code: eb.Error.Code, hash: eb.Error.Hash,
		retryAfter: resp.Header.Get("Retry-After")}
}

// TestFrontEndContract pins that a worker and a coordinator answer the
// same malformed, oversized, unknown, and draining submissions with
// the same status, error code, and Retry-After: clients cannot tell
// the tiers apart on any rejection path.
func TestFrontEndContract(t *testing.T) {
	const maxBody, maxChecks = 4096, 3
	tiers := contractTiers(t, maxBody, maxChecks)
	bench := circuit.BenchString(gen.C17(10))
	unknown := api.Hash("sha256:" + strings.Repeat("ab", 32))
	sweep := &api.SweepSpec{Deltas: []int64{40, 50}}
	// c17 has two outputs, so two deltas expand to four checks.
	tooMany, _ := json.Marshal(api.Request{Netlist: bench, Sweep: sweep})
	oversized, _ := json.Marshal(api.Request{Netlist: bench + strings.Repeat("# pad\n", maxBody), Sweep: sweep})
	upload, _ := json.Marshal(api.UploadRequest{Netlist: bench})
	// A delay far past waveform.PosInf once scaled to picoseconds.
	badSDF, _ := json.Marshal(api.UploadRequest{Netlist: bench,
		SDF: "(DELAYFILE (CELL (INSTANCE G10) (DELAY (ABSOLUTE (IOPATH a y (1e30))))))"})
	check, _ := json.Marshal(api.Request{Netlist: bench, Sweep: &api.SweepSpec{Deltas: []int64{50}}})
	noNetlist, _ := json.Marshal(api.Request{Netlist: " \n", Sweep: sweep})
	badFormat, _ := json.Marshal(api.Request{Netlist: bench, Format: "vhdl", Sweep: sweep})
	badDelay, _ := json.Marshal(api.Request{Netlist: bench, DefaultDelay: -1, Sweep: sweep})

	cases := []struct {
		name, method, path, body string
		want                     contractReply
	}{
		{"get check", http.MethodGet, "/v1/check", "",
			contractReply{status: http.StatusMethodNotAllowed, code: "method_not_allowed"}},
		{"malformed json", http.MethodPost, "/v1/check", `{"netlist":`,
			contractReply{status: http.StatusBadRequest, code: "bad_json"}},
		{"over-cap body", http.MethodPost, "/v1/check", string(oversized),
			contractReply{status: http.StatusRequestEntityTooLarge, code: "body_too_large"}},
		{"malformed hash", http.MethodPost, "/v1/circuits/sha256:nothex/check", `{"sweep":{"deltas":[1]}}`,
			contractReply{status: http.StatusBadRequest, code: "bad_hash"}},
		{"unknown hash", http.MethodPost, "/v1/circuits/" + string(unknown) + "/check", `{"sweep":{"deltas":[1]}}`,
			contractReply{status: http.StatusNotFound, code: "unknown_hash", hash: unknown}},
		{"too many checks", http.MethodPost, "/v1/check", string(tooMany),
			contractReply{status: http.StatusBadRequest, code: "too_many_checks"}},
		{"bad sdf", http.MethodPut, "/v1/circuits", string(badSDF),
			contractReply{status: http.StatusBadRequest, code: "bad_sdf"}},
		{"inline without netlist", http.MethodPost, "/v1/check", string(noNetlist),
			contractReply{status: http.StatusBadRequest, code: "missing_netlist"}},
		{"inline bad format", http.MethodPost, "/v1/check", string(badFormat),
			contractReply{status: http.StatusBadRequest, code: "bad_format"}},
		{"inline bad delay", http.MethodPost, "/v1/check", string(badDelay),
			contractReply{status: http.StatusBadRequest, code: "bad_delay"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, fe := range tiers {
				if got := doContract(t, tc.method, fe.url+tc.path, tc.body); got != tc.want {
					t.Errorf("%s: got %+v, want %+v", fe.name, got, tc.want)
				}
			}
		})
	}

	t.Run("draining", func(t *testing.T) {
		want := contractReply{status: http.StatusServiceUnavailable, code: "draining", retryAfter: "1"}
		for _, fe := range tiers {
			fe.drain()
			if got := doContract(t, http.MethodPut, fe.url+"/v1/circuits", string(upload)); got != want {
				t.Errorf("%s upload: got %+v, want %+v", fe.name, got, want)
			}
			if got := doContract(t, http.MethodPost, fe.url+"/v1/check", string(check)); got != want {
				t.Errorf("%s check: got %+v, want %+v", fe.name, got, want)
			}
			by := doContract(t, http.MethodPost, fe.url+"/v1/circuits/"+string(unknown)+"/check", `{"sweep":{"deltas":[1]}}`)
			if by != want {
				t.Errorf("%s check by hash: got %+v, want %+v", fe.name, by, want)
			}
			if got := doContract(t, http.MethodGet, fe.url+"/readyz", ""); got.status != http.StatusServiceUnavailable ||
				got.retryAfter != "1" {
				t.Errorf("%s /readyz while draining: got %+v, want 503 with Retry-After 1", fe.name, got)
			}
		}
	})
}

// TestCoordReadyzTracksLiveWorkers pins that coordinator readiness
// follows its cluster: ready once a probe round finds a live worker,
// and back to 503 "starting" once the probe loop sees every worker
// gone — a coordinator with nothing behind it must leave the load
// balancer.
func TestCoordReadyzTracksLiveWorkers(t *testing.T) {
	worker := server.New(server.Config{Workers: 1})
	wts := httptest.NewServer(worker)
	coord := server.NewCoordinator(server.CoordConfig{Workers: []string{wts.URL},
		ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond})
	cts := httptest.NewServer(coord)
	t.Cleanup(func() {
		_ = coord.Shutdown(context.Background())
		cts.Close()
	})

	waitReadyz := func(wantStatus int, wantBody string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(cts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			var h api.Health
			_ = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == wantStatus && h.Status == wantBody {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("/readyz never reached %d %q (last: %d %+v)", wantStatus, wantBody, resp.StatusCode, h)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitReadyz(http.StatusOK, "ok")

	_ = worker.Shutdown(context.Background())
	wts.Close()
	waitReadyz(http.StatusServiceUnavailable, "starting")
}
