package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
)

func newRegistryTestServer(t *testing.T, cfg server.Config) (*client.Client, func()) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s)
	cl := client.New(ts.URL)
	return cl, func() {
		ts.Close()
		_ = s.Shutdown(context.Background())
	}
}

func zeroResultClocks(results []server.CheckResult) {
	for i := range results {
		results[i].ElapsedUs = 0
		// Trace attribution is fresh per submission by design (span ids
		// are random, starts are wall clock); differential comparisons
		// care about verdicts and statistics only.
		results[i].TraceID, results[i].SpanID = "", ""
		results[i].StartUnixUs, results[i].StageUs = 0, nil
	}
}

func zeroResponseClocks(resp *server.Response) {
	resp.Done.ElapsedUs = 0
	resp.TraceID = ""
	zeroResultClocks(resp.Results)
	zeroRowClocks(resp.Rows)
	zeroSweepClocks(resp.Sweeps)
}

// TestRegistryDifferentialInline is the registry-path acceptance test:
// Upload + CheckByHash must produce responses field-identical (modulo
// wall clocks) to the inline /v1/check on the same request, across the
// substitute-suite circuits — same verdicts, same witnesses, same
// engine statistics. The prepared state being cached and shared must
// be observationally invisible.
func TestRegistryDifferentialInline(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 4, QueueDepth: 8})
	defer stop()

	for _, e := range gen.SubstituteSuite() {
		switch e.Name {
		case "c17", "c432", "c880": // deep-enough subset; table1 E2E covers the rest
		default:
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			bench := circuit.BenchString(e.Circuit)
			var specs []server.CheckSpec
			for _, po := range e.Circuit.PrimaryOutputs() {
				name := e.Circuit.Net(po).Name
				specs = append(specs, server.CheckSpec{Sink: name, Delta: 40},
					server.CheckSpec{Sink: name, Delta: 10000})
			}
			for _, req := range []server.Request{
				{Checks: specs},
				{Sweep: &server.SweepSpec{Deltas: []int64{40, 10000}}},
			} {
				inlineReq := req
				inlineReq.Netlist, inlineReq.Name = bench, e.Name
				inline, err := cl.CheckInline(context.Background(), inlineReq)
				if err != nil {
					t.Fatalf("inline check: %v", err)
				}

				hash, err := cl.Upload(context.Background(), bench, client.UploadOptions{Name: e.Name})
				if err != nil {
					t.Fatalf("upload: %v", err)
				}
				byHash, err := cl.CheckByHash(context.Background(), hash, req)
				if err != nil {
					t.Fatalf("check by hash: %v", err)
				}

				zeroResponseClocks(inline)
				zeroResponseClocks(byHash)
				if !reflect.DeepEqual(inline, byHash) {
					t.Errorf("registry path diverges from inline:\n got %+v\nwant %+v", byHash, inline)
				}
				if byHash.V != api.Version {
					t.Errorf("response version %d, want %d", byHash.V, api.Version)
				}
			}
		})
	}
}

// TestRegistryWarmZeroWork is the tentpole acceptance criterion: after
// one upload, a warm hash-addressed check performs zero netlist parses
// and zero core.Prepare calls — proven by the server's own counters in
// the Prometheus exposition (the counters CI scrapes and asserts on).
func TestRegistryWarmZeroWork(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 2, QueueDepth: 4})
	defer stop()
	ctx := context.Background()

	bench := circuit.BenchString(gen.C17(10))
	hash, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	req := server.Request{Checks: []server.CheckSpec{{Sink: "G22", Delta: 40}, {Sink: "G23", Delta: 51}}}
	first, err := cl.CheckByHash(ctx, hash, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.CheckByHash(ctx, hash, req)
	if err != nil {
		t.Fatal(err)
	}
	zeroResponseClocks(first)
	zeroResponseClocks(second)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("warm check answered differently:\n got %+v\nwant %+v", second, first)
	}

	m := scrapeMetrics(t, cl)
	// One parse at upload, one Prepare on the cold check, and nothing —
	// no parse, no Prepare — on the warm one.
	for name, want := range map[string]int64{
		"lttad_netlist_parses_total":    1,
		"lttad_registry_prepares_total": 1,
		"lttad_registry_misses_total":   1,
		"lttad_registry_hits_total":     1,
		"lttad_registry_circuits":       1,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("exposition %s = %d (present %v), want %d (%+v)", name, got, ok, want, m)
		}
	}
	if m["lttad_registry_resident_bytes"] <= 0 {
		t.Errorf("resident-bytes gauge not populated: %+v", m)
	}
}

// TestRegistryUploadIdempotent: identical uploads return one hash and
// one created=true; annotation order does not change the address.
func TestRegistryUploadIdempotent(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	defer stop()
	ctx := context.Background()
	bench := circuit.BenchString(gen.C17(10))

	opts := client.UploadOptions{Name: "c17", Delays: []api.DelayAnnotation{
		{Net: "G10", Delay: 12}, {Net: "G11", Delay: 9},
	}}
	h1, err := cl.Upload(ctx, bench, opts)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := opts
	shuffled.Delays = []api.DelayAnnotation{{Net: "G11", Delay: 9}, {Net: "G10", Delay: 12}}
	h2, err := cl.Upload(ctx, bench, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("annotation order changed the served hash: %s vs %s", h1, h2)
	}
	m := scrapeMetrics(t, cl)
	created, existing := m[`lttad_registry_uploads_total{result="created"}`], m[`lttad_registry_uploads_total{result="existing"}`]
	if created != 1 || existing != 1 {
		t.Fatalf("upload counters: created=%d existing=%d, want 1/1", created, existing)
	}
	if m["lttad_netlist_parses_total"] != 1 {
		t.Fatalf("re-upload parsed again: %d parses", m["lttad_netlist_parses_total"])
	}
}

// TestUploadRejectsBadAnnotations: a delay annotation's dmin is
// validated and hashed but not stored, so the upload path is the only
// place it can still fail. Each malformed annotation answers 400 with
// its stable code; dmin at either end of [0, delay] is accepted.
func TestUploadRejectsBadAnnotations(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	defer stop()
	ctx := context.Background()
	bench := circuit.BenchString(gen.C17(10))
	cases := []struct {
		name   string
		delays []api.DelayAnnotation
		code   string // "": accepted
	}{
		{"dmin below 0", []api.DelayAnnotation{{Net: "G10", Delay: 12, DMin: -1}}, "bad_annotation"},
		{"dmin above delay", []api.DelayAnnotation{{Net: "G10", Delay: 12, DMin: 13}}, "bad_annotation"},
		{"delay 0", []api.DelayAnnotation{{Net: "G10", Delay: 0}}, "bad_annotation"},
		{"no net", []api.DelayAnnotation{{Net: " ", Delay: 12}}, "bad_annotation"},
		{"primary input", []api.DelayAnnotation{{Net: "G1", Delay: 12}}, "bad_annotation"},
		{"duplicates differing in dmin", []api.DelayAnnotation{{Net: "G10", Delay: 12, DMin: 3}, {Net: "G10", Delay: 12, DMin: 4}}, "conflicting_annotation"},
		{"dmin 0", []api.DelayAnnotation{{Net: "G10", Delay: 12}}, ""},
		{"dmin equal to delay", []api.DelayAnnotation{{Net: "G10", Delay: 12, DMin: 12}}, ""},
	}
	for _, tc := range cases {
		_, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "c17", Delays: tc.delays})
		var apiErr *client.APIError
		switch {
		case tc.code == "" && err != nil:
			t.Errorf("%s: %v, want accepted", tc.name, err)
		case tc.code != "" && (!errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != tc.code):
			t.Errorf("%s: %v, want 400 %s", tc.name, err, tc.code)
		}
	}
}

// TestRegistryUnknownHash: a well-formed but unregistered hash answers
// 404 with the stable code and the hash echoed back; a malformed hash
// and a hash-check smuggling a netlist are 400s.
func TestRegistryUnknownHash(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 1, QueueDepth: 2})
	defer stop()
	ctx := context.Background()
	req := server.Request{Checks: []server.CheckSpec{{Sink: "G22", Delta: 40}}}

	ghost := api.NewHash([32]byte{0xde, 0xad, 0xbe, 0xef})
	_, err := cl.CheckByHash(ctx, ghost, req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("unknown hash: got %v, want *client.APIError", err)
	}
	if apiErr.Status != 404 || apiErr.Code != "unknown_hash" || !apiErr.UnknownHash() {
		t.Fatalf("unknown hash: %+v", apiErr)
	}
	if apiErr.Hash != ghost {
		t.Fatalf("error echoes hash %q, want %q", apiErr.Hash, ghost)
	}

	if _, err := cl.CheckByHash(ctx, "sha256:nope", req); !errors.As(err, &apiErr) ||
		apiErr.Status != 400 || apiErr.Code != "bad_hash" {
		t.Fatalf("malformed hash: %v", err)
	}

	bench := circuit.BenchString(gen.C17(10))
	hash, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	smuggled := req
	smuggled.Netlist = bench
	if _, err := cl.CheckByHash(ctx, hash, smuggled); !errors.As(err, &apiErr) ||
		apiErr.Status != 400 || apiErr.Code != "netlist_in_hash_check" {
		t.Fatalf("netlist in hash check: %v", err)
	}
}

// TestRegistryConcurrentColdHTTP drives the singleflight through the
// full HTTP stack: N concurrent first checks on one freshly uploaded
// hash must run exactly one Prepare, and all answers must be
// identical.
func TestRegistryConcurrentColdHTTP(t *testing.T) {
	const n = 8
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 4, QueueDepth: n})
	defer stop()
	ctx := context.Background()

	bench := circuit.BenchString(gen.C17(10))
	hash, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	req := server.Request{Sweep: &server.SweepSpec{Deltas: []int64{40, 51}}}

	var wg sync.WaitGroup
	responses := make([]*server.Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = cl.CheckByHash(ctx, hash, req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent check %d: %v", i, err)
		}
		zeroResponseClocks(responses[i])
		if !reflect.DeepEqual(responses[i], responses[0]) {
			t.Errorf("concurrent check %d answered differently", i)
		}
	}

	m := scrapeMetrics(t, cl)
	prepares, coalesced := m["lttad_registry_prepares_total"], m["lttad_registry_singleflight_coalesced_total"]
	hits, misses := m["lttad_registry_hits_total"], m["lttad_registry_misses_total"]
	if prepares != 1 {
		t.Fatalf("%d concurrent cold checks ran %d Prepares, want 1 (coalesced=%d misses=%d hits=%d)",
			n, prepares, coalesced, misses, hits)
	}
	if hits+misses != n {
		t.Fatalf("hit/miss accounting: hits=%d misses=%d, want sum %d", hits, misses, n)
	}
	if coalesced != misses-1 {
		t.Fatalf("coalesced=%d, want misses-1=%d", coalesced, misses-1)
	}
	if m["lttad_netlist_parses_total"] != 1 {
		t.Fatalf("hash checks parsed netlists: %d parses", m["lttad_netlist_parses_total"])
	}
}

// uploadAndCheck runs a request carrying its netlist the registry way:
// an idempotent Upload, then CheckByHash on the returned address.
func uploadAndCheck(ctx context.Context, cl *client.Client, req server.Request) (*server.Response, error) {
	hash, err := cl.Upload(ctx, req.Netlist, client.UploadOptions{
		Format: req.Format, Name: req.Name, DefaultDelay: req.DefaultDelay,
	})
	if err != nil {
		return nil, err
	}
	req.Netlist, req.Format, req.Name, req.DefaultDelay = "", "", "", 0
	return cl.CheckByHash(ctx, hash, req)
}

// TestUploadCheckByHashRidesRegistry: repeated upload-then-check
// batches on one netlist parse and prepare once and hit the cache.
func TestUploadCheckByHashRidesRegistry(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 2, QueueDepth: 4})
	defer stop()
	ctx := context.Background()

	req := server.Request{Netlist: circuit.BenchString(gen.C17(10)), Name: "c17",
		Checks: []server.CheckSpec{{Sink: "G22", Delta: 40}}}
	first, err := uploadAndCheck(ctx, cl, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := uploadAndCheck(ctx, cl, req)
	if err != nil {
		t.Fatal(err)
	}
	zeroResponseClocks(first)
	zeroResponseClocks(second)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated upload-then-check answered differently")
	}
	m := scrapeMetrics(t, cl)
	parses, prepares, hits := m["lttad_netlist_parses_total"], m["lttad_registry_prepares_total"], m["lttad_registry_hits_total"]
	if parses != 1 || prepares != 1 || hits != 1 {
		t.Fatalf("upload-then-check did not ride the cache: parses=%d prepares=%d hits=%d",
			parses, prepares, hits)
	}
}

// TestInlineCheckIsTransient: a worker builds and prepares an inline
// /v1/check netlist for its batch alone. Two identical inline batches
// parse twice and touch none of the registry series, and a later
// upload of the same netlist and name creates its entry, under the
// hash an upload of those fields always gets.
func TestInlineCheckIsTransient(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 2, QueueDepth: 4})
	defer stop()
	ctx := context.Background()

	bench := circuit.BenchString(gen.C17(10))
	req := server.Request{Netlist: bench, Name: "c17", Checks: []server.CheckSpec{{Sink: "G22", Delta: 40}}}
	for i := 0; i < 2; i++ {
		if _, err := cl.CheckInline(ctx, req); err != nil {
			t.Fatalf("inline check %d: %v", i, err)
		}
	}
	m := scrapeMetrics(t, cl)
	for name, want := range map[string]int64{
		"lttad_netlist_parses_total":                      2,
		"lttad_registry_prepares_total":                   0,
		"lttad_registry_hits_total":                       0,
		"lttad_registry_misses_total":                     0,
		`lttad_registry_uploads_total{result="created"}`:  0,
		`lttad_registry_uploads_total{result="existing"}`: 0,
		"lttad_registry_circuits":                         0,
		"lttad_registry_resident_bytes":                   0,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("after two inline checks %s = %d (present %v), want %d", name, got, ok, want)
		}
	}

	want, _, err := registry.HashUpload(&api.UploadRequest{Netlist: bench, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(api.UploadRequest{Netlist: bench, Name: "c17"})
	put, err := http.NewRequest(http.MethodPut, cl.BaseURL+"/v1/circuits", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res api.UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || !res.Created || res.Hash != want {
		t.Fatalf("upload after inline checks: %d created=%v hash=%s, want 201 created=true hash=%s",
			resp.StatusCode, res.Created, res.Hash, want)
	}
}

// TestRegistryEvictionHTTP: over-capacity uploads evict LRU circuits;
// a check against the evicted hash 404s, and uploading again recovers
// it.
func TestRegistryEvictionHTTP(t *testing.T) {
	cl, stop := newRegistryTestServer(t, server.Config{Workers: 1, QueueDepth: 2,
		RegistryMaxCircuits: 1})
	defer stop()
	ctx := context.Background()

	h1, err := cl.Upload(ctx, circuit.BenchString(gen.C17(10)), client.UploadOptions{Name: "one"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Upload(ctx, circuit.BenchString(gen.C17(10)), client.UploadOptions{Name: "two"}); err != nil {
		t.Fatal(err)
	}
	req := server.Request{Checks: []server.CheckSpec{{Sink: "G22", Delta: 40}}}
	var apiErr *client.APIError
	if _, err := cl.CheckByHash(ctx, h1, req); !errors.As(err, &apiErr) || !apiErr.UnknownHash() {
		t.Fatalf("evicted hash: got %v, want unknown_hash", err)
	}

	// Recovery is a second upload of the same netlist.
	h, err := cl.Upload(ctx, circuit.BenchString(gen.C17(10)), client.UploadOptions{Name: "one"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CheckByHash(ctx, h, req); err != nil {
		t.Fatalf("check after re-upload: %v", err)
	}
	m := scrapeMetrics(t, cl)
	if m[`lttad_registry_evictions_total{mode="immediate"}`] == 0 {
		t.Fatalf("eviction counter not populated: %+v", m)
	}
}

// TestCoordRegistryEviction: the coordinator's circuit registry is LRU
// bounded like a worker's. Past RegistryMaxCircuits a check by hash
// on the evicted circuit answers 404 unknown_hash with the hash
// echoed, and re-uploading it through the coordinator recovers.
func TestCoordRegistryEviction(t *testing.T) {
	w := startClusterWorker(t, server.Config{Workers: 1, QueueDepth: 2})
	defer w.stop()
	co := server.NewCoordinator(server.CoordConfig{Workers: []string{w.addr}, QueueDepth: 2,
		HedgeAfter: -1, RegistryMaxCircuits: 1})
	cts := httptest.NewServer(co)
	defer cts.Close()
	defer func() { _ = co.Shutdown(context.Background()) }()
	cl := client.New(cts.URL)
	ctx := context.Background()

	bench := circuit.BenchString(gen.C17(10))
	h1, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "one"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "two"}); err != nil {
		t.Fatal(err)
	}
	req := server.Request{Checks: []server.CheckSpec{{Sink: "G22", Delta: 40}}}
	var apiErr *client.APIError
	if _, err := cl.CheckByHash(ctx, h1, req); !errors.As(err, &apiErr) ||
		apiErr.Status != 404 || !apiErr.UnknownHash() || apiErr.Hash != h1 {
		t.Fatalf("evicted hash: got %v, want 404 unknown_hash echoing %s", err, h1)
	}

	h, err := cl.Upload(ctx, bench, client.UploadOptions{Name: "one"})
	if err != nil {
		t.Fatal(err)
	}
	if h != h1 {
		t.Fatalf("re-upload hashed as %s, first upload as %s", h, h1)
	}
	resp, err := cl.CheckByHash(ctx, h, req)
	if err != nil {
		t.Fatalf("check after re-upload: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Final == "" {
		t.Fatalf("check after re-upload answered %+v", resp.Results)
	}
}

// TestRegistryPromFileScrape validates the registry counters of an
// exposition scraped from a live daemon — CI uploads a circuit, runs
// two hash checks, curls /metrics, and points REGISTRY_PROM_FILE here:
// the second batch must have been a cache hit served with exactly one
// Prepare. Skips when unset.
func TestRegistryPromFileScrape(t *testing.T) {
	path := os.Getenv("REGISTRY_PROM_FILE")
	if path == "" {
		t.Skip("REGISTRY_PROM_FILE not set (CI-only scrape validation)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fams, err := obs.ParseProm(f)
	if err != nil {
		t.Fatalf("scraped exposition invalid: %v", err)
	}
	values := map[string]float64{}
	for _, fam := range fams {
		for _, smp := range fam.Samples {
			values[fam.Name] = smp.Value
		}
	}
	for name, want := range map[string]float64{
		"lttad_registry_hits_total":     1,
		"lttad_registry_misses_total":   1,
		"lttad_registry_prepares_total": 1,
	} {
		if got, ok := values[name]; !ok || got != want {
			t.Errorf("scrape %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// The canary and the two batches parse exactly once: at upload.
	if got := values["lttad_netlist_parses_total"]; got != 1 {
		t.Errorf("scrape lttad_netlist_parses_total = %v, want 1", got)
	}
}
