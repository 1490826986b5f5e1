package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
)

func c17Upload() (*api.UploadRequest, *circuit.Circuit) {
	c := gen.C17(10)
	return &api.UploadRequest{Netlist: circuit.BenchString(c), Name: "c17"}, c
}

func mustPut(t *testing.T, r *Registry, up *api.UploadRequest, c *circuit.Circuit) api.Hash {
	t.Helper()
	res, err := r.Put(up, func(*api.UploadRequest) (*circuit.Circuit, error) { return c, nil })
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	return res.Hash
}

// TestHashCanonicalAnnotations pins the canonicalization fix: a
// byte-identical netlist with differently-ordered (or duplicated)
// delay annotations must hash identically, while any value change
// must not.
func TestHashCanonicalAnnotations(t *testing.T) {
	up, _ := c17Upload()
	a := *up
	a.Delays = []api.DelayAnnotation{{Net: "G10", Delay: 12}, {Net: "G22", Delay: 7, DMin: 3}, {Net: "G11", Delay: 9}}
	b := *up
	b.Delays = []api.DelayAnnotation{{Net: "G22", Delay: 7, DMin: 3}, {Net: "G11", Delay: 9}, {Net: "G10", Delay: 12}, {Net: "G10", Delay: 12}}

	ha, _, err := HashUpload(&a)
	if err != nil {
		t.Fatal(err)
	}
	hb, _, err := HashUpload(&b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("annotation order changed the hash: %s vs %s", ha, hb)
	}
	if !ha.Valid() {
		t.Fatalf("minted hash %q invalid", ha)
	}

	c := a
	c.Delays = []api.DelayAnnotation{{Net: "G10", Delay: 13}, {Net: "G22", Delay: 7, DMin: 3}, {Net: "G11", Delay: 9}}
	hc, _, err := HashUpload(&c)
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("changing an annotation value must change the hash")
	}

	// d_min is not stored, but it is part of the content: an upload
	// that changes only a d_min is a different circuit.
	m := a
	m.Delays = []api.DelayAnnotation{{Net: "G10", Delay: 12}, {Net: "G22", Delay: 7, DMin: 4}, {Net: "G11", Delay: 9}}
	hm, _, err := HashUpload(&m)
	if err != nil {
		t.Fatal(err)
	}
	if hm == ha {
		t.Fatal("changing only a dmin must change the hash")
	}

	d := a
	d.Netlist += "\n"
	hd, _, err := HashUpload(&d)
	if err != nil {
		t.Fatal(err)
	}
	if hd == ha {
		t.Fatal("netlist bytes must hash byte-identically: trailing newline must change the hash")
	}

	conflict := a
	conflict.Delays = append(conflict.Delays, api.DelayAnnotation{Net: "G10", Delay: 99})
	var bad *BadUploadError
	if _, _, err := HashUpload(&conflict); !errors.As(err, &bad) || bad.Code != "conflicting_annotation" {
		t.Fatalf("conflicting duplicate must be rejected, got %v", err)
	}
}

// TestHashNormalizesDefaults: explicit defaults and implicit ones are
// the same content.
func TestHashNormalizesDefaults(t *testing.T) {
	up, _ := c17Upload()
	implicit := *up
	explicit := *up
	explicit.Format, explicit.DefaultDelay = "bench", 10
	hi, _, err := HashUpload(&implicit)
	if err != nil {
		t.Fatal(err)
	}
	he, _, err := HashUpload(&explicit)
	if err != nil {
		t.Fatal(err)
	}
	if hi != he {
		t.Fatal("implicit and explicit defaults must share one hash")
	}
	v9 := *up
	v9.V = api.Version
	hv, _, err := HashUpload(&v9)
	if err != nil {
		t.Fatal(err)
	}
	if hv != hi {
		t.Fatal("the envelope version is transport, not content: it must not affect the hash")
	}
}

func TestPutIdempotent(t *testing.T) {
	up, c := c17Upload()
	r := New(Config{})
	builds := 0
	put := func() PutResult {
		res, err := r.Put(up, func(*api.UploadRequest) (*circuit.Circuit, error) { builds++; return c, nil })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := put()
	second := put()
	if !first.Created || second.Created {
		t.Fatalf("created flags: %v then %v, want true then false", first.Created, second.Created)
	}
	if first.Hash != second.Hash || builds != 1 {
		t.Fatalf("re-upload must be a hash-only no-op: builds=%d hashes %s vs %s", builds, first.Hash, second.Hash)
	}
	if r.UploadsCreated() != 1 || r.UploadsExisting() != 1 || r.Circuits() != 1 {
		t.Fatalf("upload counters: created=%d existing=%d circuits=%d", r.UploadsCreated(), r.UploadsExisting(), r.Circuits())
	}
	if r.ResidentBytes() <= 0 {
		t.Fatal("resident bytes must account the registered circuit")
	}
}

// TestSingleflightColdPrepare: N concurrent cold checks on one hash
// cost exactly one Prepare; everyone gets the same shared pointer.
// Run with -race.
func TestSingleflightColdPrepare(t *testing.T) {
	up, c := c17Upload()
	var prepares atomic.Int64
	r := New(Config{Prepare: func(c *circuit.Circuit) *core.Prepared {
		prepares.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the window open so waiters pile up
		return core.Prepare(c)
	}})
	h := mustPut(t, r, up, c)

	const n = 16
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		seen = make(map[*core.Prepared]int)
		hits int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pin, ok := r.Acquire(h)
			if !ok {
				t.Error("acquire failed on a registered hash")
				return
			}
			defer pin.Release()
			prep, hit, err := pin.Prepared(context.Background())
			if err != nil {
				t.Errorf("Prepared: %v", err)
				return
			}
			mu.Lock()
			seen[prep]++
			if hit {
				hits++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if got := prepares.Load(); got != 1 {
		t.Fatalf("%d concurrent cold checks ran %d Prepares, want exactly 1", n, got)
	}
	if len(seen) != 1 {
		t.Fatalf("checks saw %d distinct Prepared pointers, want 1 shared", len(seen))
	}
	if r.Prepares() != 1 {
		t.Fatalf("Prepares counter = %d, want 1", r.Prepares())
	}
	if r.Misses()+r.Hits() != n || r.Misses() < 1 {
		t.Fatalf("hit/miss accounting: hits=%d misses=%d, want sum %d with ≥1 miss", r.Hits(), r.Misses(), n)
	}
	if r.Coalesced() != r.Misses()-1 {
		t.Fatalf("coalesced=%d, want misses-1=%d (everyone cold except the leader)", r.Coalesced(), r.Misses()-1)
	}
	// Warm afterwards: a fresh pin is a pure hit.
	pin, _ := r.Acquire(h)
	defer pin.Release()
	if _, hit, err := pin.Prepared(context.Background()); err != nil || !hit {
		t.Fatalf("post-singleflight check: hit=%v err=%v, want warm hit", hit, err)
	}
}

// TestPinEvictDeferred: eviction requested while a batch holds the pin
// defers until release and never corrupts the live verifier. Run with
// -race.
func TestPinEvictDeferred(t *testing.T) {
	upA, cA := c17Upload()
	r := New(Config{MaxCircuits: 1})
	hA := mustPut(t, r, upA, cA)

	pin, ok := r.Acquire(hA)
	if !ok {
		t.Fatal("acquire A")
	}
	prep, _, err := pin.Prepared(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	residentWhilePinned := r.ResidentBytes()

	// B overflows the single-slot registry: A is condemned but pinned,
	// so its memory must survive until the batch releases.
	upB := &api.UploadRequest{Netlist: circuit.BenchString(gen.C17(10)), Name: "c17-variant", DefaultDelay: 11}
	hB := mustPut(t, r, upB, gen.C17(11))
	if hA == hB {
		t.Fatal("test needs two distinct hashes")
	}
	if _, ok := r.Acquire(hA); ok {
		t.Fatal("condemned entry must be gone from the table (new lookups miss)")
	}
	if r.DeferredEvictions() != 1 || r.Evictions() != 0 {
		t.Fatalf("eviction of a pinned entry must defer: deferred=%d immediate=%d", r.DeferredEvictions(), r.Evictions())
	}
	if got := r.ResidentBytes(); got < residentWhilePinned {
		t.Fatalf("pinned entry freed early: resident %d < %d", got, residentWhilePinned)
	}

	// The live batch still runs correctly on the condemned entry.
	v := prep.NewVerifier(core.Default())
	cr := v.RunAll(context.Background(), core.Request{Delta: v.Topological().Add(1)})
	if cr.Final != core.NoViolation {
		t.Fatalf("check on condemned-but-pinned prepared state: verdict %s, want N", cr.Final)
	}

	pin.Release()
	pin.Release() // idempotent
	if got := r.ResidentBytes(); got >= residentWhilePinned {
		t.Fatalf("release of the last pin must free the condemned entry: resident still %d", got)
	}
	if r.Circuits() != 1 {
		t.Fatalf("registry should hold only B now, has %d", r.Circuits())
	}
}

// TestImmediateEviction: an unpinned LRU victim frees at once, and the
// unknown counter tracks lookups of the evicted hash.
func TestImmediateEviction(t *testing.T) {
	r := New(Config{MaxCircuits: 2})
	var hashes []api.Hash
	for i := 0; i < 3; i++ {
		delay := int64(10 + i)
		up := &api.UploadRequest{Netlist: circuit.BenchString(gen.C17(10)), Name: fmt.Sprintf("c17-%d", i), DefaultDelay: delay}
		hashes = append(hashes, mustPut(t, r, up, gen.C17(delay)))
	}
	if r.Evictions() != 1 || r.DeferredEvictions() != 0 {
		t.Fatalf("evictions: immediate=%d deferred=%d, want 1/0", r.Evictions(), r.DeferredEvictions())
	}
	if _, ok := r.Acquire(hashes[0]); ok {
		t.Fatal("oldest entry must have been evicted")
	}
	if r.Unknown() != 1 {
		t.Fatalf("unknown counter = %d, want 1", r.Unknown())
	}
	for _, h := range hashes[1:] {
		pin, ok := r.Acquire(h)
		if !ok {
			t.Fatalf("entry %s must still be resident", h)
		}
		pin.Release()
	}
}

// TestLRUTouchOnAcquire: acquiring refreshes recency, so the victim is
// the least-recently-used entry, not the oldest insert.
func TestLRUTouchOnAcquire(t *testing.T) {
	r := New(Config{MaxCircuits: 2})
	up1 := &api.UploadRequest{Netlist: circuit.BenchString(gen.C17(10)), Name: "one"}
	up2 := &api.UploadRequest{Netlist: circuit.BenchString(gen.C17(10)), Name: "two"}
	up3 := &api.UploadRequest{Netlist: circuit.BenchString(gen.C17(10)), Name: "three"}
	h1 := mustPut(t, r, up1, gen.C17(10))
	h2 := mustPut(t, r, up2, gen.C17(10))

	pin, ok := r.Acquire(h1) // refresh h1: h2 becomes LRU
	if !ok {
		t.Fatal("acquire h1")
	}
	pin.Release()

	h3 := mustPut(t, r, up3, gen.C17(10))
	if _, ok := r.Acquire(h2); ok {
		t.Fatal("h2 was least recently used and must have been evicted")
	}
	for _, h := range []api.Hash{h1, h3} {
		p, ok := r.Acquire(h)
		if !ok {
			t.Fatalf("%s must survive", h)
		}
		p.Release()
	}
}

// TestByteCapEviction: preparing past the byte cap sheds LRU entries,
// never the entry that just prepared.
func TestByteCapEviction(t *testing.T) {
	// Cap below two prepared circuits but above one.
	c := gen.C17(10)
	cap := estimateCircuitBytes(c, len(circuit.BenchString(c)))*2 + estimatePreparedBytes(c) + estimatePreparedBytes(c)/2
	r := New(Config{MaxResidentBytes: cap})
	up1 := &api.UploadRequest{Netlist: circuit.BenchString(c), Name: "one"}
	up2 := &api.UploadRequest{Netlist: circuit.BenchString(c), Name: "two"}
	h1 := mustPut(t, r, up1, gen.C17(10))
	h2 := mustPut(t, r, up2, gen.C17(10))

	for _, h := range []api.Hash{h1, h2} {
		pin, ok := r.Acquire(h)
		if !ok {
			t.Fatalf("acquire %s", h)
		}
		if _, _, err := pin.Prepared(context.Background()); err != nil {
			t.Fatal(err)
		}
		pin.Release()
	}
	// Preparing h2 pushed residency past the cap; h1 (LRU) was shed.
	if _, ok := r.Acquire(h1); ok {
		t.Fatal("byte cap must evict the LRU entry")
	}
	pin, ok := r.Acquire(h2)
	if !ok {
		t.Fatal("the just-prepared entry must never be its own victim")
	}
	pin.Release()
	if max := r.cfg.MaxResidentBytes; r.ResidentBytes() > max {
		t.Fatalf("resident %d still over cap %d", r.ResidentBytes(), max)
	}
}

// TestPreparePanicIsolated: a panicking Prepare fails that call but
// leaves the entry retryable.
func TestPreparePanicIsolated(t *testing.T) {
	up, c := c17Upload()
	calls := 0
	r := New(Config{Prepare: func(c *circuit.Circuit) *core.Prepared {
		calls++
		if calls == 1 {
			panic("boom")
		}
		return core.Prepare(c)
	}})
	h := mustPut(t, r, up, c)
	pin, _ := r.Acquire(h)
	defer pin.Release()
	if _, _, err := pin.Prepared(context.Background()); err == nil {
		t.Fatal("first Prepared must surface the panic as an error")
	}
	prep, hit, err := pin.Prepared(context.Background())
	if err != nil || prep == nil || hit {
		t.Fatalf("retry after panic: prep=%v hit=%v err=%v, want cold success", prep, hit, err)
	}
}

// TestConeNetsMatchesFanin pins the base-snapshot term of the
// prepared-state estimate: coneNets is the sum of every output's
// transitive fan-in size, across its 64-output chunks too.
func TestConeNetsMatchesFanin(t *testing.T) {
	// A NAND chain with an output after every gate: 70 outputs whose
	// cones nest.
	b := circuit.NewBuilder("chain70")
	b.Input("a")
	b.Input("b")
	prev := "a"
	for i := 0; i < 70; i++ {
		out := fmt.Sprintf("n%d", i)
		b.Gate(circuit.NAND, 10, out, prev, "b")
		b.Output(out)
		prev = out
	}
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, c := range []*circuit.Circuit{gen.C17(10), gen.Random(3, 10, 80, 10), gen.Industrial(2, 48, 10), chain} {
		want := 0
		for _, po := range c.PrimaryOutputs() {
			for _, in := range c.TransitiveFanin(po) {
				if in {
					want++
				}
			}
		}
		if got := coneNets(c); got != want {
			t.Fatalf("%s: coneNets = %d, want %d", c.Name, got, want)
		}
		if len(c.PrimaryOutputs()) > 64 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no circuit has more than 64 outputs: the chunking is untested")
	}
}
