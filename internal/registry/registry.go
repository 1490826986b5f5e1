// Package registry is the content-addressed circuit store behind
// lttad's upload-once-check-forever serving path: hashing, a bounded
// LRU of per-circuit prepared state, refcount pinning, and
// singleflight first-preparation.
//
// A circuit is registered under the sha256 of its canonicalized
// upload (netlist bytes, format, name, default delay, SDF text, and
// the sorted delay-annotation list — see Canonicalize) and thereafter
// referenced by that hash alone. The expensive structural precompute
// — core.Prepare's delay annotation, SCOAP and dominator level order,
// plus what grows inside the Prepared on first use: learned
// implications, reconvergent stems and the per-sink cone slices — is
// built once per circuit and shared immutably
// across batches and tenants, exactly the sharing PR 2 proved safe
// for parallel RunAll workers.
//
// Lifecycle of an entry (DESIGN.md §13):
//
//	hash → prepare → pin → check → release → evict
//
// Eviction extends the §10 drain guarantee: an entry with live pins is
// never freed under a running batch. When capacity pressure selects a
// pinned victim, the entry is condemned — removed from the table so
// new lookups miss — and the memory is released only when the last pin
// drops (evict-on-release). Concurrent first-preparations singleflight:
// N cold checks on one hash cost exactly one core.Prepare, the rest
// coalesce onto the leader's result.
package registry

import (
	"container/list"
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
)

// Config sizes the registry. The zero value of every field selects a
// production-sane default.
type Config struct {
	// MaxCircuits bounds the number of registered circuits (default
	// 128). Inserting past it condemns least-recently-used entries.
	MaxCircuits int
	// MaxResidentBytes bounds the estimated resident bytes of circuits
	// plus prepared state (default 1 GiB; negative = unlimited). The
	// estimate is structural (nets/gates/netlist size), not a heap
	// measurement.
	MaxResidentBytes int64
	// Prepare builds the shared precompute (default core.Prepare).
	// Tests substitute counting or slow implementations here.
	Prepare func(*circuit.Circuit) *core.Prepared
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxCircuits <= 0 {
		cfg.MaxCircuits = 128
	}
	if cfg.MaxResidentBytes == 0 {
		cfg.MaxResidentBytes = 1 << 30
	}
	if cfg.Prepare == nil {
		cfg.Prepare = core.Prepare
	}
	return cfg
}

// entry is one registered circuit. The registry mutex guards the
// table/LRU bookkeeping fields; the prepare singleflight runs under
// the entry's own mutex so a slow core.Prepare never blocks lookups
// of other circuits. Once e.prepared is published it is immutable and
// shared across every pinned batch (preparedmut enforces that no code
// outside this file writes through it).
type entry struct {
	hash api.Hash
	c    *circuit.Circuit

	refs      int           // guarded by Registry.mu
	condemned bool          // guarded by Registry.mu
	elem      *list.Element // guarded by Registry.mu
	accounted int64         // bytes currently counted; guarded by Registry.mu

	// Prepare singleflight.
	pmu       sync.Mutex
	preparing chan struct{}  // non-nil while a leader runs Prepare; guarded by pmu
	prepared  *core.Prepared // guarded by pmu (immutable once published)
}

// Registry is the content-addressed circuit store. Safe for concurrent
// use.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	entries  map[api.Hash]*entry
	lru      *list.List // front = least recently used
	resident int64      // estimated bytes of live entries (incl. condemned-but-pinned)

	hits            atomic.Int64
	misses          atomic.Int64
	unknown         atomic.Int64
	prepares        atomic.Int64
	coalesced       atomic.Int64
	evictions       atomic.Int64
	deferredEvicts  atomic.Int64
	uploadsCreated  atomic.Int64
	uploadsExisting atomic.Int64
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		entries: make(map[api.Hash]*entry),
		lru:     list.New(),
	}
}

// Counter accessors, read at metrics-scrape time.

// Hits counts checks that found their prepared state resident.
func (r *Registry) Hits() int64 { return r.hits.Load() }

// Misses counts checks that arrived cold: they either ran the
// first preparation or coalesced onto one in flight.
func (r *Registry) Misses() int64 { return r.misses.Load() }

// Unknown counts lookups of hashes no circuit is registered under.
func (r *Registry) Unknown() int64 { return r.unknown.Load() }

// Prepares counts actual core.Prepare executions.
func (r *Registry) Prepares() int64 { return r.prepares.Load() }

// Coalesced counts cold checks that joined an in-flight preparation
// instead of running their own (singleflight wins).
func (r *Registry) Coalesced() int64 { return r.coalesced.Load() }

// Evictions counts entries freed immediately at condemnation (no live
// pins).
func (r *Registry) Evictions() int64 { return r.evictions.Load() }

// DeferredEvictions counts condemnations of pinned entries, freed
// later when the last batch released its pin.
func (r *Registry) DeferredEvictions() int64 { return r.deferredEvicts.Load() }

// UploadsCreated counts uploads that registered a new circuit.
func (r *Registry) UploadsCreated() int64 { return r.uploadsCreated.Load() }

// UploadsExisting counts uploads whose hash was already registered.
func (r *Registry) UploadsExisting() int64 { return r.uploadsExisting.Load() }

// Circuits is the number of registered (acquirable) circuits.
func (r *Registry) Circuits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// ResidentBytes is the estimated memory held by registered circuits
// and their prepared state, including condemned entries still pinned
// by live batches.
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resident
}

// PutResult reports a completed upload.
type PutResult struct {
	Hash api.Hash
	// Circuit is the registered (shared, immutable) parse.
	Circuit *circuit.Circuit
	// Created is false when the hash was already registered and the
	// upload was an idempotent no-op.
	Created bool
}

// Put registers the canonicalized upload under its content hash.
// build parses the netlist and applies the canonical annotations; it
// runs only when the hash is not yet registered, so re-uploading a
// known circuit costs one hash, zero parses. The circuit build
// returns must already carry its annotations — it is shared immutably
// from here on.
func (r *Registry) Put(up *api.UploadRequest, build func(canon *api.UploadRequest) (*circuit.Circuit, error)) (PutResult, error) {
	h, canon, err := HashUpload(up)
	if err != nil {
		return PutResult{}, err
	}
	r.mu.Lock()
	if e, ok := r.entries[h]; ok {
		r.touchLocked(e)
		r.mu.Unlock()
		r.uploadsExisting.Add(1)
		return PutResult{Hash: h, Circuit: e.c, Created: false}, nil
	}
	r.mu.Unlock()

	c, err := build(canon) // parse outside the lock: uploads of distinct circuits don't serialise
	if err != nil {
		return PutResult{}, err
	}

	r.mu.Lock()
	if e, ok := r.entries[h]; ok { // lost a race with an identical concurrent upload
		r.touchLocked(e)
		r.mu.Unlock()
		r.uploadsExisting.Add(1)
		return PutResult{Hash: h, Circuit: e.c, Created: false}, nil
	}
	e := &entry{hash: h, c: c, accounted: estimateCircuitBytes(c, len(canon.Netlist))}
	r.entries[h] = e
	e.elem = r.lru.PushBack(e)
	r.resident += e.accounted
	for len(r.entries) > r.cfg.MaxCircuits {
		r.condemnLocked(r.lru.Front().Value.(*entry))
	}
	r.mu.Unlock()
	r.uploadsCreated.Add(1)
	return PutResult{Hash: h, Circuit: c, Created: true}, nil
}

// Acquire pins the circuit registered under h. While the pin is held
// the entry cannot be freed — eviction defers to Release — so a batch
// may run against the shared prepared state for as long as it needs.
// The second result is false (and the pin nil) for unknown hashes.
func (r *Registry) Acquire(h api.Hash) (*Pin, bool) {
	r.mu.Lock()
	e, ok := r.entries[h]
	if !ok {
		r.mu.Unlock()
		r.unknown.Add(1)
		return nil, false
	}
	e.refs++
	r.touchLocked(e)
	r.mu.Unlock()
	return &Pin{r: r, e: e}, true
}

// touchLocked moves e to the most-recently-used end. Caller holds
// r.mu.
func (r *Registry) touchLocked(e *entry) {
	if e.elem != nil {
		r.lru.MoveToBack(e.elem)
	}
}

// condemnLocked removes e from the table and LRU so new lookups miss.
// Unpinned entries free immediately; pinned ones free when the last
// pin releases — the cache-eviction extension of the §10 drain
// guarantee (never under a live batch). Caller holds r.mu.
func (r *Registry) condemnLocked(e *entry) {
	delete(r.entries, e.hash)
	if e.elem != nil {
		r.lru.Remove(e.elem)
		e.elem = nil
	}
	e.condemned = true
	if e.refs == 0 {
		r.freeLocked(e)
		r.evictions.Add(1)
	} else {
		r.deferredEvicts.Add(1)
	}
}

// freeLocked returns e's accounted bytes. Caller holds r.mu.
func (r *Registry) freeLocked(e *entry) {
	r.resident -= e.accounted
	e.accounted = 0
}

// Pin is a live reference to a registered circuit. Release exactly
// once when the batch is done (idempotent).
type Pin struct {
	r    *Registry
	e    *entry
	once sync.Once
}

// Hash returns the pinned circuit's content address.
func (p *Pin) Hash() api.Hash { return p.e.hash }

// Circuit returns the pinned circuit. Shared and immutable.
func (p *Pin) Circuit() *circuit.Circuit { return p.e.c }

// Release drops the pin. When the entry was condemned while this
// batch ran, the last release frees it.
func (p *Pin) Release() {
	p.once.Do(func() {
		r := p.r
		r.mu.Lock()
		p.e.refs--
		if p.e.refs == 0 && p.e.condemned {
			r.freeLocked(p.e)
		}
		r.mu.Unlock()
	})
}

// Prepared returns the circuit's shared precompute, building it on
// first use. Concurrent cold callers singleflight: one runs
// core.Prepare, the rest wait for its result (ctx bounds the wait;
// preparation itself is not cancelled — the next caller would only
// redo it). The second result reports a cache hit: true means zero
// parse and zero Prepare work happened on this call.
func (p *Pin) Prepared(ctx context.Context) (*core.Prepared, bool, error) {
	e, counted := p.e, false
	for {
		e.pmu.Lock()
		if prep := e.prepared; prep != nil {
			// Capture under pmu: the pointer is immutable once
			// published, but the read itself must not race the
			// leader's store.
			e.pmu.Unlock()
			if counted {
				return prep, false, nil // coalesced wait ended: still a miss
			}
			p.r.hits.Add(1)
			return prep, true, nil
		}
		if e.preparing == nil {
			ch := make(chan struct{})
			e.preparing = ch
			e.pmu.Unlock()
			if !counted {
				p.r.misses.Add(1)
			}
			prep, err := p.r.runPrepare(e.c)
			e.pmu.Lock()
			e.preparing = nil
			if err == nil {
				e.prepared = prep
			}
			e.pmu.Unlock()
			close(ch)
			if err != nil {
				return nil, false, err
			}
			p.r.prepares.Add(1)
			p.r.accountPrepared(e)
			return prep, false, nil
		}
		ch := e.preparing
		e.pmu.Unlock()
		if !counted {
			p.r.misses.Add(1)
			p.r.coalesced.Add(1)
			counted = true
		}
		select {
		case <-ch:
			// Leader finished (or failed — then loop and retry/lead).
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// runPrepare executes the configured prepare with panic isolation so
// a crashing precompute fails the one batch, not the daemon.
func (r *Registry) runPrepare(c *circuit.Circuit) (prep *core.Prepared, err error) {
	defer func() {
		if p := recover(); p != nil {
			prep, err = nil, fmt.Errorf("registry: prepare panicked: %v", p)
		}
	}()
	return r.cfg.Prepare(c), nil
}

// accountPrepared adds the prepared-state estimate to the resident
// gauge and sheds LRU entries while over the byte cap. The entry that
// just prepared is never its own victim.
func (r *Registry) accountPrepared(e *entry) {
	n := estimatePreparedBytes(e.c)
	r.mu.Lock()
	if !e.condemned || e.refs > 0 {
		e.accounted += n
		r.resident += n
	}
	if max := r.cfg.MaxResidentBytes; max > 0 {
		for r.resident > max && r.lru.Len() > 0 {
			front := r.lru.Front().Value.(*entry)
			if front == e {
				break
			}
			r.condemnLocked(front)
		}
	}
	r.mu.Unlock()
}

// estimateCircuitBytes is the structural size estimate of a parsed
// circuit plus its source text. Estimates, not measurements: they
// exist to make the byte cap and the resident gauge proportional to
// load, not to account the heap exactly. The constants add up what
// the circuit keeps per element on a 64-bit build (name bytes ride
// with the source text):
//
//   - per net, 53: its name's string header (16), its name-map entry
//     (~28 with the map's load factor), its output flag (1), its level
//     (4), and its layout NetStart offset (4);
//   - per gate, 26: its topological-order slot (4) and its layout
//     PinStart (4), Out (4), Type (1), Delay (8) and Op (1) entries,
//     and its output net's driver slot in NetGates (4);
//   - per pin, 8: its input net in the layout's Pins (4) and its
//     fanout entry in NetGates (4).
func estimateCircuitBytes(c *circuit.Circuit, netlistLen int) int64 {
	const perNet, perGate, perPin = 53, 26, 8
	return int64(netlistLen) + int64(c.NumNets())*perNet + int64(c.NumGates())*perGate +
		int64(c.NumPins())*perPin + 4096
}

// estimatePreparedBytes estimates core.Prepare's output: arrival
// analysis, SCOAP, the dominator levels (per net a level-order slot and
// a driver-pin range), plus headroom for the stems, learning table and
// per-sink cone slices that are built on first use inside the Prepared,
// and the base snapshots the first checks build: four int64 lanes
// (32 B) per net of the whole circuit and per net of every output's
// cone.
func estimatePreparedBytes(c *circuit.Circuit) int64 {
	st := c.Stats()
	const levels = 4 + 8 // bytes per net: a level-order slot and a driver-pin range
	const snapshot = 32  // bytes per net of a base snapshot
	return int64(st.Nets)*(256+levels+snapshot) + int64(coneNets(c))*snapshot +
		int64(st.Gates)*128 + 8192
}

// coneNets sums, over the primary outputs, the nets in each output's
// transitive fan-in cone. It sweeps the gates backwards once per 64
// outputs, carrying one bit per output of a chunk in a word per net.
func coneNets(c *circuit.Circuit) int {
	l := c.Layout()
	pos, topo := c.PrimaryOutputs(), c.TopoGates()
	reach := make([]uint64, c.NumNets())
	total := 0
	for lo := 0; lo < len(pos); lo += 64 {
		clear(reach)
		for i, po := range pos[lo:min(lo+64, len(pos))] {
			reach[po] |= 1 << i
		}
		for i := len(topo) - 1; i >= 0; i-- {
			g := topo[i]
			if r := reach[l.Out[g]]; r != 0 {
				for _, x := range l.Inputs(g) {
					reach[x] |= r
				}
			}
		}
		for _, r := range reach {
			total += bits.OnesCount64(r)
		}
	}
	return total
}
