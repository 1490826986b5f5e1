package server

import (
	"hash/fnv"
	"sort"
)

// ShardKey is the routing identity of one check in a sharded batch:
// the circuit's content address plus the sink net's name. Every check
// on one (circuit, sink) routes to the same worker, so that worker's
// prepared-state LRU entry, cached sink cone, and the cone's base
// snapshot stay hot for the whole δ-schedule of that sink.
type ShardKey struct {
	Hash string
	Sink string
}

// ShardRouter assigns shard keys to workers by rendezvous
// (highest-random-weight) hashing: each (worker, key) pair gets a
// deterministic score and the key belongs to the highest-scoring
// worker. The properties the cluster relies on fall out directly:
//
//   - every key is assigned to exactly one worker (argmax of a fixed
//     score set);
//   - the assignment depends only on the worker *set*, never on the
//     order workers were listed in (FuzzShardRouter pins this);
//   - removing a worker moves only the keys that worker owned — every
//     other key keeps its argmax — which is the consistent-hashing
//     minimal-movement property that keeps surviving workers' caches
//     hot through a requeue.
//
// A router is immutable; build a new one when the live worker set
// changes (construction is O(n log n) for n workers, assignment O(n)
// per key — n is a handful of daemons, not a hash ring of vnodes).
type ShardRouter struct {
	workers []string
}

// NewShardRouter builds a router over a worker set. Duplicates are
// collapsed; order is irrelevant.
func NewShardRouter(workers []string) *ShardRouter {
	ws := make([]string, 0, len(workers))
	seen := make(map[string]bool, len(workers))
	for _, w := range workers {
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return &ShardRouter{workers: ws}
}

// Workers returns the router's worker set, sorted.
func (r *ShardRouter) Workers() []string { return r.workers }

// Assign returns the worker owning key, or ok=false on an empty
// router.
func (r *ShardRouter) Assign(key ShardKey) (string, bool) {
	best, bestScore := "", uint64(0)
	for _, w := range r.workers {
		s := shardScore(w, key)
		// Ties (astronomically unlikely across distinct worker names)
		// break toward the lexicographically larger worker so the
		// choice stays a pure function of the set.
		if best == "" || s > bestScore || (s == bestScore && w > best) {
			best, bestScore = w, s
		}
	}
	return best, best != ""
}

// Ranked returns all workers ordered by descending preference for key:
// Ranked(k)[0] == Assign(k), and the tail is the fallback order a
// requeue or hedge walks when earlier choices are dead or already
// racing the check.
func (r *ShardRouter) Ranked(key ShardKey) []string {
	type scored struct {
		w string
		s uint64
	}
	ss := make([]scored, len(r.workers))
	for i, w := range r.workers {
		ss[i] = scored{w: w, s: shardScore(w, key)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].s != ss[j].s {
			return ss[i].s > ss[j].s
		}
		return ss[i].w > ss[j].w
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.w
	}
	return out
}

// shardScore is the rendezvous weight of (worker, key): FNV-1a over
// the three length-delimited components, pushed through a
// splitmix64-style finalizer. The finalizer matters: raw FNV-1a has
// weak avalanche on short, similar inputs (worker names like "w1",
// "w2"), and without it some workers essentially never win the
// argmax, collapsing the partition. The score only needs to be
// deterministic and well-mixed, not adversary-proof (workers are
// operator-configured).
func shardScore(worker string, key ShardKey) uint64 {
	h := fnv.New64a()
	writeDelim := func(s string) {
		var n [1]byte
		for len(s) > 255 {
			n[0] = 255
			h.Write(n[:])
			h.Write([]byte(s[:255]))
			s = s[255:]
		}
		n[0] = byte(len(s))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeDelim(worker)
	writeDelim(key.Hash)
	writeDelim(key.Sink)
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	return s
}
