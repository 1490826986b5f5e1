package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/registry"
)

// Workload names. They are fixed: later changes cite them.
const (
	wlWarm    = "warm_checks"
	wlCold    = "cold_uploads"
	wlCluster = "cluster_checks"
	wlTable1  = "table1"
)

var workloadNames = []string{wlWarm, wlCold, wlCluster, wlTable1}

const (
	// loadConns is the number of connections the one load process
	// opens. One: the client then sleeps while the daemons work, so on
	// the 2-core reference host they never compete with it for a core.
	// With two connections a closed loop kept both cores busy in lttad
	// while the client decoded answers: in warm_checks runs interleaved
	// with one-connection runs its throughput ranged over 1540–1882
	// checks/s, against 1369–1447.
	loadConns = 1
	// batchChecks is the number of (sink, δ) checks per warm or
	// cluster request.
	batchChecks = 16
	// industrialBlocks sizes the seeded industrial circuit added to the
	// warm suite.
	industrialBlocks = 200
	// coldRate is the cold_uploads arrival rate in operations per
	// second: about a third of the capacity of one connection (offered
	// 60 ops/s, it fell behind and completed 54–58 ops/s on the
	// reference host). Its 50 ms between ops stays above the 30–45 ms a
	// 400-block op takes, so an op rarely waits behind the one before.
	// At 30 ops/s those ops ran right at the 33 ms spacing: in a slower
	// stretch of the shared host the op after each of them waited, and
	// the median op moved by half from run to run.
	coldRate = 20.0
	// coldRegistrySize is the cold daemon's -registry-size: small, so
	// every upload past the first 16 evicts.
	coldRegistrySize = 16
	// coldBacktrackCap bounds the generator's reference solve of a
	// candidate circuit. About one seeded industrial circuit in 300 has
	// a check that exhausts the engine's 200000-backtrack budget
	// (seconds of work for one verdict A); the generators skip any
	// candidate needing more than this many backtracks, so one unlucky
	// seed cannot dominate set-up.
	coldBacktrackCap = 2000
)

// coldBlocks are the industrial circuit sizes cold_uploads cycles
// through, in this order.
var coldBlocks = []int{100, 200, 400}

// suiteDelay pins each substitute circuit's exact floating delay D
// (EXPERIMENTS.md, E3). table1 asserts the row pair at D+1 and D
// against it; warm_checks derives its δ values from it.
var suiteDelay = map[string]int64{
	"c17": 30, "c432": 530, "c499": 180, "c880": 390, "c1355": 330, "c1908": 400,
	"c2670": 470, "c3540": 430, "c5315": 510, "c6288": 1210, "c7552": 550,
}

// serverOptions mirrors lttad's engine configuration for a batch that
// carries no options: the paper's full pipeline with warm-start off
// (the server's default, which keeps response work counters
// independent of pool scheduling). References computed with it match
// served results field for field.
func serverOptions() core.Options {
	opts := core.Default()
	opts.UseWarmStart = false
	return opts
}

// circuitInput is one circuit exactly as the daemons receive it.
type circuitInput struct {
	Name    string
	Netlist string
	Upload  []byte   // PUT /v1/circuits body
	Hash    api.Hash // the content address the daemon must answer with
	// C is the in-process parse of the uploaded netlist, built the way
	// lttad builds it, so net ids, PI order and every engine counter
	// match the daemon's.
	C      *circuit.Circuit
	Top    int64
	Deltas []int64
}

// newInput renders c as the bytes a client uploads and parses them back
// the way the daemon will. deltas picks the check thresholds from the
// parsed circuit's topological delay.
func newInput(name string, c *circuit.Circuit, deltas func(top int64) []int64) (*circuitInput, error) {
	up := api.UploadRequest{V: api.Version, Netlist: circuit.BenchString(c), Name: name}
	body, err := json.Marshal(up)
	if err != nil {
		return nil, fmt.Errorf("encoding upload of %s: %w", name, err)
	}
	hash, canon, err := registry.HashUpload(&up)
	if err != nil {
		return nil, fmt.Errorf("hashing %s: %w", name, err)
	}
	parsed, err := parseLikeServer(canon)
	if err != nil {
		return nil, err
	}
	top := int64(delay.New(parsed).Topological())
	return &circuitInput{
		Name: name, Netlist: up.Netlist, Upload: body, Hash: hash, C: parsed,
		Top: top, Deltas: deltas(top),
	}, nil
}

// parseLikeServer builds a circuit from a canonical upload the way
// lttad's registry does for a bench netlist without annotations.
func parseLikeServer(canon *api.UploadRequest) (*circuit.Circuit, error) {
	c, err := circuit.ParseBenchString(canon.Netlist,
		circuit.BenchOptions{DefaultDelay: canon.DefaultDelay, Name: canon.Name})
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", canon.Name, err)
	}
	if canon.Name != "" {
		c.Name = canon.Name
	}
	return c, nil
}

// checkKey names one distinct timing check of a workload: circuit
// (index into the workload's inputs), sink and δ.
type checkKey struct {
	Circ  int
	Sink  string
	Delta int64
}

// keysOf lists every (primary output, δ) check of input i.
func keysOf(i int, in *circuitInput) []checkKey {
	var keys []checkKey
	for _, po := range in.C.PrimaryOutputs() {
		for _, d := range in.Deltas {
			keys = append(keys, checkKey{Circ: i, Sink: in.C.Net(po).Name, Delta: d})
		}
	}
	return keys
}

// request is one HTTP request of a workload, with the checks its
// answer must carry in batch order.
type request struct {
	Method string
	Path   string
	Body   []byte
	Stream bool       // the answer is an NDJSON event stream
	Keys   []checkKey // the batch's checks; answers carry these indexes
	Round  int        // the pass over the distinct checks this request belongs to
	Circ   int        // index into the workload's inputs
}

func checkRequest(in *circuitInput, circ int, keys []checkKey) (*request, error) {
	specs := make([]api.CheckSpec, len(keys))
	for i, k := range keys {
		specs[i] = api.CheckSpec{Sink: k.Sink, Delta: k.Delta}
	}
	body, err := json.Marshal(api.Request{V: api.Version, Checks: specs, Stream: true})
	if err != nil {
		return nil, fmt.Errorf("encoding check request: %w", err)
	}
	return &request{Method: "POST", Path: "/v1/circuits/" + string(in.Hash) + "/check",
		Body: body, Stream: true, Keys: keys, Circ: circ}, nil
}

func uploadRequest(in *circuitInput, circ int) *request {
	return &request{Method: "PUT", Path: "/v1/circuits", Body: in.Upload, Circ: circ}
}

// warmInputs is the warm_checks and cluster_checks circuit set: the
// Table-1 substitute suite without c6288 (its case analysis belongs to
// table1), checked at δ ∈ {top+1, D+1, D}, plus the seeded industrial
// circuit of warmIndustrial.
func warmInputs(seed int64) ([]*circuitInput, error) {
	var inputs []*circuitInput
	for _, e := range gen.SubstituteSuite() {
		if e.Name == "c6288" {
			continue
		}
		d := suiteDelay[e.Name]
		in, err := newInput(e.Name, e.Circuit, func(top int64) []int64 {
			return dedupe(top+1, d+1, d)
		})
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	in, err := warmIndustrial(seed)
	if err != nil {
		return nil, err
	}
	return append(inputs, in), nil
}

// industrialWork bounds the engine work of the warm set's industrial
// circuit: the reference propagations summed over its checks. Generated
// circuits of one size differ thirtyfold in that work, and one batch of
// them is enough to move the median batch of a round; holding it in a
// band keeps every seed's round the same work, so seeds differ in which
// circuit and in order, not in cost.
var industrialWork = [2]int64{2000, 4000}

// warmIndustrial is gen.Industrial(seed, 200), checked on every primary
// output at δ ∈ {top+1, top} (its exact delay D would need a search that
// takes seconds to minutes on some seeds). When its work falls outside
// industrialWork, the next circuit of the seed's sequence is drawn.
func warmIndustrial(seed int64) (*circuitInput, error) {
	for j := int64(0); j < coldAttempts; j++ {
		s := seed
		if j > 0 {
			s = seed*1_000_003 + j
		}
		c := gen.Industrial(s, industrialBlocks, 10)
		in, err := newInput(c.Name, c, func(top int64) []int64 { return []int64{top + 1, top} })
		if err != nil {
			return nil, err
		}
		refs, err := referencesFor(0, in, coldBacktrackCap, false)
		if err == errTooHard {
			continue
		}
		if err != nil {
			return nil, err
		}
		var work int64
		for _, r := range refs {
			work += r.Want.Propagations
		}
		if work >= industrialWork[0] && work <= industrialWork[1] {
			return in, nil
		}
	}
	return nil, fmt.Errorf("seed %d: no industrial circuit in the work band in %d draws", seed, coldAttempts)
}

func dedupe(xs ...int64) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// checkStream is the seeded request stream of warm_checks and
// cluster_checks. It is made of rounds: each round covers every
// distinct check of every circuit at least once, in batches of
// batchChecks checks on one circuit (a circuit's checks are permuted and
// repeated to fill its last batch), and the round's batches are sent in
// a seeded order. Every round carries the same work, so two seeds
// differ in order, not in cost.
type checkStream struct {
	rng    *rand.Rand
	inputs []*circuitInput
	keys   [][]checkKey
	queue  []*request
	rounds int
}

func newCheckStream(seed int64, inputs []*circuitInput) *checkStream {
	s := &checkStream{rng: rand.New(rand.NewSource(seed)), inputs: inputs}
	for i, in := range inputs {
		s.keys = append(s.keys, keysOf(i, in))
	}
	return s
}

// next returns the stream's next request. Not safe for concurrent use.
func (s *checkStream) next() (*request, error) {
	if len(s.queue) == 0 {
		if err := s.fillRound(); err != nil {
			return nil, err
		}
	}
	r := s.queue[0]
	s.queue = s.queue[1:]
	return r, nil
}

func (s *checkStream) fillRound() error {
	var round []*request
	for ci, keys := range s.keys {
		perm := s.rng.Perm(len(keys))
		for b := 0; b*batchChecks < len(keys); b++ {
			batch := make([]checkKey, batchChecks)
			for k := range batch {
				batch[k] = keys[perm[(b*batchChecks+k)%len(keys)]]
			}
			r, err := checkRequest(s.inputs[ci], ci, batch)
			if err != nil {
				return err
			}
			r.Round = s.rounds
			round = append(round, r)
		}
	}
	s.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	s.queue = append(s.queue, round...)
	s.rounds++
	return nil
}

// roundLen is the number of requests in one round.
func (s *checkStream) roundLen() int {
	n := 0
	for _, keys := range s.keys {
		n += (len(keys) + batchChecks - 1) / batchChecks
	}
	return n
}

// coldAttempts bounds the circuits the generator tries for one cold
// operation before giving up on the seed.
const coldAttempts = 64

// coldSlots is the number of generator slots per seed: cold operation i
// draws from slot i, filler k from slot coldSlots-1-k, so no two
// circuits of any seeds share a generator seed.
const coldSlots = 1_000_003

// coldInput renders attempt j at cold operation i: a never-seen
// industrial circuit whose size cycles through coldBlocks with i (a
// skipped attempt keeps the size), checked on every primary output at
// δ ∈ {top+1, top}.
func coldInput(seed int64, i, j int) (*circuitInput, error) {
	c := gen.Industrial((seed*coldSlots+int64(i))*coldAttempts+int64(j), coldBlocks[i%len(coldBlocks)], 10)
	return newInput(c.Name, c, func(top int64) []int64 { return []int64{top + 1, top} })
}

// fillerInput renders cold_uploads' filler k: a small industrial
// circuit no operation uploads, checked once per primary output at
// δ = top+1 (refuted by plain narrowing).
func fillerInput(seed int64, k int) (*circuitInput, error) {
	c := gen.Industrial((seed*coldSlots+coldSlots-1-int64(k))*coldAttempts, coldBlocks[0], 10)
	return newInput(c.Name, c, func(top int64) []int64 { return []int64{top + 1} })
}
