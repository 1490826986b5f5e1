package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// tally counts operations and keeps the first few failures.
type tally struct {
	Attempted int
	Failed    int
	Problems  []string
}

const keptProblems = 5

func (t *tally) fail(err error) {
	t.Failed++
	if len(t.Problems) < keptProblems {
		t.Problems = append(t.Problems, err.Error())
	}
}

// answer is one verified check answer with the client-side time its
// line arrived.
type answer struct {
	Res     api.CheckResult
	Arrival time.Time
}

// verifiedExchange is an exchange whose answer passed every check.
type verifiedExchange struct {
	Ex      *exchange
	Answers []answer
	Done    api.DoneInfo
	DoneAt  time.Time
	TraceID string
}

// verifyUpload checks a PUT answer: 2xx, the content address computed
// in-process, and — for never-seen circuits — a fresh registration.
func verifyUpload(ex *exchange, in *circuitInput, mustCreate bool) error {
	if ex.Err != nil {
		return fmt.Errorf("upload %s: %w", in.Name, ex.Err)
	}
	if ex.Status/100 != 2 {
		return fmt.Errorf("upload %s: status %d: %s", in.Name, ex.Status, ex.Body)
	}
	var up api.UploadResponse
	if err := json.Unmarshal(ex.Body, &up); err != nil {
		return fmt.Errorf("upload %s: decoding answer: %w", in.Name, err)
	}
	if up.Hash != in.Hash {
		return fmt.Errorf("upload %s: daemon hashed it %s, in-process %s", in.Name, up.Hash, in.Hash)
	}
	if mustCreate && (!up.Created || ex.Status != http.StatusCreated) {
		return fmt.Errorf("upload %s: never-seen circuit answered created=%v status %d", in.Name, up.Created, ex.Status)
	}
	return nil
}

// verifyChecks checks a streamed batch answer: status 200, a terminal
// done event (a stream cut before it is a truncated stream), exactly
// one answer per check, and every answer equal to its reference.
func verifyChecks(ex *exchange, refs refTable) (*verifiedExchange, error) {
	r := ex.Req
	if ex.Err != nil {
		return nil, fmt.Errorf("batch on %s: %w", r.Path, ex.Err)
	}
	if ex.Status != http.StatusOK {
		return nil, fmt.Errorf("batch: status %d: %s", ex.Status, ex.Body)
	}
	v := &verifiedExchange{Ex: ex, Answers: make([]answer, 0, len(r.Keys))}
	seen := make([]bool, len(r.Keys))
	done := false
	for i, ev := range ex.Events {
		if done {
			return nil, fmt.Errorf("batch: event %q after done", ev.Type)
		}
		if v.TraceID == "" {
			v.TraceID = ev.TraceID
		}
		switch ev.Type {
		case "check":
			res := ev.Check
			if res == nil || res.Index < 0 || res.Index >= len(r.Keys) || seen[res.Index] {
				return nil, fmt.Errorf("batch: check event with bad or repeated index")
			}
			seen[res.Index] = true
			ref := refs[r.Keys[res.Index]]
			if ref == nil {
				return nil, fmt.Errorf("batch: no reference for %+v", r.Keys[res.Index])
			}
			if err := checkAnswer(*res, ref, res.Index); err != nil {
				return nil, err
			}
			v.Answers = append(v.Answers, answer{Res: *res, Arrival: ex.Arrivals[i]})
		case "done":
			if ev.Done == nil {
				return nil, fmt.Errorf("batch: done event without body")
			}
			done = true
			v.Done, v.DoneAt = *ev.Done, ex.Arrivals[i]
		case "error":
			return nil, fmt.Errorf("batch: error event: %s", ev.Error)
		}
	}
	if !done {
		return nil, fmt.Errorf("batch: truncated stream (%d events, no done)", len(ex.Events))
	}
	if len(v.Answers) != len(r.Keys) || v.Done.ChecksRun != len(r.Keys) {
		return nil, fmt.Errorf("batch: %d answers, done says %d, sent %d checks",
			len(v.Answers), v.Done.ChecksRun, len(r.Keys))
	}
	return v, nil
}

// servedSamples are the per-request and per-check samples of one
// measured window of a served workload.
type servedSamples struct {
	tally
	Window time.Duration // window start to the last answer
	Checks int

	BatchMs []float64 // latency origin → done line
	CheckMs []float64 // latency origin → check line
	LateMs  []float64 // open loop: due → taken by a connection

	TTFBMs         []float64
	ServerBatchMs  []float64 // done.elapsedUs
	HTTPOverheadMs []float64 // check round trip − done.elapsedUs
	DecodeUs       []float64
	CheckUs        []float64 // engine wall time per check (elapsedUs)
	StageUs        [core.NumStages][]float64
	Propagations   []float64
	EngineUsTotal  float64

	// per request, in request order: the blocking components the
	// attribution report sums
	PerBatch []batchParts
	Verified []*verifiedExchange
	Shards   map[string][]shardRecord // traced cluster: proxy records by trace id
}

// batchParts splits one op's latency into the blocking steps it went
// through, each measured from a client timestamp or a server-stamped
// wire field (client and daemons share the host's wall clock). In
// order: late → upload → start → engine span → emit on a single
// daemon; dispatch → worker wait → engine span → worker emit →
// merge through a coordinator. The engine span is split into the
// batch's own stage and other engine time and the other batches' checks
// that ran beside it, each over the pool's width.
type batchParts struct {
	LatencyMs float64
	LateMs    float64 // open loop: due → taken by a connection
	UploadMs  float64 // cold: the PUT round trip
	StartMs   float64 // check request sent → its first check starts
	StageMs   [core.NumStages]float64
	OutsideMs float64 // Σ own check time outside the four stages
	OthersMs  float64 // other batches' check time inside this batch's engine span
	EmitMs    float64 // last check ends → done line read
	Checks    int

	sent, first, last, done time.Time // request sent; engine span; done line

	// traced cluster: from the recording proxies
	ProxySpans bool
	Dispatch   float64 // sent → first shard at a worker
	WorkerWait float64 // first shard at a worker → first check starts
	WorkerEmit float64 // last check ends → last worker's done line
	Merge      float64 // last worker's done line → client's done line
}

// collect verifies every op of a window and gathers its samples. Ops
// are counted as attempted; any failed exchange fails the op.
func collect(runs []*opRun, t0 time.Time, refs refTable, inputs func(circ int) *circuitInput, mustCreate bool) *servedSamples {
	s := &servedSamples{}
	var last time.Time
	for _, run := range runs {
		s.Attempted++
		parts, err := s.addOp(run, refs, inputs, mustCreate)
		if err != nil {
			s.fail(err)
			continue
		}
		s.PerBatch = append(s.PerBatch, parts)
		if end := run.Ex[len(run.Ex)-1].End; end.After(last) {
			last = end
		}
	}
	s.Window = last.Sub(t0)
	return s
}

func (s *servedSamples) addOp(run *opRun, refs refTable, inputs func(int) *circuitInput, mustCreate bool) (batchParts, error) {
	var parts batchParts
	var v *verifiedExchange
	uploadMs := 0.0
	for i, ex := range run.Ex {
		switch {
		case ex.Req.Method == http.MethodPut:
			if err := verifyUpload(ex, inputs(ex.Req.Circ), mustCreate); err != nil {
				return parts, err
			}
			uploadMs = ms(ex.End.Sub(ex.Sent))
		default:
			var err error
			if v, err = verifyChecks(ex, refs); err != nil {
				return parts, err
			}
		}
		if i == len(run.Ex)-1 && i < len(run.Op.Reqs)-1 {
			return parts, fmt.Errorf("op stopped after request %d of %d", i+1, len(run.Op.Reqs))
		}
	}
	if v == nil {
		return parts, fmt.Errorf("op carried no check request")
	}
	ex := v.Ex
	lat := ms(v.DoneAt.Sub(run.Start))
	s.BatchMs = append(s.BatchMs, lat)
	s.LateMs = append(s.LateMs, ms(run.Picked.Sub(run.Start)))
	s.TTFBMs = append(s.TTFBMs, ms(ex.Headers.Sub(ex.Sent)))
	serverMs := float64(v.Done.ElapsedUs) / 1e3
	s.ServerBatchMs = append(s.ServerBatchMs, serverMs)
	s.HTTPOverheadMs = append(s.HTTPOverheadMs, ms(v.DoneAt.Sub(ex.Sent))-serverMs)
	parts = batchParts{LatencyMs: lat, LateMs: ms(run.Picked.Sub(run.Start)), UploadMs: uploadMs,
		Checks: len(v.Answers), sent: ex.Sent, done: v.DoneAt}
	for _, ns := range ex.DecodeNs {
		s.DecodeUs = append(s.DecodeUs, float64(ns)/1e3)
	}
	for _, a := range v.Answers {
		s.Checks++
		s.CheckMs = append(s.CheckMs, ms(a.Arrival.Sub(run.Start)))
		s.CheckUs = append(s.CheckUs, float64(a.Res.ElapsedUs))
		s.EngineUsTotal += float64(a.Res.ElapsedUs)
		s.Propagations = append(s.Propagations, float64(a.Res.Propagations))
		start := time.UnixMicro(a.Res.StartUnixUs)
		end := start.Add(time.Duration(a.Res.ElapsedUs) * time.Microsecond)
		if parts.first.IsZero() || start.Before(parts.first) {
			parts.first = start
		}
		if end.After(parts.last) {
			parts.last = end
		}
		outside := float64(a.Res.ElapsedUs)
		for st, ran := range stagesRan(a.Res) {
			us := 0.0
			if st < len(a.Res.StageUs) {
				us = float64(a.Res.StageUs[st])
			}
			outside -= us
			if ran {
				s.StageUs[st] = append(s.StageUs[st], us)
			}
			parts.StageMs[st] += us / 1e3
		}
		parts.OutsideMs += outside / 1e3
	}
	parts.StartMs = ms(parts.first.Sub(ex.Sent))
	parts.EmitMs = ms(v.DoneAt.Sub(parts.last))
	s.Verified = append(s.Verified, v)
	return parts, nil
}

// stagesRan reports which pipeline stages a check ran, from its
// verdict columns ("-" marks a stage that did not run).
func stagesRan(r api.CheckResult) [core.NumStages]bool {
	return [core.NumStages]bool{
		r.BeforeGITD != "-" && r.BeforeGITD != "",
		r.AfterGITD != "-",
		r.AfterStem != "-",
		r.CaseAnalysis != "-",
	}
}

// attachOverlap measures, for every batch, how much engine time of the
// window's other batches ran inside its engine span: time the pool's
// workers spent on someone else's checks while this batch waited.
func attachOverlap(s *servedSamples) {
	type interval struct {
		start, end time.Time
		batch      int
	}
	var all []interval
	for i, v := range s.Verified {
		for _, a := range v.Answers {
			start := time.UnixMicro(a.Res.StartUnixUs)
			all = append(all, interval{start, start.Add(time.Duration(a.Res.ElapsedUs) * time.Microsecond), i})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	var longest time.Duration
	for _, iv := range all {
		longest = max(longest, iv.end.Sub(iv.start))
	}
	for i := range s.PerBatch {
		p := &s.PerBatch[i]
		from := sort.Search(len(all), func(k int) bool { return !all[k].start.Before(p.first.Add(-longest)) })
		for _, iv := range all[from:] {
			if !iv.start.Before(p.last) {
				break
			}
			if iv.batch == i {
				continue
			}
			lo, hi := iv.start, iv.end
			if lo.Before(p.first) {
				lo = p.first
			}
			if hi.After(p.last) {
				hi = p.last
			}
			if hi.After(lo) {
				p.OthersMs += ms(hi.Sub(lo))
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
