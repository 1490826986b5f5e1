// Package server implements lttad, the batch timing-check service: an
// HTTP/JSON front end over the core engine. A submission carries one
// netlist (inline, or by the hash of an earlier upload) plus either an
// explicit batch of (sink, δ) checks or a δ-sweep over every primary
// output. An uploaded circuit is parsed and prepared once
// (core.Prepare) and its cached core.Prepared serves every later
// batch by hash; an inline netlist is parsed and prepared for its own
// batch. Either way the checks fan out over a bounded worker pool
// shared by all in-flight batches.
// Production concerns are handled here, not in core: bounded
// admission with 429 + Retry-After backpressure, per-check and
// per-batch timeouts mapped onto core.Run's context and budgets,
// panic isolation so one crashing check fails alone, NDJSON streaming
// of per-check results, graceful drain, and /healthz + /metrics
// observability.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/waveform"
)

// The wire vocabulary moved to the shared versioned internal/api
// package (consumed by internal/client directly, so the client no
// longer imports the server). These aliases keep the server's
// historical surface — server.Request, server.Response, … — valid for
// existing callers.
type (
	CheckSpec       = api.CheckSpec
	SweepSpec       = api.SweepSpec
	OptionsSpec     = api.OptionsSpec
	BudgetsSpec     = api.BudgetsSpec
	Request         = api.Request
	DelayAnnotation = api.DelayAnnotation
	UploadRequest   = api.UploadRequest
	UploadResponse  = api.UploadResponse
	CircuitInfo     = api.CircuitInfo
	CheckResult     = api.CheckResult
	SweepResult     = api.SweepResult
	Row             = api.Row
	Response        = api.Response
	DoneInfo        = api.DoneInfo
	Event           = api.Event
	ErrorBody       = api.ErrorBody
	ErrorInfo       = api.ErrorInfo
	Health          = api.Health
)

// apiError is an error with an HTTP status and a stable code; every
// request-decoding failure becomes one (never a panic). hash, when
// set, is echoed in the error body (the unknown_hash case).
type apiError struct {
	status int
	code   string
	msg    string
	hash   api.Hash
}

func (e *apiError) Error() string { return e.msg }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// decodeBody decodes one JSON document into dst, mapping failures to
// structured 4xx errors (never a panic — enforced by FuzzDecodeRequest).
func decodeBody(r io.Reader, dst any) *apiError {
	if err := json.NewDecoder(r).Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				code: "body_too_large", msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return badRequest("bad_json", "decoding request: %v", err)
	}
	return nil
}

// unsupportedVersion is the structured rejection of an envelope from a
// future protocol revision.
func unsupportedVersion(v int) *apiError {
	return badRequest("unsupported_version", "protocol version %d not supported (this server speaks v%d)", v, api.Version)
}

// decodeRequest reads and validates a check-request body. With
// byHash set the request is hash-addressed: the circuit identity
// lives in the URL, so the netlist fields must be absent. An inline
// request's netlist fields are validated where every upload's are,
// by registry.Canonicalize.
func decodeRequest(r io.Reader, byHash bool) (*Request, *apiError) {
	var req Request
	if apiErr := decodeBody(r, &req); apiErr != nil {
		return nil, apiErr
	}
	if !api.AcceptsVersion(req.V) {
		return nil, unsupportedVersion(req.V)
	}
	if byHash && (strings.TrimSpace(req.Netlist) != "" || req.Format != "" || req.Name != "" || req.DefaultDelay != 0) {
		return nil, badRequest("netlist_in_hash_check",
			"hash-addressed checks carry no netlist fields; the circuit identity is the URL hash")
	}
	if req.CheckTimeoutMs < 0 || req.TimeoutMs < 0 {
		return nil, badRequest("bad_timeout", "timeouts must be ≥ 0")
	}
	hasChecks := len(req.Checks) > 0
	hasSweep := req.Sweep != nil
	if hasChecks == hasSweep {
		return nil, badRequest("bad_workload", "exactly one of checks and sweep must be present")
	}
	if hasSweep && !req.Sweep.Table1 && len(req.Sweep.Deltas) == 0 {
		return nil, badRequest("bad_sweep", "sweep needs deltas (or table1)")
	}
	for i, cs := range req.Checks {
		if strings.TrimSpace(cs.Sink) == "" {
			return nil, badRequest("bad_check", "check %d names no sink", i)
		}
	}
	return &req, nil
}

// resolvedCheck is a CheckSpec bound to a net id.
type resolvedCheck struct {
	sink       circuit.NetID
	delta      waveform.Time
	verifyOnly bool
}

// resolveChecks binds the batch's sink names to nets.
func resolveChecks(c *circuit.Circuit, specs []CheckSpec) ([]resolvedCheck, *apiError) {
	out := make([]resolvedCheck, len(specs))
	for i, cs := range specs {
		id, ok := c.NetByName(cs.Sink)
		if !ok {
			return nil, badRequest("unknown_sink", "check %d: no net named %q", i, cs.Sink)
		}
		out[i] = resolvedCheck{sink: id, delta: waveform.Time(cs.Delta), verifyOnly: cs.VerifyOnly}
	}
	return out, nil
}

// engineOptions maps the request options onto core.Options, starting
// from the paper's defaults exactly like the harness does.
func engineOptions(spec *OptionsSpec) core.Options {
	opts := core.Default()
	if spec == nil {
		return opts
	}
	if spec.NoDominators {
		opts.UseDominators = false
	}
	if spec.NoLearning {
		opts.UseLearning = false
	}
	if spec.NoStems {
		opts.UseStemCorrelation = false
	}
	if spec.NoCone {
		opts.UseConeSlicing = false
	}
	switch {
	case spec.MaxBacktracks < 0:
		opts.MaxBacktracks = 0 // unlimited
	case spec.MaxBacktracks > 0:
		opts.MaxBacktracks = spec.MaxBacktracks
	}
	if spec.MaxStemSplits != 0 {
		opts.MaxStemSplits = spec.MaxStemSplits
	}
	return opts
}

// engineBudgets maps the request budgets onto core.Budgets.
func engineBudgets(spec *BudgetsSpec) core.Budgets {
	if spec == nil {
		return core.Budgets{}
	}
	return core.Budgets{
		MaxBacktracks:   spec.MaxBacktracks,
		MaxStemSplits:   spec.MaxStemSplits,
		MaxPropagations: spec.MaxPropagations,
	}
}

// circuitInfo summarises the parsed netlist.
func circuitInfo(c *circuit.Circuit, checks int) CircuitInfo {
	st := c.Stats()
	pis := c.PrimaryInputs()
	names := make([]string, len(pis))
	for i, pi := range pis {
		names[i] = c.Net(pi).Name
	}
	return CircuitInfo{
		Name: c.Name, Gates: st.Gates, Nets: st.Nets,
		PIs: st.PIs, POs: st.POs, Levels: st.Levels,
		PINames: names, Checks: checks,
	}
}

// ResultFromReport serialises one finished check. It is exported so
// the differential tests compare server responses against in-process
// reports through the same conversion. Wall-clock fields (ElapsedUs)
// are the only non-deterministic ones.
func ResultFromReport(c *circuit.Circuit, index int, rep *core.Report) CheckResult {
	res := CheckResult{
		Sink:  c.Net(rep.Sink).Name,
		Delta: int64(rep.Delta),
		Index: index,

		BeforeGITD:   rep.BeforeGITD.String(),
		AfterGITD:    rep.AfterGITD.String(),
		AfterStem:    rep.AfterStem.String(),
		CaseAnalysis: rep.CaseAnalysis.String(),
		Final:        rep.Final.String(),
		Backtracks:   rep.Backtracks,

		Dominators:      rep.Dominators,
		DominatorRounds: rep.DominatorRounds,
		Propagations:    rep.Propagations,
		Narrowings:      rep.Stats.Narrowings,
		QueueHighWater:  rep.Stats.QueueHighWater,
		Decisions:       rep.Stats.Decisions,
		StemSplits:      rep.Stats.StemSplits,
		ElapsedUs:       rep.Elapsed.Microseconds(),
	}
	if len(rep.Witness) > 0 {
		res.Witness = rep.Witness.String()
		res.WitnessSettle = int64(rep.WitnessSettle)
	}
	return res
}

// SweepFromReport serialises a circuit-level aggregate (exported so
// the differential tests compare server sweeps against in-process
// core.RunAll reports through the same conversion).
func SweepFromReport(c *circuit.Circuit, cr *core.CircuitReport) SweepResult {
	sw := SweepResult{
		Delta:         int64(cr.Delta),
		BeforeGITD:    cr.BeforeGITD.String(),
		AfterGITD:     cr.AfterGITD.String(),
		AfterStem:     cr.AfterStem.String(),
		CaseAnalysis:  cr.CaseAnalysis.String(),
		Final:         cr.Final.String(),
		Backtracks:    cr.Backtracks,
		WitnessOutput: cr.WitnessOutput,
		Propagations:  cr.Propagations,
		Dominators:    cr.Dominators,
		Rounds:        cr.DominatorRounds,
	}
	for i, rep := range cr.PerOutput {
		sw.PerOutput = append(sw.PerOutput, ResultFromReport(c, i, rep))
	}
	return sw
}

// DecodeWitness parses a CheckResult witness bit string back into a
// simulation vector (indexed parallel to CircuitInfo.PINames).
func DecodeWitness(s string) (sim.Vector, error) {
	v := make(sim.Vector, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			v[i] = 0
		case '1':
			v[i] = 1
		default:
			return nil, fmt.Errorf("server: witness bit %d is %q, want 0 or 1", i, s[i])
		}
	}
	return v, nil
}
