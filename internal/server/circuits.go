package server

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/registry"
	"repro/internal/sdf"
)

// handleCircuitPut is PUT /v1/circuits: canonicalize the upload, hash
// it, and register the parsed circuit under its content address. The
// call is idempotent — re-uploading a known circuit costs one hash and
// zero parses — and takes no admission slot: uploads are cheap
// bookkeeping next to check batches, and a registry full of circuits
// admits no work by itself.
func (s *Server) handleCircuitPut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectedDrain.Add(1)
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "upload rejected",
			slog.String("reason", "draining"))
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: "draining",
			msg: "server is draining; resubmit elsewhere"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var up UploadRequest
	if apiErr := decodeBody(r.Body, &up); apiErr != nil {
		s.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	if !api.AcceptsVersion(up.V) {
		s.rejectBadRequest(r.Context(), w, unsupportedVersion(up.V))
		return
	}
	res, err := s.registry.Put(&up, s.buildCircuit)
	if err != nil {
		s.rejectBadRequest(r.Context(), w, uploadError(err))
		return
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "circuit upload",
		slog.String("hash", string(res.Hash)), slog.Bool("created", res.Created),
		slog.String("circuit", res.Circuit.Name))
	w.Header().Set("Content-Type", "application/json")
	if res.Created {
		w.WriteHeader(http.StatusCreated)
	}
	_ = json.NewEncoder(w).Encode(UploadResponse{
		V: api.Version, Hash: res.Hash, Created: res.Created,
		Circuit: circuitInfo(res.Circuit, 0),
	})
}

// uploadError maps a registry.Put failure onto the structured error
// envelope: canonicalization failures carry their own stable code,
// build failures are already apiErrors.
func uploadError(err error) *apiError {
	var bad *registry.BadUploadError
	if errors.As(err, &bad) {
		return badRequest(bad.Code, "%s", bad.Message)
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	return badRequest("bad_upload", "%v", err)
}

// buildCircuit parses a canonicalized upload and applies its delay
// annotations. It runs only on uploads of hashes not yet registered —
// the netlistParses counter proves warm paths never reach here. The
// annotations are applied before the circuit is published, so the
// registered circuit is complete and immutable from the moment any
// batch can see it.
func (s *Server) buildCircuit(canon *api.UploadRequest) (*circuit.Circuit, error) {
	s.netlistParses.Add(1)
	return buildUploadCircuit(canon)
}

// buildUploadCircuit is the parse+annotate step shared by the worker
// registry and the coordinator's circuit table; each caller counts the
// parse in its own netlistParses counter.
func buildUploadCircuit(canon *api.UploadRequest) (*circuit.Circuit, error) {
	c, apiErr := parseNetlist(canon.Netlist, canon.Format, canon.Name, canon.DefaultDelay)
	if apiErr != nil {
		return nil, apiErr
	}
	if canon.SDF != "" {
		if _, err := sdf.ApplyString(c, canon.SDF); err != nil {
			return nil, badRequest("bad_sdf", "applying SDF: %v", err)
		}
	}
	for _, d := range canon.Delays {
		id, ok := c.NetByName(d.Net)
		if !ok {
			return nil, badRequest("unknown_annotation_net",
				"delay annotation targets unknown net %q", d.Net)
		}
		drv := c.Net(id).Driver
		if drv == circuit.InvalidGate {
			return nil, badRequest("bad_annotation",
				"net %q is a primary input; only gate outputs carry delays", d.Net)
		}
		c.SetDelay(drv, d.Delay, d.DMin)
	}
	return c, nil
}

// handleCheckByHash is POST /v1/circuits/{hash}/check: run a batch
// against a previously uploaded circuit. The request carries no
// netlist — a warm entry serves the batch with zero parses and zero
// core.Prepare calls. The pin taken here holds the entry (and its
// shared prepared state) against eviction for the whole batch,
// released only after the response is written.
func (s *Server) handleCheckByHash(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectedDrain.Add(1)
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "batch rejected",
			slog.String("reason", "draining"))
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, &apiError{status: http.StatusServiceUnavailable, code: "draining",
			msg: "server is draining; resubmit elsewhere"})
		return
	}
	h := api.Hash(r.PathValue("hash"))
	if !h.Valid() {
		s.rejectBadRequest(r.Context(), w, badRequest("bad_hash",
			"malformed circuit hash %q (want sha256:<64 hex>)", string(h)))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, apiErr := decodeRequest(r.Body, true)
	if apiErr != nil {
		s.rejectBadRequest(r.Context(), w, apiErr)
		return
	}
	pin, ok := s.registry.Acquire(h)
	if !ok {
		s.badRequests.Add(1)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "unknown hash",
			slog.String("hash", string(h)))
		writeError(w, &apiError{status: http.StatusNotFound, code: "unknown_hash",
			msg:  "no circuit registered under this hash; PUT /v1/circuits and retry",
			hash: h})
		return
	}
	defer pin.Release()
	s.admitAndRun(w, r, req, pin.Circuit(), pin)
}
