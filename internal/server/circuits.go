package server

import (
	"errors"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/registry"
	"repro/internal/sdf"
)

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
// annotations, for the worker registry and the coordinator's circuit
// table alike. It runs only on uploads of hashes not yet registered —
// the netlistParses counter proves warm paths never reach here. The
// annotations are applied before the circuit is published, so the
// registered circuit is complete and immutable from the moment any
// batch can see it.
func (fe *frontEnd) buildCircuit(canon *api.UploadRequest) (*circuit.Circuit, error) {
	fe.netlistParses.Add(1)
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
		c.SetDelay(drv, d.Delay)
	}
	return c, nil
}
