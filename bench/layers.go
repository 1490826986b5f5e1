package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/api"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/learn"
	"repro/internal/registry"
	"repro/internal/scoap"
	"repro/internal/server"
	"repro/internal/waveform"
)

// layerReps is how many times each per-circuit layer call is timed.
const layerReps = 3

// layerSample is the in-process cost of the public layer functions on
// one input circuit: medians over layerReps calls, plus one sample per
// cone and per encoded answer.
type layerSample struct {
	Input     *circuitInput
	ParseMs   float64 // circuit.ParseBenchString
	HashUs    float64 // registry.HashUpload
	PrepareMs float64 // core.Prepare (analysis, SCOAP, stems)
	DelayUs   float64 // delay.New
	ScoapUs   float64 // scoap.Compute
	StemsUs   float64 // (*circuit.Circuit).ReconvergentStems
	LearnMs   float64 // learn.Precompute
	ConeUs    []float64
	EncodeUs  []float64 // server.ResultFromReport + the check event's JSON
}

// timeLayers times the public layer functions on each input. With
// encode set it also solves every check of the input and times
// converting and encoding each answer the way lttad emits it.
func timeLayers(inputs []*circuitInput, encode bool) ([]layerSample, error) {
	var out []layerSample
	for i, in := range inputs {
		ls := layerSample{Input: in}
		var parse, hash, prep, dl, sc, st, lr []float64
		for r := 0; r < layerReps; r++ {
			up := api.UploadRequest{V: api.Version, Netlist: in.Netlist, Name: in.Name}
			t := time.Now()
			_, canon, err := registry.HashUpload(&up)
			hash = append(hash, us(time.Since(t)))
			if err != nil {
				return nil, err
			}
			t = time.Now()
			c, err := parseLikeServer(canon)
			parse = append(parse, ms(time.Since(t)))
			if err != nil {
				return nil, err
			}
			t = time.Now()
			core.Prepare(c)
			prep = append(prep, ms(time.Since(t)))
			t = time.Now()
			delay.New(c)
			dl = append(dl, us(time.Since(t)))
			t = time.Now()
			scoap.Compute(c)
			sc = append(sc, us(time.Since(t)))
			t = time.Now()
			c.ReconvergentStems()
			st = append(st, us(time.Since(t)))
			t = time.Now()
			learn.Precompute(c)
			lr = append(lr, ms(time.Since(t)))
		}
		ls.ParseMs, ls.HashUs, ls.PrepareMs = median(parse), median(hash), median(prep)
		ls.DelayUs, ls.ScoapUs, ls.StemsUs, ls.LearnMs = median(dl), median(sc), median(st), median(lr)
		for _, po := range in.C.PrimaryOutputs() {
			t := time.Now()
			if _, _, err := circuit.ExtractConeMapped(in.C, po); err != nil {
				return nil, err
			}
			ls.ConeUs = append(ls.ConeUs, us(time.Since(t)))
		}
		if encode {
			v := core.Prepare(in.C).NewVerifier(serverOptions())
			for j, k := range keysOf(i, in) {
				sink, _ := in.C.NetByName(k.Sink)
				rep := v.Run(context.Background(), core.Request{Sink: sink, Delta: waveform.Time(k.Delta)})
				t := time.Now()
				res := server.ResultFromReport(in.C, j, rep)
				if _, err := json.Marshal(api.Event{Type: "check", Check: &res}); err != nil {
					return nil, err
				}
				ls.EncodeUs = append(ls.EncodeUs, us(time.Since(t)))
			}
		}
		out = append(out, ls)
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerMetrics turns layer samples into the in-process per-layer
// metrics: each is the median over the workload's distinct inputs
// (cones and encodes: over every cone and every answer).
func layerMetrics(m metricSet, samples []layerSample) {
	pick := func(f func(layerSample) float64) []float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return xs
	}
	set := func(name string, xs []float64) { m.set(name, median(xs), len(xs)) }
	set("circuit.parse_ms", pick(func(s layerSample) float64 { return s.ParseMs }))
	set("registry.hash_us", pick(func(s layerSample) float64 { return s.HashUs }))
	set("core.prepare_ms", pick(func(s layerSample) float64 { return s.PrepareMs }))
	set("delay.analysis_us", pick(func(s layerSample) float64 { return s.DelayUs }))
	set("scoap.compute_us", pick(func(s layerSample) float64 { return s.ScoapUs }))
	set("circuit.stems_us", pick(func(s layerSample) float64 { return s.StemsUs }))
	set("learn.precompute_ms", pick(func(s layerSample) float64 { return s.LearnMs }))
	var cones, enc []float64
	for _, s := range samples {
		cones = append(cones, s.ConeUs...)
		enc = append(enc, s.EncodeUs...)
	}
	set("circuit.cone_us", cones)
	if len(enc) > 0 {
		set("api.encode_us", enc)
	}
}
