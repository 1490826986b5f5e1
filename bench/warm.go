package main

import (
	"context"
	"fmt"
	"time"
)

// warmupSalt seeds the warm-up round's own stream, so the measured
// stream is the seed's stream from its first request.
const warmupSalt = 0x5eed

// setupRuns is how many times a served workload sets up per run; setup_s
// is their median and the last deployment is the one measured.
const setupRuns = 5

// runChecks runs warm_checks (one lttad -workers 2) or cluster_checks (a
// coordinator over three lttad -workers 1): every circuit is uploaded
// and every cone built before the window, so the window is the
// registry-hit path — the four engine stages, result encoding, the HTTP
// round trip, and on the cluster the coordinator's routing, dispatch and
// merge.
func runChecks(cfg config) (*outcome, error) {
	inputs, err := warmInputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	refs, err := warmReferences(inputs)
	if err != nil {
		return nil, err
	}
	out := newOutcome(cfg)

	var dep *deployment
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if dep != nil {
			dep.stop()
		}
		start := time.Now()
		dep, err = deploy(cfg.Lttad, cfg.Workload)
		if err != nil {
			return nil, err
		}
		if err := prime(dep.front(), inputs, refs, cfg.Seed); err != nil {
			dep.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer dep.stop()
	out.Metrics.set("setup_s", median(setups), len(setups))

	inputOf := func(i int) *circuitInput { return inputs[i] }
	measure := func(front *daemon) (*servedSamples, int, error) {
		lc := newLoadClient(front.url())
		defer lc.close()
		stream := newCheckStream(cfg.Seed, inputs)
		next := func() (*op, error) {
			r, err := stream.next()
			if err != nil {
				return nil, err
			}
			return &op{Reqs: []*request{r}}, nil
		}
		runs, t0, err := runClosed(lc, next, time.Duration(cfg.Seconds)*time.Second)
		if err != nil {
			return nil, 0, err
		}
		return collect(runs, t0, refs, inputOf, false), stream.roundLen(), nil
	}

	plain, roundLen, err := measure(dep.front())
	if err != nil {
		return nil, err
	}
	rss, err := dep.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.addServed(plain, roundPasses(plain, roundLen), rss)
	if !cfg.Trace {
		return out, nil
	}

	// Traced repetition: the same stream again, recording spans, with
	// the cluster's shards passing through recording proxies.
	front := dep.front()
	var proxies []*recordingProxy
	if cfg.Workload == wlCluster {
		var addrs []string
		for _, w := range dep.workers {
			p, err := startProxy(w.addr)
			if err != nil {
				return nil, err
			}
			defer p.close()
			proxies = append(proxies, p)
			addrs = append(addrs, p.addr())
		}
		if front, err = dep.addCoordinator(cfg.Lttad, addrs); err != nil {
			return nil, err
		}
		// A coordinator over new addresses places shards anew: prime it
		// so its owners hold their cones before the window.
		if err := prime(front, inputs, refs, cfg.Seed); err != nil {
			return nil, fmt.Errorf("priming the traced coordinator: %w", err)
		}
		for _, p := range proxies {
			p.reset()
		}
	}
	before, err := scrapeAll(dep.all())
	if err != nil {
		return nil, err
	}
	traced, _, err := measure(front)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(dep.all())
	if err != nil {
		return nil, err
	}
	if len(proxies) > 0 {
		attachProxySpans(traced, proxies)
	}
	lt, err := timeLayers(inputs, true)
	if err != nil {
		return nil, err
	}
	poolWidth := 2
	if cfg.Workload == wlCluster {
		poolWidth = len(dep.workers)
	}
	out.addTracedServed(plain, traced, before, after, dep, lt, poolWidth)
	out.addBacktracks(refs)
	return out, out.writeServedTrace(cfg, traced, inputs)
}

// prime uploads every circuit (checking each content address) and runs
// one warm-up round of every distinct check, so every prepared state
// and cone exists before timing.
func prime(front *daemon, inputs []*circuitInput, refs refTable, seed int64) error {
	lc := newLoadClient(front.url())
	defer lc.close()
	for i, in := range inputs {
		ex := lc.do(context.Background(), uploadRequest(in, i))
		if err := verifyUpload(ex, in, false); err != nil {
			return err
		}
	}
	stream := newCheckStream(seed^warmupSalt, inputs)
	reqs := make([]*request, stream.roundLen())
	for i := range reqs {
		r, err := stream.next()
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	return parallel(loadConns, len(reqs), func(i int) error {
		_, err := verifyChecks(lc.do(context.Background(), reqs[i]), refs)
		return err
	})
}

// roundPasses measures each complete round of the stream — one pass
// over every distinct check — from its first request sent to its last
// answer.
func roundPasses(s *servedSamples, roundLen int) []float64 {
	type span struct {
		start, end time.Time
		n          int
	}
	rounds := map[int]*span{}
	for _, v := range s.Verified {
		sp := rounds[v.Ex.Req.Round]
		if sp == nil {
			sp = &span{start: v.Ex.Sent, end: v.DoneAt}
			rounds[v.Ex.Req.Round] = sp
		}
		if v.Ex.Sent.Before(sp.start) {
			sp.start = v.Ex.Sent
		}
		if v.DoneAt.After(sp.end) {
			sp.end = v.DoneAt
		}
		sp.n++
	}
	var out []float64
	for _, sp := range rounds {
		if sp.n == roundLen {
			out = append(out, sp.end.Sub(sp.start).Seconds())
		}
	}
	return out
}
