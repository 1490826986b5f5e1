package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"
)

// shardRecord is one coordinator→worker shard seen by a recording
// proxy: when its request arrived and when the worker's terminal done
// line passed back through.
type shardRecord struct {
	TraceID  string
	Arrive   time.Time
	Terminal time.Time
}

// recordingProxy is a loopback reverse proxy in front of one worker.
// It timestamps every check request's arrival and its answer's done
// line, keyed by the batch trace id the coordinator forwards, which
// gives the coordinator's dispatch and merge times from outside.
type recordingProxy struct {
	ln     net.Listener
	srv    *http.Server
	served chan struct{} // closed when Serve returns

	mu   sync.Mutex
	recs []*shardRecord // guarded by mu
}

func startProxy(workerAddr string) (*recordingProxy, error) {
	target, err := url.Parse("http://" + workerAddr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &recordingProxy{ln: ln, served: make(chan struct{})}
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.FlushInterval = -1 // pass every NDJSON line through at once
	rp.ModifyResponse = func(resp *http.Response) error {
		if rec, ok := resp.Request.Context().Value(recKey{}).(*shardRecord); ok {
			resp.Body = &doneWatcher{rc: resp.Body, rec: rec, mu: &p.mu}
		}
		return nil
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/check") {
			rec := &shardRecord{Arrive: time.Now()}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			var shard struct {
				Trace *struct {
					TraceID string `json:"traceId"`
				} `json:"trace"`
			}
			if json.Unmarshal(body, &shard) == nil && shard.Trace != nil {
				rec.TraceID = shard.Trace.TraceID
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			p.mu.Lock()
			p.recs = append(p.recs, rec)
			p.mu.Unlock()
			r = r.WithContext(context.WithValue(r.Context(), recKey{}, rec))
		}
		rp.ServeHTTP(w, r)
	})}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln)
	}()
	return p, nil
}

func (p *recordingProxy) addr() string { return p.ln.Addr().String() }

// reset forgets everything recorded so far.
func (p *recordingProxy) reset() {
	p.mu.Lock()
	p.recs = nil
	p.mu.Unlock()
}

// records returns the shards recorded so far.
func (p *recordingProxy) records() []shardRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]shardRecord, len(p.recs))
	for i, r := range p.recs {
		out[i] = *r
	}
	return out
}

// close stops the proxy and waits for its server to return.
func (p *recordingProxy) close() {
	_ = p.srv.Close()
	<-p.served
}

type recKey struct{}

// doneWatcher passes a worker's NDJSON answer through and stamps the
// record when the terminal done line goes by.
type doneWatcher struct {
	rc   io.ReadCloser
	rec  *shardRecord
	mu   *sync.Mutex
	tail []byte
}

var doneMarker = []byte(`{"type":"done"`)

func (d *doneWatcher) Read(b []byte) (int, error) {
	n, err := d.rc.Read(b)
	if n > 0 {
		buf := append(d.tail, b[:n]...)
		if bytes.Contains(buf, doneMarker) {
			d.mu.Lock()
			if d.rec.Terminal.IsZero() {
				d.rec.Terminal = time.Now()
			}
			d.mu.Unlock()
		}
		keep := min(len(buf), len(doneMarker)-1)
		d.tail = append(d.tail[:0], buf[len(buf)-keep:]...)
	}
	return n, err
}

func (d *doneWatcher) Close() error { return d.rc.Close() }

// attachProxySpans splits each traced cluster batch at the recording
// proxies: dispatch (request sent → first shard at a worker), worker
// wait (→ first check starts), worker emit (last check ends → last
// worker's done line) and merge (→ the client's done line).
func attachProxySpans(s *servedSamples, proxies []*recordingProxy) {
	byTrace := map[string][]shardRecord{}
	for _, p := range proxies {
		for _, r := range p.records() {
			byTrace[r.TraceID] = append(byTrace[r.TraceID], r)
		}
	}
	for i, v := range s.Verified {
		recs := byTrace[v.TraceID]
		if len(recs) == 0 {
			continue
		}
		first, last := recs[0].Arrive, recs[0].Terminal
		complete := true
		for _, r := range recs {
			if r.Arrive.Before(first) {
				first = r.Arrive
			}
			if r.Terminal.IsZero() {
				complete = false
			}
			if r.Terminal.After(last) {
				last = r.Terminal
			}
		}
		if !complete {
			continue
		}
		p := &s.PerBatch[i]
		p.Dispatch = ms(first.Sub(p.sent))
		p.WorkerWait = ms(p.first.Sub(first))
		p.WorkerEmit = ms(last.Sub(p.last))
		p.Merge = ms(p.done.Sub(last))
		p.ProxySpans = true
	}
	s.Shards = byTrace
}
