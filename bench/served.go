package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// daemon is one lttad subprocess listening on a loopback port.
type daemon struct {
	name    string
	addr    string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait has returned
	waitErr error         // valid after exited is closed
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a loopback port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon spawns lttad on a fresh loopback port. Its logs go to
// /dev/null, and the kernel kills it if the benchmark dies first.
func startDaemon(lttad, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(lttad, append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited while starting: %v", d.name, d.waitErr)
		default:
		}
		resp, err := hc.Get(d.url() + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", d.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// stop asks the daemon to drain, kills it after five seconds, and
// returns once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// deployment is the set of daemons one served workload runs against.
type deployment struct {
	workers []*daemon // the daemons that run checks
	coord   *daemon   // the coordinator in front of workers; nil for one daemon
	extra   []*daemon // more coordinators over the same workers (traced runs)
}

// front is the daemon the load talks to.
func (dep *deployment) front() *daemon {
	if dep.coord != nil {
		return dep.coord
	}
	return dep.workers[0]
}

func (dep *deployment) all() []*daemon {
	out := append([]*daemon(nil), dep.workers...)
	if dep.coord != nil {
		out = append(out, dep.coord)
	}
	return append(out, dep.extra...)
}

// deploy spawns the workload's daemons and waits until every one is
// ready: one `lttad -workers 2` (warm_checks, cold_uploads with a
// 16-circuit registry) or three `lttad -workers 1` behind a coordinator
// (cluster_checks).
func deploy(lttad, workload string) (*deployment, error) {
	dep := &deployment{}
	start := func(name string, args ...string) (*daemon, error) {
		d, err := startDaemon(lttad, name, args...)
		if err != nil {
			return nil, err
		}
		if err := d.waitReady(30 * time.Second); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	}
	switch workload {
	case wlWarm, wlCold:
		args := []string{"-workers", "2"}
		if workload == wlCold {
			args = append(args, "-registry-size", strconv.Itoa(coldRegistrySize))
		}
		d, err := start("lttad", args...)
		if err != nil {
			return nil, err
		}
		dep.workers = []*daemon{d}
	case wlCluster:
		var addrs []string
		for i := 0; i < 3; i++ {
			d, err := start(fmt.Sprintf("worker-%d", i), "-workers", "1")
			if err != nil {
				dep.stop()
				return nil, err
			}
			dep.workers = append(dep.workers, d)
			addrs = append(addrs, d.addr)
		}
		co, err := start("coordinator", "-coordinator", strings.Join(addrs, ","))
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.coord = co
	default:
		return nil, fmt.Errorf("workload %s runs no daemons", workload)
	}
	return dep, nil
}

// addCoordinator starts another coordinator over the given worker
// addresses (the recording proxies of a traced cluster run).
func (dep *deployment) addCoordinator(lttad string, addrs []string) (*daemon, error) {
	d, err := startDaemon(lttad, "traced-coordinator", "-coordinator", strings.Join(addrs, ","))
	if err != nil {
		return nil, err
	}
	dep.extra = append(dep.extra, d)
	return d, d.waitReady(30 * time.Second)
}

func (dep *deployment) stop() {
	var wg sync.WaitGroup
	for _, d := range dep.all() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
}

// peakRSSMB sums the resident-set high-water marks of the daemons that
// did the workload's work.
func (dep *deployment) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, d := range dep.workers {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	if dep.coord != nil {
		mb, err := dep.coord.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// promSample is one scrape of a daemon's /metrics exposition.
type promSample []obs.PromSample

// scrape reads a daemon's /metrics with obs.ParseProm, which also
// rejects a malformed exposition.
func scrape(d *daemon) (promSample, error) {
	resp, err := http.Get(d.url() + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", d.name, resp.StatusCode)
	}
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	var out promSample
	for _, f := range fams {
		out = append(out, f.Samples...)
	}
	return out, nil
}

// sum adds every sample of the named metric that carries all the given
// labels (none: every sample).
func (p promSample) sum(name string, labels obs.Labels) float64 {
	t := 0.0
	for _, s := range p {
		if s.Name == name && hasLabels(s.Labels, labels) {
			t += s.Value
		}
	}
	return t
}

func hasLabels(got, want obs.Labels) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// scrapeAll scrapes each daemon.
func scrapeAll(ds []*daemon) ([]promSample, error) {
	out := make([]promSample, len(ds))
	for i, d := range ds {
		p, err := scrape(d)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// counterDelta sums a counter's growth across daemons between two
// scrapes.
func counterDelta(before, after []promSample, name string, labels obs.Labels) float64 {
	d := 0.0
	for i := range after {
		d += after[i].sum(name, labels) - before[i].sum(name, labels)
	}
	return d
}

// loadClient is the benchmark's HTTP client: at most loadConns
// connections to one daemon.
type loadClient struct {
	base string
	hc   *http.Client
}

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     loadConns,
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
	}
	return &loadClient{base: base, hc: &http.Client{Transport: tr}}
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// exchange is one request and its answer as the client saw it.
type exchange struct {
	Req     *request
	Sent    time.Time // request handed to the transport
	Headers time.Time // response headers received
	End     time.Time // body fully read
	Status  int
	Err     error
	Body    []byte // a non-stream or non-2xx answer

	Events   []api.Event // stream events in arrival order
	Arrivals []time.Time // when each event's line was read
	DecodeNs []int64     // json.Unmarshal time per event
}

// do sends one request and reads the answer. Stream lines are
// timestamped as they are read and decoded inline, as a client
// consuming results would.
func (lc *loadClient) do(ctx context.Context, r *request) *exchange {
	ex := &exchange{Req: r}
	hreq, err := http.NewRequestWithContext(ctx, r.Method, lc.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		ex.Err = err
		return ex
	}
	hreq.Header.Set("Content-Type", "application/json")
	ex.Sent = time.Now()
	resp, err := lc.hc.Do(hreq)
	ex.Headers = time.Now()
	if err != nil {
		ex.Err, ex.End = err, ex.Headers
		return ex
	}
	defer resp.Body.Close()
	ex.Status = resp.StatusCode
	if !r.Stream || resp.StatusCode/100 != 2 {
		ex.Body, ex.Err = io.ReadAll(resp.Body)
		ex.End = time.Now()
		return ex
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		at := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			var ev api.Event
			derr := json.Unmarshal(line, &ev)
			ex.DecodeNs = append(ex.DecodeNs, time.Since(at).Nanoseconds())
			if derr != nil {
				ex.Err = fmt.Errorf("decoding event: %w", derr)
				break
			}
			ex.Events = append(ex.Events, ev)
			ex.Arrivals = append(ex.Arrivals, at)
		}
		if rerr != nil {
			if rerr != io.EOF {
				ex.Err = rerr
			}
			break
		}
	}
	ex.End = time.Now()
	return ex
}

// op is one unit of load: requests sent in order on one connection.
type op struct {
	Reqs []*request
	Due  time.Duration // open loop: offset of the due time from the window start
}

// opRun is one executed op.
type opRun struct {
	Op     *op
	Start  time.Time // latency origin: the due time (open loop) or first send (closed loop)
	Picked time.Time // when a connection took the op
	Ex     []*exchange
}

// execute sends the op's requests in order, stopping at the first
// failed one.
func (lc *loadClient) execute(ctx context.Context, o *op) []*exchange {
	var out []*exchange
	for _, r := range o.Reqs {
		ex := lc.do(ctx, r)
		out = append(out, ex)
		if ex.Err != nil || ex.Status/100 != 2 {
			break
		}
	}
	return out
}

// runClosed drives a closed loop: loadConns connections each send
// their next op as soon as the previous one is answered, until the
// window closes. Ops in flight at the deadline complete and count.
func runClosed(lc *loadClient, next func() (*op, error), window time.Duration) ([]*opRun, time.Time, error) {
	var (
		mu    sync.Mutex
		runs  []*opRun
		first error
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(window)
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				o, err := next()
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				run := &opRun{Op: o, Start: time.Now()}
				run.Picked = run.Start
				run.Ex = lc.execute(context.Background(), o)
				mu.Lock()
				runs = append(runs, run)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs, t0, first
}

// runOpen drives an open loop: op i is due at its Due offset from the
// window start, whether or not earlier ops have been answered. An op
// waits for a free connection when every one is busy; its latency counts
// from the due time, so the wait shows.
func runOpen(lc *loadClient, ops []*op) ([]*opRun, time.Time) {
	runs := make([]*opRun, len(ops))
	next := make(chan int) // unbuffered: a due op waits for a free connection
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run := &opRun{Op: ops[i], Start: t0.Add(ops[i].Due), Picked: time.Now()}
				run.Ex = lc.execute(context.Background(), ops[i])
				runs[i] = run
			}
		}()
	}
	for i, o := range ops {
		time.Sleep(time.Until(t0.Add(o.Due)))
		next <- i
	}
	close(next)
	wg.Wait()
	return runs, t0
}
