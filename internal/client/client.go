// Package client is the thin Go client for the lttad batch
// timing-check service: upload circuits into the content-addressed
// registry, submit batches or sweeps (by hash or inline), stream
// NDJSON results, and read health/metrics. The wire vocabulary lives
// in the shared internal/api package; this package only speaks HTTP.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/api"
)

// Client talks to one lttad instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8090".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// OnUnknownEvent, when set, is told about NDJSON event kinds this
	// client version does not know (once per kind per stream). The
	// protocol adds event kinds in minor revisions without a version
	// bump, so unknown kinds are a compatibility warning, never an
	// error; they are skipped rather than handed to the stream callback.
	OnUnknownEvent func(kind string)
}

// New returns a client for the given base URL.
func New(base string) *Client { return &Client{BaseURL: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx server answer: the structured error body plus
// the Retry-After hint on backpressure responses (429/503). Hash is
// set on "unknown_hash" answers — the content address the server did
// not recognise — so retry loops can re-upload without keeping their
// own request state.
type APIError struct {
	Status     int
	Code       string
	Message    string
	Hash       api.Hash
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("lttad: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether the submission may simply be retried after
// RetryAfter (queue-full backpressure or a draining server).
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// UnknownHash reports whether the server did not recognise the
// requested content address; re-uploading the circuit repairs it.
func (e *APIError) UnknownHash() bool {
	return e.Status == http.StatusNotFound && e.Code == "unknown_hash"
}

// decodeAPIError turns a non-2xx response into an *APIError.
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, Code: "unknown"}
	var body api.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil {
		apiErr.Code, apiErr.Message, apiErr.Hash = body.Error.Code, body.Error.Message, body.Error.Hash
	}
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		apiErr.RetryAfter = d
	}
	return apiErr
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either delta-seconds or an HTTP-date (proxies routinely
// rewrite one into the other). Dates are converted to a wait relative
// to now, clamped at zero when already past. Garbage values report
// ok=false and the caller keeps its zero default.
func parseRetryAfter(ra string, now time.Time) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(ra); err == nil {
		d := at.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// do sends one JSON body and returns the response, mapping every
// non-2xx answer to an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	enc, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

// UploadOptions qualifies an uploaded netlist. The zero value means
// bench format, the parser's circuit name, and the default gate delay
// (10, the paper's experiments).
type UploadOptions struct {
	// Format is "bench" (default) or "verilog".
	Format string
	// Name names the circuit in responses; it is part of the content
	// address.
	Name string
	// DefaultDelay is the gate delay used when the netlist does not
	// annotate one (0 means 10).
	DefaultDelay int64
	// SDF optionally back-annotates gate delays from a Standard Delay
	// Format document.
	SDF string
	// Delays override individual gate delays; the server canonicalizes
	// the list (order never changes the hash).
	Delays []api.DelayAnnotation
}

// Upload registers a netlist in the server's content-addressed circuit
// registry and returns its stable content hash. Idempotent: uploading
// identical content yields the same hash and costs the server nothing
// beyond hashing.
func (c *Client) Upload(ctx context.Context, netlist string, opts UploadOptions) (api.Hash, error) {
	up, err := c.upload(ctx, netlist, opts)
	if err != nil {
		return "", err
	}
	return up.Hash, nil
}

func (c *Client) upload(ctx context.Context, netlist string, opts UploadOptions) (*api.UploadResponse, error) {
	req := api.UploadRequest{
		V: api.Version, Netlist: netlist, Format: opts.Format, Name: opts.Name,
		DefaultDelay: opts.DefaultDelay, SDF: opts.SDF, Delays: opts.Delays,
	}
	resp, err := c.do(ctx, http.MethodPut, "/v1/circuits", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out api.UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding upload response: %w", err)
	}
	return &out, nil
}

// CheckByHash runs a batch against a previously uploaded circuit. The
// request must not carry netlist fields — the circuit identity is the
// hash. A warm server answers with zero parse and zero preparation
// work. The request's Stream flag is forced off.
func (c *Client) CheckByHash(ctx context.Context, hash api.Hash, req api.Request) (*api.Response, error) {
	req.Stream = false
	resp, err := c.do(ctx, http.MethodPost, "/v1/circuits/"+string(hash)+"/check", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out api.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return &out, nil
}

// StreamByHash runs a hash-addressed batch with NDJSON streaming,
// calling fn for every event in arrival order, ending with "done".
func (c *Client) StreamByHash(ctx context.Context, hash api.Hash, req api.Request, fn func(api.Event) error) error {
	req.Stream = true
	resp, err := c.do(ctx, http.MethodPost, "/v1/circuits/"+string(hash)+"/check", req)
	if err != nil {
		return err
	}
	return c.drainEvents(resp, fn)
}

// CheckInline submits a batch with the netlist carried in the request
// body. The server validates and hashes the netlist exactly as Upload
// would; a single daemon parses and prepares it for this batch alone
// (nothing stays registered), a coordinator registers it. The answers
// are result-identical to Upload + CheckByHash (the differential e2e
// suite proves it). The request's Stream flag is forced off.
func (c *Client) CheckInline(ctx context.Context, req api.Request) (*api.Response, error) {
	req.Stream = false
	resp, err := c.do(ctx, http.MethodPost, "/v1/check", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out api.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return &out, nil
}

// Stream submits an inline batch with NDJSON streaming and calls fn
// for every event, in arrival order, ending with the "done" event. A
// non-nil error from fn aborts the stream and is returned.
func (c *Client) Stream(ctx context.Context, req api.Request, fn func(api.Event) error) error {
	req.Stream = true
	resp, err := c.do(ctx, http.MethodPost, "/v1/check", req)
	if err != nil {
		return err
	}
	return c.drainEvents(resp, fn)
}

// TruncatedStreamError reports an NDJSON result stream that ended
// before its terminal "done" event: the connection was cut mid-batch
// (worker death, proxy reset, response abort). It is retryable — the
// server never completed the batch from the client's point of view, so
// resubmitting (or requeueing the unfinished checks elsewhere) is the
// correct recovery. Events counts the events that did arrive; Err is
// the transport error, nil when the stream ended with a clean EOF that
// merely lacked the "done" line.
type TruncatedStreamError struct {
	// Events is how many events arrived before the cut.
	Events int
	// Err is the underlying read error, if the transport surfaced one.
	Err error
}

func (e *TruncatedStreamError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("client: result stream cut after %d events: %v", e.Events, e.Err)
	}
	return fmt.Sprintf("client: result stream ended after %d events without a done event", e.Events)
}

func (e *TruncatedStreamError) Unwrap() error { return e.Err }

// Temporary marks the truncation retryable, matching APIError's
// convention for backpressure answers.
func (e *TruncatedStreamError) Temporary() bool { return true }

// Retryable reports whether err is worth retrying against the same or
// another server: backpressure (429/503), a truncated result stream,
// or a transport-level failure (dial refused, connection reset). A
// structured 4xx — a malformed request — is not retryable, and neither
// is a context cancellation: the caller withdrew the question.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	var trunc *TruncatedStreamError
	if errors.As(err, &trunc) {
		return true
	}
	var netErr *url.Error
	if errors.As(err, &netErr) {
		return true
	}
	// Mid-body transport failures (http: unexpected EOF and friends)
	// reach here undecorated; a decode failure of a complete body does
	// not (it is wrapped with a "decoding" prefix by the caller).
	var opErr *net.OpError
	return errors.As(err, &opErr) || errors.Is(err, io.ErrUnexpectedEOF)
}

// knownEventKinds are the NDJSON event types this client version
// understands; everything else is a future minor revision's addition
// and is skipped with a warning (see Client.OnUnknownEvent).
var knownEventKinds = map[string]bool{
	"circuit": true, "check": true, "sweep": true, "rows": true,
	"spans": true, "error": true, "done": true,
}

// drainEvents reads an NDJSON event stream to its end. A batch stream
// always terminates with a "done" event; a stream that ends — cleanly
// or not — without one was cut mid-batch and is reported as a
// *TruncatedStreamError so callers cannot mistake a dropped connection
// for a short batch. An error returned by fn aborts the drain and is
// returned as-is. Event kinds this version does not know are skipped
// (warned once per kind), never failed on — the wire contract lets
// minor revisions add kinds freely.
func (c *Client) drainEvents(resp *http.Response, fn func(api.Event) error) error {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	events, doneSeen := 0, false
	var warned map[string]bool
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("client: decoding event: %w", err)
		}
		events++
		if !knownEventKinds[ev.Type] {
			if c.OnUnknownEvent != nil && !warned[ev.Type] {
				if warned == nil {
					warned = map[string]bool{}
				}
				warned[ev.Type] = true
				c.OnUnknownEvent(ev.Type)
			}
			continue
		}
		if ev.Type == "done" {
			doneSeen = true
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return &TruncatedStreamError{Events: events, Err: err}
	}
	if !doneSeen {
		return &TruncatedStreamError{Events: events}
	}
	return nil
}

// Healthz reads /healthz — pure liveness, 200 whenever the process
// serves HTTP; the body's status field says ok/starting/draining.
func (c *Client) Healthz(ctx context.Context) (*api.Health, error) {
	return c.getHealth(ctx, "/healthz")
}

// Readyz reads /readyz — readiness. A starting or draining server
// answers 503 but still carries the health body, which is returned
// alongside the APIError.
func (c *Client) Readyz(ctx context.Context) (*api.Health, error) {
	return c.getHealth(ctx, "/readyz")
}

func (c *Client) getHealth(ctx context.Context, path string) (*api.Health, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("client: decoding health: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode, Code: "unhealthy", Message: h.Status}
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			apiErr.RetryAfter = d
		}
		return &h, apiErr
	}
	return &h, nil
}

// MetricsProm reads the raw Prometheus text exposition from /metrics.
func (c *Client) MetricsProm(ctx context.Context) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}
