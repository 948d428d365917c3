package fracserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/telemetry"
)

// clientReqIDKey carries a caller-chosen X-Request-ID on the context.
type clientReqIDKey struct{}

// WithRequestID returns a context that makes the client send the given
// X-Request-ID on every request it issues.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, clientReqIDKey{}, id)
}

// RequestIDFrom returns the request ID installed by WithRequestID, or
// "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(clientReqIDKey{}).(string)
	return id
}

// decorate stamps outbound observability headers: the W3C traceparent
// of the context's active span (so the server's phase spans join the
// caller's trace) and the caller's request ID.
func decorate(ctx context.Context, hr *http.Request) {
	if sc := telemetry.SpanContextOf(ctx); sc.Valid() {
		hr.Header.Set("traceparent", sc.Traceparent())
	}
	if id := RequestIDFrom(ctx); id != "" {
		hr.Header.Set("X-Request-ID", id)
	}
}

// ErrQueueFull is returned by the client when the server rejects a
// request because its work queue is at capacity (HTTP 429). The
// concrete error is a *QueueFullError carrying the server's Retry-After
// hint; errors.Is(err, ErrQueueFull) matches it.
var ErrQueueFull = errors.New("fracserve: server queue full")

// QueueFullError is the concrete 429 error: it matches ErrQueueFull
// under errors.Is and carries the server's Retry-After hint so callers
// can pace their retries to the server's request instead of guessing.
type QueueFullError struct {
	// After is the parsed Retry-After delay; 0 when the server sent no
	// usable hint.
	After time.Duration
	// Msg is the server's error message.
	Msg string
}

func (e *QueueFullError) Error() string {
	return ErrQueueFull.Error() + ": " + e.Msg
}

// Is makes errors.Is(err, ErrQueueFull) match.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// RetryAfter extracts the server's Retry-After hint from a client
// error. It returns 0, false when err carries no hint.
func RetryAfter(err error) (time.Duration, bool) {
	var qf *QueueFullError
	if errors.As(err, &qf) && qf.After > 0 {
		return qf.After, true
	}
	return 0, false
}

// ErrDeadline is returned when the server abandons a request at its
// deadline (HTTP 504).
var ErrDeadline = errors.New("fracserve: server deadline exceeded")

// ErrProtocol wraps replies the client could not interpret — a 2xx body
// that fails to decode. Such failures are deterministic for a given
// server build, so callers should not retry or fail them over.
var ErrProtocol = errors.New("fracserve: protocol error")

// StatusError is a non-2xx reply with no dedicated sentinel (anything
// other than 429 and 504): validation failures, unknown methods, and
// the like. errors.As lets callers classify it without string matching.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Msg is the server's error message.
	Msg string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fracserve: HTTP %d: %s", e.Code, e.Msg)
}

// Client talks to a fracturing daemon.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8337".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Do sends a raw fracture request.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fracserve: encode request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/fracture", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	decorate(ctx, hr)
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: decode response: %v", ErrProtocol, err)
	}
	return &out, nil
}

// Fracture fractures one shape with the given method ("" selects the
// server default) and returns its result.
func (c *Client) Fracture(ctx context.Context, shape geom.Polygon, method string) (*ItemResult, error) {
	resp, err := c.Do(ctx, &Request{Shape: maskio.PolygonWire(shape), Method: method})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("fracserve: server returned %d results for one shape", len(resp.Results))
	}
	item := resp.Results[0]
	if item.Error != "" {
		return nil, fmt.Errorf("fracserve: %s", item.Error)
	}
	return &item, nil
}

// FractureBatch fractures a batch of shapes with the given method.
// Per-shape failures are reported inside the response items, not as an
// error.
func (c *Client) FractureBatch(ctx context.Context, shapes []geom.Polygon, method string) (*Response, error) {
	wires := make([][][2]float64, len(shapes))
	for i, s := range shapes {
		wires[i] = maskio.PolygonWire(s)
	}
	return c.Do(ctx, &Request{Shapes: wires, Method: method})
}

// ShotRects decodes the shot list of a result item.
func (ir *ItemResult) ShotRects() ([]geom.Rect, error) {
	return maskio.ShotsFromWire(ir.Shots)
}

// Solve fractures one multi-shape instance through the server's
// decompose–solve–stitch engine (POST /solve).
func (c *Client) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fracserve: encode request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	decorate(ctx, hr)
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: decode response: %v", ErrProtocol, err)
	}
	return &out, nil
}

// SolveShapes is Solve for the common case: the given shapes as one
// instance with the given method ("" selects the server default).
func (c *Client) SolveShapes(ctx context.Context, shapes []geom.Polygon, method string) (*SolveResponse, error) {
	wires := make([][][2]float64, len(shapes))
	for i, s := range shapes {
		wires[i] = maskio.PolygonWire(s)
	}
	return c.Solve(ctx, &SolveRequest{Shapes: wires, Method: method})
}

// ShotRects decodes the shot list of a solve response.
func (sr *SolveResponse) ShotRects() ([]geom.Rect, error) {
	return maskio.ShotsFromWire(sr.Shots)
}

// Plan asks the server to plan a character-projection stencil from its
// cache's class statistics (POST /plan).
func (c *Client) Plan(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fracserve: encode request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/plan", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	decorate(ctx, hr)
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: decode response: %v", ErrProtocol, err)
	}
	return &out, nil
}

// ReportClassUses credits congruence classes with placements the
// caller resolved locally (POST /stats/classes), keeping the server's
// class statistics counting placements instead of wire requests.
func (c *Client) ReportClassUses(ctx context.Context, req *ClassUsesRequest) (*ClassUsesReply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fracserve: encode request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/stats/classes", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	decorate(ctx, hr)
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out ClassUsesReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: decode response: %v", ErrProtocol, err)
	}
	return &out, nil
}

// Stats fetches the server statistics.
func (c *Client) Stats(ctx context.Context) (*StatsReply, error) {
	return c.stats(ctx, c.BaseURL+"/stats")
}

// StatsTop fetches the server statistics including the cache's top-k
// congruence classes (GET /stats?classes=k).
func (c *Client) StatsTop(ctx context.Context, k int) (*StatsReply, error) {
	return c.stats(ctx, c.BaseURL+"/stats?classes="+strconv.Itoa(k))
}

func (c *Client) stats(ctx context.Context, url string) (*StatsReply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	var out StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: decode stats: %v", ErrProtocol, err)
	}
	return &out, nil
}

// Healthz probes the server's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// statusError maps a non-2xx reply to a Go error, preserving the
// server's message and using sentinel errors for backpressure codes.
func statusError(resp *http.Response) error {
	msg := ""
	var er ErrorReply
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = er.Error
	} else {
		msg = strings.TrimSpace(string(body))
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return &QueueFullError{After: parseRetryAfter(resp.Header.Get("Retry-After")), Msg: msg}
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%w: %s", ErrDeadline, msg)
	}
	return &StatusError{Code: resp.StatusCode, Msg: msg}
}

// parseRetryAfter parses a Retry-After header: delay-seconds or an HTTP
// date. Returns 0 on anything unusable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second))
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// drainClose consumes what is left of a response body before closing
// it. An HTTP/1.1 connection only returns to the keep-alive pool when
// its body has been read to EOF; closing early forces a fresh TCP (and
// possibly TLS) handshake per request, which under load turns into
// ephemeral-port exhaustion. The drain is capped so a misbehaving
// server cannot pin the client.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
