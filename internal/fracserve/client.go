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

// Do sends a raw fracture request. It encodes the request and decodes
// the reply with the /fracture wire codec, whose bytes and values are
// encoding/json's. The reply is read into a pooled buffer; the request
// is encoded into one of its own, which net/http may read again after
// the round trip.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	body, err := encodeRequest(req)
	if err != nil {
		return nil, fmt.Errorf("fracserve: encode request: %w", err)
	}
	resp, err := c.send(ctx, "/fracture", body)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	b := getWireBuf()
	defer b.free()
	err = b.readFrom(resp.Body, resp.ContentLength)
	var out Response
	if err == nil {
		err = decodeResponse(b.b, &out)
	}
	if err != nil {
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
	var out SolveResponse
	if err := c.roundTrip(ctx, "/solve", req, &out); err != nil {
		return nil, err
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
	var out PlanResponse
	if err := c.roundTrip(ctx, "/plan", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReportClassUses credits congruence classes with placements the
// caller resolved locally (POST /stats/classes), keeping the server's
// class statistics counting placements instead of wire requests.
func (c *Client) ReportClassUses(ctx context.Context, req *ClassUsesRequest) (*ClassUsesReply, error) {
	var out ClassUsesReply
	if err := c.roundTrip(ctx, "/stats/classes", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the server statistics.
func (c *Client) Stats(ctx context.Context) (*StatsReply, error) {
	return c.stats(ctx, "/stats")
}

// StatsTop fetches the server statistics including the cache's top-k
// congruence classes (GET /stats?classes=k).
func (c *Client) StatsTop(ctx context.Context, k int) (*StatsReply, error) {
	return c.stats(ctx, "/stats?classes="+strconv.Itoa(k))
}

func (c *Client) stats(ctx context.Context, path string) (*StatsReply, error) {
	var out StatsReply
	if err := c.roundTrip(ctx, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes the server's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	return c.roundTrip(ctx, "/healthz", nil, nil)
}

// roundTrip is every client call but Do: it sends in to path as JSON
// and decodes a 200 reply into out (nil discards the body); a nil in
// sends a bare GET. A 200 body that fails to decode wraps ErrProtocol.
func (c *Client) roundTrip(ctx context.Context, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fracserve: encode request: %w", err)
		}
		body = b
	}
	resp, err := c.send(ctx, path, body)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: decode response: %v", ErrProtocol, err)
	}
	return nil
}

// send issues one request to path: a JSON POST of body carrying the
// context's traceparent and request ID, or a bare GET when body is nil.
// It returns a 200 reply, whose body the caller closes with drainClose;
// any other status becomes a typed status error (statusError).
func (c *Client) send(ctx context.Context, path string, body []byte) (*http.Response, error) {
	method, r := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, r = http.MethodPost, bytes.NewReader(body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, r)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
		decorate(ctx, hr)
	}
	resp, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer drainClose(resp.Body)
		return nil, statusError(resp)
	}
	return resp, nil
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
