package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"maskfrac/internal/flight"
	"maskfrac/internal/fracserve"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/telemetry"
)

// ErrNoNodes is returned when the ring has no members.
var ErrNoNodes = errors.New("cluster: no nodes")

// Config tunes a cluster client. Zero values select the defaults noted
// on each field.
type Config struct {
	// MaxInflight bounds concurrent requests per node (default 4). This
	// is the client-side back-pressure valve: it keeps a slow node's
	// queue from absorbing the whole mask while fast nodes sit idle, and
	// it means a 429 burst from one node throttles only that shard.
	MaxInflight int
	// Retries is the number of re-attempts per node after a retryable
	// failure (default 2).
	Retries int
	// RetryBackoff is the initial backoff before a retry, doubling per
	// attempt (default 100ms). A server Retry-After hint overrides it.
	RetryBackoff time.Duration
	// HedgeDelay launches a duplicate request on the next ring node when
	// the owner has not answered within this delay — tail-latency
	// insurance against a node stuck on a deep queue (default 0 =
	// disabled).
	HedgeDelay time.Duration
	// Fallbacks is the number of distinct backup nodes tried after the
	// owner fails terminally (default 1; capped at cluster size - 1).
	Fallbacks int
	// RequestTimeout caps one HTTP attempt (default 2m).
	RequestTimeout time.Duration
	// Vnodes is the virtual point count per ring node (default 128).
	Vnodes int
	// Method selects the fracturing method sent to nodes (default
	// "mbf").
	Method string
	// Params optionally overrides node solver parameters on the wire.
	Params *fracserve.ParamsWire
	// WantShots requests shot lists in responses; when false the cluster
	// only carries counts and evaluations (default false — loadgen and
	// statistics runs don't pay for shot payloads).
	WantShots bool
	// Metrics receives the fracd_cluster_* instrument families; nil
	// creates a private registry.
	Metrics *telemetry.Registry
	// Logger receives routing and failure logs (default: discard).
	Logger *telemetry.Logger
	// HTTPClient overrides the shared transport used for node clients.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.Fallbacks <= 0 {
		c.Fallbacks = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.Method == "" {
		c.Method = "mbf"
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = telemetry.NopLogger()
	}
	return c
}

// ClassResult is the cluster's answer for one congruence class, in the
// canonical frame of the class (shots map to any placement through
// shapecache.Canonical.FromCanonical).
type ClassResult struct {
	Key   shapecache.Key
	Shots []geom.Rect // nil unless Config.WantShots
	// LPairs lists L-shot pairs as {i, j} indices into the class's shot
	// list (present only for L-capable methods). The indices survive the
	// canonical→placement frame mapping, which preserves shot order.
	LPairs [][2]int
	// ShotCount is the number of rectangle entries in the solution
	// (each L-shot pair contributes two).
	ShotCount int
	// FlashCount is the beam flash count: ShotCount minus len(LPairs).
	FlashCount int
	FailOn     int
	FailOff    int
	Cost       float64
	Feasible   bool
	// CacheHit reports whether the owning node answered from its cache
	// shard.
	CacheHit bool
	// Node is the node that produced the accepted answer.
	Node string
	// SolveMS is the node-reported solver wall time.
	SolveMS float64
	// Latency is the client-observed time to the accepted answer,
	// including queueing, retries and hedges.
	Latency time.Duration
}

// node is one cluster member: its HTTP client plus the back-pressure
// semaphore.
type node struct {
	id  string
	fc  *fracserve.Client
	sem chan struct{}
}

// Client routes congruence classes across fracd nodes. It is safe for
// concurrent use.
type Client struct {
	cfg  Config
	ring *Ring
	log  *telemetry.Logger

	mu      sync.Mutex
	nodes   map[string]*node
	flights flight.Group[shapecache.Key, *ClassResult]

	// instruments
	reqs      *telemetry.CounterVec // requests attempted, by node
	nodeErrs  *telemetry.CounterVec // terminal per-node failures, by node
	retries   *telemetry.Counter
	hedges    *telemetry.Counter
	failovers *telemetry.Counter
	dedups    *telemetry.Counter // singleflight joins
	inflight  *telemetry.GaugeVec
	latency   *telemetry.Histogram
}

// NewClient returns a cluster client with no members; call AddNode to
// populate the ring.
func NewClient(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:   cfg,
		ring:  NewRing(cfg.Vnodes),
		log:   cfg.Logger,
		nodes: make(map[string]*node),
	}
	r := cfg.Metrics
	c.reqs = r.CounterVec("fracd_cluster_requests_total",
		"class solve requests attempted by node", "node")
	c.nodeErrs = r.CounterVec("fracd_cluster_node_errors_total",
		"terminal per-node request failures by node", "node")
	c.retries = r.Counter("fracd_cluster_retries_total",
		"request retries after retryable failures (429/504/transport)")
	c.hedges = r.Counter("fracd_cluster_hedges_total",
		"duplicate requests launched by the hedge timer")
	c.failovers = r.Counter("fracd_cluster_failovers_total",
		"requests rerouted to a fallback node after terminal failure")
	c.dedups = r.Counter("fracd_cluster_singleflight_dedup_total",
		"concurrent identical-key solves answered by a joined in-flight request")
	c.inflight = r.GaugeVec("fracd_cluster_node_inflight",
		"in-flight requests by node (bounded by max_inflight)", "node")
	c.latency = r.Histogram("fracd_cluster_class_solve_seconds",
		"client-observed latency per congruence class solve", nil)
	r.GaugeFunc("fracd_cluster_nodes", "ring member count",
		func() float64 { return float64(c.ring.Len()) })
	r.CounterFunc("fracd_cluster_ring_rebalance_total",
		"ring membership changes applied",
		func() float64 { return float64(c.ring.Rebalances()) })
	return c
}

// AddNode joins a node to the ring. id must be unique; baseURL is its
// fracd root (e.g. "http://10.0.0.3:8337").
func (c *Client) AddNode(id, baseURL string) {
	fc := fracserve.NewClient(baseURL)
	fc.HTTPClient = c.cfg.HTTPClient
	c.mu.Lock()
	c.nodes[id] = &node{id: id, fc: fc, sem: make(chan struct{}, c.cfg.MaxInflight)}
	c.mu.Unlock()
	c.ring.Add(id)
}

// Nodes returns the ring members, sorted.
func (c *Client) Nodes() []string { return c.ring.Members() }

// CounterValues returns the routing counters: retries, hedges,
// failovers and singleflight dedups. The same values are exported as
// fracd_cluster_* metrics; this accessor serves embedders (loadgen)
// that report without scraping.
func (c *Client) CounterValues() (retries, hedges, failovers, dedups float64) {
	return c.retries.Value(), c.hedges.Value(), c.failovers.Value(), c.dedups.Value()
}

// RingRebalances returns the ring membership-change count.
func (c *Client) RingRebalances() uint64 { return c.ring.Rebalances() }

// NodeRequestCounts returns the per-node attempted-request counters —
// the balance view loadgen's soak mode tracks per window.
func (c *Client) NodeRequestCounts() map[string]uint64 {
	out := make(map[string]uint64)
	c.reqs.Each(func(values []string, ct *telemetry.Counter) {
		out[values[0]] = uint64(ct.Value())
	})
	return out
}

// NodeStats fetches /stats from one member.
func (c *Client) NodeStats(ctx context.Context, id string) (*fracserve.StatsReply, error) {
	c.mu.Lock()
	n := c.nodes[id]
	c.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", id)
	}
	return n.fc.Stats(ctx)
}

// SolveClass solves one congruence class: poly must be the canonical
// polygon of the class and key its canonical cache key. Concurrent
// calls with the same key are coalesced into one cluster request
// (singleflight); the key also picks the owning node, so across every
// client and node the class runs the solver once.
func (c *Client) SolveClass(ctx context.Context, key shapecache.Key, poly geom.Polygon) (*ClassResult, error) {
	res, joined, err := c.flights.Do(ctx, key, nil, func() (*ClassResult, error) {
		return c.solveRouted(ctx, key, poly)
	})
	if joined {
		c.dedups.Inc()
	}
	return res, err
}

// solveRouted runs the routing state machine for one class: primary
// node first, hedge to the next ring node on the hedge timer, fail over
// on terminal errors, first success wins. Attempts run on goroutines of
// their own only when hedging is on; otherwise each runs to its end on
// the caller's goroutine before the loop reads its outcome.
func (c *Client) solveRouted(ctx context.Context, key shapecache.Key, poly geom.Polygon) (*ClassResult, error) {
	start := time.Now()
	cands := c.ring.LookupN(key, 1+c.cfg.Fallbacks)
	if len(cands) == 0 {
		return nil, ErrNoNodes
	}
	ctx, span := telemetry.StartSpan(ctx, "cluster.class")
	defer span.End()
	span.Set("node", cands[0])

	// Request-ID base: derived from the trace ID when tracing so node
	// logs and /debug/traces join on one identifier, fresh otherwise.
	// Every routed attempt carries a variant of it — hedges, failovers
	// and retries get distinguishing suffixes so each server-side log
	// line attributes to one specific attempt.
	ridBase := telemetry.NewRequestID()
	if tid := span.TraceID(); tid != "" {
		ridBase = "t" + tid[:16]
	}

	// cancel stragglers (the losing half of a hedge) when we return
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan outcome, len(cands))
	launched := 0
	next := 0
	launch := func(kind string) {
		id := cands[next]
		rid := ridBase
		switch kind {
		case "hedge":
			rid += "-h"
		case "failover":
			rid += "-f" + strconv.Itoa(next)
		}
		next++
		launched++
		// one sibling span per attempt: the primary, each hedge and each
		// failover show up side by side in the stitched waterfall
		att := span.Child("cluster.attempt")
		att.Set("node", id)
		att.Set("kind", kind)
		att.Set("request_id", rid)
		actx := fracserve.WithRequestID(telemetry.ContextWithSpan(ctx, att), rid)
		if c.cfg.HedgeDelay > 0 {
			go c.attempt(actx, att, id, poly, results)
		} else {
			// with no hedge timer nothing can overlap an attempt, so it
			// runs on this goroutine; results has room for every launch
			c.attempt(actx, att, id, poly, results)
		}
	}
	launch("primary")

	var hedgeC <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for launched > 0 {
		select {
		case out := <-results:
			launched--
			if out.err == nil {
				res, cerr := classResult(key, out.item, out.node)
				if cerr == nil {
					res.Latency = time.Since(start)
					c.latency.Observe(res.Latency.Seconds())
					span.Set("cache_hit", res.CacheHit)
					return res, nil
				}
				// a reply we cannot decode is a node failure: fall
				// through to the failover path below
				out.err = fmt.Errorf("cluster: node %s: %w", out.node, cerr)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = out.err
			c.nodeErrs.With(out.node).Inc()
			c.log.Warn("node failed", "node", out.node, "err", out.err.Error())
			if next < len(cands) {
				c.failovers.Inc()
				launch("failover")
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				c.hedges.Inc()
				span.Set("hedged", true)
				launch("hedge")
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: class solve failed on %v: %w", cands, lastErr)
}

// outcome is one routed attempt's reply or error.
type outcome struct {
	item *fracserve.ItemResult
	node string
	err  error
}

// attempt tries node id in the attempt's span att, ends the span and
// sends the outcome on results.
func (c *Client) attempt(ctx context.Context, att *telemetry.Span, id string, poly geom.Polygon, results chan<- outcome) {
	item, err := c.tryNode(ctx, id, poly)
	if err != nil {
		att.Set("err", err.Error())
	}
	att.End()
	results <- outcome{item: item, node: id, err: err}
}

// classResult converts an accepted node reply. A shot payload that
// fails to decode is an error, not a silent nil — with Config.WantShots
// set, callers rely on Shots being present.
func classResult(key shapecache.Key, item *fracserve.ItemResult, nodeID string) (*ClassResult, error) {
	res := &ClassResult{
		Key:        key,
		LPairs:     item.LPairs,
		ShotCount:  item.ShotCount,
		FlashCount: item.ShotCount - len(item.LPairs),
		FailOn:     item.FailOn,
		FailOff:    item.FailOff,
		Cost:       item.Cost,
		Feasible:   item.Feasible,
		CacheHit:   item.CacheHit,
		Node:       nodeID,
		SolveMS:    item.SolveMS,
	}
	if item.Shots != nil {
		shots, err := item.ShotRects()
		if err != nil {
			return nil, fmt.Errorf("decode shots: %w", err)
		}
		res.Shots = shots
	}
	return res, nil
}

// ClassUse is one class's collapsed placement multiplicity for
// ReportClassUses: a representative polygon of the class (the server
// re-derives the class key from it) and the placements to credit.
type ClassUse struct {
	Poly geom.Polygon
	Uses uint64
}

// ReportClassUses credits each class with extra placements on the node
// that owns it on the ring, so per-node class statistics (mined by the
// stencil planner through /stats?classes=K) count mask placements
// rather than wire requests. Batch callers that memoize class results
// locally — RunPipeline — call this once per run with the collapsed
// multiplicities. Reporting is best-effort: per-node failures are
// logged and skipped, and the number of classes actually credited is
// returned.
func (c *Client) ReportClassUses(ctx context.Context, uses map[shapecache.Key]ClassUse) int {
	if len(uses) == 0 {
		return 0
	}
	// group classes by ring owner, in deterministic (routing-key) order
	type keyed struct {
		key shapecache.Key
		cu  ClassUse
	}
	byNode := make(map[string][]keyed)
	for key, cu := range uses {
		if cu.Uses == 0 || cu.Poly == nil {
			continue
		}
		id := c.ring.Lookup(key)
		if id == "" {
			continue
		}
		byNode[id] = append(byNode[id], keyed{key: key, cu: cu})
	}
	credited := 0
	for id, classes := range byNode {
		c.mu.Lock()
		n := c.nodes[id]
		c.mu.Unlock()
		if n == nil {
			continue
		}
		sort.Slice(classes, func(i, j int) bool {
			return bytes.Compare(classes[i].key[:], classes[j].key[:]) < 0
		})
		req := &fracserve.ClassUsesRequest{Method: c.cfg.Method, Params: c.cfg.Params}
		for _, k := range classes {
			req.Classes = append(req.Classes, fracserve.ClassUse{
				Shape: maskio.PolygonWire(k.cu.Poly), Uses: k.cu.Uses,
			})
		}
		reply, err := n.fc.ReportClassUses(ctx, req)
		if err != nil {
			c.log.Warn("class-use report failed", "node", id, "classes", len(classes), "err", err.Error())
			continue
		}
		credited += reply.Credited
	}
	return credited
}

// tryNode attempts one node with bounded in-flight work and
// retry-with-backoff. 429 replies wait out the server's Retry-After
// hint; 504 and transport errors back off exponentially; other HTTP
// errors (bad request, unknown method) are terminal.
func (c *Client) tryNode(ctx context.Context, id string, poly geom.Polygon) (*fracserve.ItemResult, error) {
	c.mu.Lock()
	n := c.nodes[id]
	c.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("cluster: unknown node %q", id)
	}
	backoff := c.cfg.RetryBackoff
	rid := fracserve.RequestIDFrom(ctx)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		actx := ctx
		if attempt > 0 {
			c.retries.Inc()
			wait := backoff
			if after, ok := fracserve.RetryAfter(lastErr); ok {
				wait = after
			}
			backoff *= 2
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if rid != "" {
				actx = fracserve.WithRequestID(ctx, rid+"-r"+strconv.Itoa(attempt))
			}
		}
		// back-pressure: cap concurrent requests to this node
		select {
		case n.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		g := c.inflight.With(id)
		g.Inc()
		c.reqs.With(id).Inc()
		tctx, cancel := context.WithTimeout(actx, c.cfg.RequestTimeout)
		item, err := c.fracture(tctx, n, poly)
		cancel()
		g.Dec()
		<-n.sem
		if err == nil {
			return item, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// fracture sends one single-shape request. When the context carries an
// active span, the node's returned span tree is stitched under it —
// the fracserve client sends the span's traceparent, the node adopts
// it and returns its tree, and AdoptWire grafts that tree back in, so
// a local trace renders one cross-node waterfall.
func (c *Client) fracture(ctx context.Context, n *node, poly geom.Polygon) (*fracserve.ItemResult, error) {
	req := &fracserve.Request{
		Shape:     maskio.PolygonWire(poly),
		Method:    c.cfg.Method,
		Params:    c.cfg.Params,
		OmitShots: !c.cfg.WantShots,
	}
	resp, err := n.fc.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Trace != nil {
		telemetry.ActiveSpan(ctx).AdoptWire(resp.Trace)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("cluster: node %s returned %d results for one shape", n.id, len(resp.Results))
	}
	item := resp.Results[0]
	if item.Error != "" {
		return nil, fmt.Errorf("cluster: node %s: %s", n.id, item.Error)
	}
	return &item, nil
}

// retryable classifies node failures. Queue overflow (429), server
// deadline (504), timeouts and transport errors can succeed on retry or
// another node; other status replies (4xx validation errors, unknown
// methods) and undecodable bodies will fail identically everywhere and
// are terminal.
func retryable(err error) bool {
	if errors.Is(err, fracserve.ErrQueueFull) || errors.Is(err, fracserve.ErrDeadline) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var se *fracserve.StatusError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, fracserve.ErrProtocol) {
		return false
	}
	// everything else is a transport-level failure (connection
	// refused/reset, EOF) and worth retrying
	return true
}
