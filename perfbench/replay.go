package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"maskfrac/internal/cluster"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracserve"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/telemetry"
)

const (
	replayNodes   = 3
	replayClients = 2
	replayMethod  = "mbf"
)

// countingTransport counts response body bytes read through it.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// replayCluster is the in-process serving stack: replayNodes fracd
// servers on loopback listeners behind one routed cluster client.
type replayCluster struct {
	client    *cluster.Client
	transport *countingTransport
	servers   []*fracserve.Server
	serving   sync.WaitGroup
}

func startCluster() (*replayCluster, error) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	rc := &replayCluster{transport: &countingTransport{base: base}}
	rc.client = cluster.NewClient(cluster.Config{
		Method:     replayMethod,
		WantShots:  true,
		HTTPClient: &http.Client{Transport: rc.transport},
	})
	for i := 0; i < replayNodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rc.stop()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := fracserve.New(fracserve.Config{Workers: 2, QueueDepth: 256})
		rc.servers = append(rc.servers, srv)
		rc.serving.Add(1)
		go func() {
			defer rc.serving.Done()
			_ = srv.Serve(l) // returns http.ErrServerClosed after stop
		}()
		rc.client.AddNode(fmt.Sprintf("node-%d", i), "http://"+l.Addr().String())
	}
	return rc, nil
}

// stop shuts every server down and waits for its Serve loop to return.
func (rc *replayCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range rc.servers {
		_ = srv.Shutdown(ctx) // best effort: the process exits next
	}
	rc.serving.Wait()
	rc.transport.base.(*http.Transport).CloseIdleConnections()
}

// nodeTotals sums the servers' /stats counters.
type nodeTotals struct {
	hits, misses, rejected, timeouts uint64
}

func (rc *replayCluster) totals(ctx context.Context) (nodeTotals, error) {
	var t nodeTotals
	for _, id := range rc.client.Nodes() {
		st, err := rc.client.NodeStats(ctx, id)
		if err != nil {
			return t, fmt.Errorf("stats %s: %w", id, err)
		}
		t.hits += st.Cache.Hits
		t.misses += st.Cache.Misses
		t.rejected += st.Rejected
		t.timeouts += st.Timeouts
	}
	return t, nil
}

// warmClass is a class's answer from the warm-up solve, plus how many
// placements of the mask belong to it.
type warmClass struct {
	res  *cluster.ClassResult
	uses int
}

// replaySpans sums the serving-layer spans and timers of traced ops.
type replaySpans struct {
	ops                     int
	canon, client           time.Duration
	attempts                int
	server, preSolve, shape time.Duration
	nodeSpans               int
}

func (a *replaySpans) merge(o replaySpans) {
	a.ops += o.ops
	a.canon += o.canon
	a.client += o.client
	a.attempts += o.attempts
	a.server += o.server
	a.preSolve += o.preSolve
	a.shape += o.shape
	a.nodeSpans += o.nodeSpans
}

// add folds one op's stitched span tree into the sums. The node's
// fracd.fracture subtree is the server's share of the op; the self
// time of every other span — the op, cluster.class, cluster.attempt:
// canonicalisation, routing, HTTP and JSON — is the client's.
func (a *replaySpans) add(root *telemetry.Span, canon time.Duration) {
	a.ops++
	a.canon += canon
	var visit func(s *telemetry.Span)
	visit = func(s *telemetry.Span) {
		if s.Name == "fracd.fracture" {
			a.nodeSpans++
			a.server += s.Duration()
			for _, c := range s.Children() {
				if c.Name == "fracd.shape" {
					a.preSolve += c.Start.Sub(s.Start)
					a.shape += c.Duration()
				}
			}
			return
		}
		if s.Name == "cluster.attempt" {
			a.attempts++
		}
		a.client += selfTime(s)
		for _, c := range s.Children() {
			visit(c)
		}
	}
	visit(root)
}

// replayWindow is the length of one window of the all-hit phase. The
// end-to-end figures are medians over windows, so a burst of load from
// elsewhere on the machine moves one window, not the run.
const replayWindow = time.Second

// windowStat is one window's throughput and latency percentiles.
type windowStat struct {
	ops      int
	wall     time.Duration // CPU-available time
	p50, p99 float64       // ms
}

// replayResult is one all-hit phase: its windows and each client's
// tallies.
type replayResult struct {
	windows []windowStat
	workers []*replayWorker
}

// figures returns the phase's ops per second, p50 and p99, scaled to
// reference speed by k: ops completed per second of the windows, and
// the median over the windows of each window's percentile.
func (r *replayResult) figures(k float64) (opsPerS, p50, p99 float64) {
	n := len(r.windows)
	p50s, p99s := make([]float64, n), make([]float64, n)
	ops, wall := 0, time.Duration(0)
	for i, w := range r.windows {
		p50s[i], p99s[i] = w.p50, w.p99
		ops += w.ops
		wall += w.wall
	}
	return float64(ops) / wall.Seconds() / k, median(p50s) * k, median(p99s) * k
}

// replayWorker is one closed-loop client's tallies.
type replayWorker struct {
	ops    int
	failed int
	lat    []time.Duration // the current window's latencies
	spans  replaySpans
}

var errStop = errors.New("phase over")

// replayPhase streams placements from repeated walks of lib to
// replayClients closed-loop clients for budget/replayWindow windows (at
// least one), probing the machine's speed into speed before each window
// while the clients are idle. Each op canonicalises its placement, asks
// the cluster for the class and maps the answer back into the placement
// frame; the answer must equal the class's warm-up answer.
func replayPhase(ctx context.Context, rc *replayCluster, lib *maskio.Library, warm map[shapecache.Key]*warmClass, budget time.Duration, traced bool, speed *speedLog) (*replayResult, error) {
	feed := make(chan maskio.Placement)
	stop := make(chan struct{})
	walkErr := make(chan error, 1)
	go func() {
		defer close(feed)
		for {
			err := lib.Walk(func(pl maskio.Placement) error {
				select {
				case feed <- pl:
					return nil
				case <-stop:
					return errStop
				}
			})
			if err != nil {
				walkErr <- err
				return
			}
		}
	}()

	res := &replayResult{workers: make([]*replayWorker, replayClients)}
	for i := range res.workers {
		res.workers[i] = &replayWorker{}
	}
	var window []time.Duration // reused: the benchmark holds one window's latencies
	for n := max(1, int(budget/replayWindow)); len(res.windows) < n; {
		speed.probe()
		watch := startWatch()
		end := watch.start.Add(replayWindow)
		var wg sync.WaitGroup
		for _, rw := range res.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					pl, ok := <-feed
					if !ok {
						return // the walk failed; reported below
					}
					replayOp(ctx, rc, warm, pl, traced, rw)
				}
			}()
		}
		wg.Wait()
		wall := watch.elapsed()
		window = window[:0]
		for _, rw := range res.workers {
			window = append(window, rw.lat...)
			rw.lat = rw.lat[:0]
		}
		res.windows = append(res.windows, windowStat{
			ops:  len(window),
			wall: wall,
			p50:  quantileMS(window, 0.50),
			p99:  quantileMS(window, 0.99),
		})
	}
	speed.probe()
	close(stop)
	if err := <-walkErr; !errors.Is(err, errStop) {
		return nil, fmt.Errorf("walk: %w", err)
	}
	return res, nil
}

// replayOp answers one placement and checks the answer.
func replayOp(ctx context.Context, rc *replayCluster, warm map[shapecache.Key]*warmClass, pl maskio.Placement, traced bool, rw *replayWorker) {
	opCtx, root := ctx, (*telemetry.Span)(nil)
	if traced {
		opCtx, root = telemetry.WithTrace(ctx, "bench.op")
	}
	t0 := time.Now()
	can := shapecache.Canonicalize(pl.Polygon)
	key := can.KeyWith([]byte(replayMethod))
	canon := time.Since(t0)
	res, err := rc.client.SolveClass(opCtx, key, can.Poly)
	var shots []geom.Rect
	if err == nil {
		shots = can.FromCanonical(res.Shots)
	}
	d := time.Since(t0)
	root.End()
	rw.ops++
	rw.lat = append(rw.lat, d)
	if err == nil {
		err = checkReplay(warm[key], res, len(shots))
	}
	if err != nil {
		rw.failed++
		fmt.Fprintf(os.Stderr, "op failed: placement %d: %v\n", pl.Seq, err)
		return
	}
	if traced {
		rw.spans.add(root, canon)
	}
}

// checkReplay compares a timed answer with its class's warm answer.
func checkReplay(w *warmClass, res *cluster.ClassResult, mapped int) error {
	if w == nil {
		return errors.New("answer for a class the warm-up never saw")
	}
	ref := w.res
	if !res.CacheHit {
		return errors.New("cache miss in the all-hit phase")
	}
	if res.ShotCount != ref.ShotCount || res.FlashCount != ref.FlashCount ||
		res.FailOn != ref.FailOn || res.FailOff != ref.FailOff ||
		len(res.Shots) != len(ref.Shots) || len(res.LPairs) != len(ref.LPairs) || mapped != len(ref.Shots) {
		return fmt.Errorf("answer %d shots / %d failing px differs from the warm-up's %d / %d",
			res.ShotCount, res.FailOn+res.FailOff, ref.ShotCount, ref.FailOn+ref.FailOff)
	}
	for i := range res.Shots {
		if res.Shots[i] != ref.Shots[i] {
			return fmt.Errorf("shot %d is %v, the warm-up's is %v", i, res.Shots[i], ref.Shots[i])
		}
	}
	for i := range res.LPairs {
		if res.LPairs[i] != ref.LPairs[i] {
			return fmt.Errorf("L-pair %d is %v, the warm-up's is %v", i, res.LPairs[i], ref.LPairs[i])
		}
	}
	return nil
}

// runReplay is the mask-replay workload: full-mask placements served
// from a warm 3-node cluster, every answer a cache hit.
func runReplay(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{phaseOK: true, speed: speedLog{threads: replayClients}}
	lib := ReplayLibrary(cfg.seed)
	rc, err := startCluster()
	if err != nil {
		return nil, err
	}
	defer rc.stop()

	// setup: find the mask's classes in walk order, then solve each
	// once, one request at a time
	warm := make(map[shapecache.Key]*warmClass)
	var order []shapecache.Key
	polys := make(map[shapecache.Key]geom.Polygon)
	perWalk := 0
	err = lib.Walk(func(pl maskio.Placement) error {
		perWalk++
		can := shapecache.Canonicalize(pl.Polygon)
		key := can.KeyWith([]byte(replayMethod))
		if w, ok := warm[key]; ok {
			w.uses++
			return nil
		}
		warm[key] = &warmClass{uses: 1}
		order = append(order, key)
		polys[key] = can.Poly
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	var mask quality
	for _, key := range order {
		out.speed.probe()
		res, err := rc.client.SolveClass(ctx, key, polys[key])
		if err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		w := warm[key]
		w.res = res
		mask.shots += w.uses * res.ShotCount
		mask.flashes += w.uses * res.FlashCount
		mask.failPx += w.uses * (res.FailOn + res.FailOff)
	}
	out.speed.probe()
	setup := cfg.start.elapsedExcept(out.speed.spent)

	// phase runs one timed phase and checks that it did no solver work:
	// the evaluator counters and the nodes' cache misses must not move
	phase := func(budget time.Duration, traced bool, speed *speedLog) (*replayResult, *replayWorker, error) {
		evalBefore := cover.EvalCounters()
		nodesBefore, err := rc.totals(ctx)
		if err != nil {
			return nil, nil, err
		}
		res, err := replayPhase(ctx, rc, lib, warm, budget, traced, speed)
		if err != nil {
			return nil, nil, err
		}
		nodesAfter, err := rc.totals(ctx)
		if err != nil {
			return nil, nil, err
		}
		if evalAfter := cover.EvalCounters(); evalAfter != evalBefore || nodesAfter.misses != nodesBefore.misses {
			out.phaseOK = false
			fmt.Fprintf(os.Stderr, "solver work in the all-hit phase: %d evaluator mutations, %d node cache misses\n",
				evalAfter.Mutations-evalBefore.Mutations, nodesAfter.misses-nodesBefore.misses)
		}
		sum := &replayWorker{}
		for _, w := range res.workers {
			sum.ops += w.ops
			sum.failed += w.failed
			sum.spans.merge(w.spans)
		}
		out.attempted += sum.ops
		out.failed += sum.failed
		return res, sum, nil
	}

	if !cfg.trace {
		res, sum, err := phase(cfg.seconds, false, &out.speed)
		if err != nil {
			return nil, err
		}
		k := out.speed.scale()
		opsPerS, p50, p99 := res.figures(k)
		out.endToEnd = map[string]float64{
			"setup_s":    setup.Seconds() * k,
			"ops_per_s":  opsPerS,
			"p50_ms":     p50,
			"p99_ms":     p99,
			"shots":      float64(mask.shots),
			"flashes":    float64(mask.flashes),
			"cd_fail_px": float64(mask.failPx),
		}
		out.note = fmt.Sprintf("ops %d placements (%d per mask walk, %d classes); medians over %d windows of %v, about %d samples each; wall-clock setup %.3f s",
			sum.ops, perWalk, len(warm), len(res.windows), replayWindow, sum.ops/len(res.windows), setup.Seconds())
		return out, nil
	}
	return out, replayLayers(ctx, cfg, rc, lib, warm, out, phase)
}

// replayLayers is mask-replay's traced run: an untraced and a traced
// phase of half the budget each, a timed bare walk of the mask, and the
// serving-layer rows of the per-layer table.
func replayLayers(ctx context.Context, cfg config, rc *replayCluster, lib *maskio.Library, warm map[shapecache.Key]*warmClass,
	out *outcome, phase func(time.Duration, bool, *speedLog) (*replayResult, *replayWorker, error)) error {
	plainSpeed, tracedSpeed := speedLog{threads: replayClients}, speedLog{threads: replayClients}
	plainRes, plain, err := phase(cfg.seconds/2, false, &plainSpeed)
	if err != nil {
		return err
	}

	// maskio: the walk alone, with a callback that does nothing
	walkStart := time.Now()
	walked := 0
	if err := lib.Walk(func(maskio.Placement) error { walked++; return nil }); err != nil {
		return fmt.Errorf("walk: %w", err)
	}
	walkDur := time.Since(walkStart)

	solver := readCounters()
	nodesBefore, err := rc.totals(ctx)
	if err != nil {
		return err
	}
	retries0, _, failovers0, dedups0 := rc.client.CounterValues()
	reqs0 := rc.client.NodeRequestCounts()
	bytes0 := rc.transport.bytes.Load()

	tracedRes, traced, err := phase(cfg.seconds/2, true, &tracedSpeed)
	if err != nil {
		return err
	}

	bytes := rc.transport.bytes.Load() - bytes0
	retries, _, failovers, dedups := rc.client.CounterValues()
	nodesAfter, err := rc.totals(ctx)
	if err != nil {
		return err
	}
	var maxReq, sumReq float64
	reqs := rc.client.NodeRequestCounts()
	for id, n := range reqs {
		d := float64(n - reqs0[id])
		sumReq += d
		maxReq = max(maxReq, d)
	}

	m := make(map[string]float64)
	solver.layerMetrics(m, 1) // zero unless the all-hit phase ran the solver
	sp := traced.spans
	ops := float64(sp.ops)
	us := func(d time.Duration, n float64) float64 { return ratio(d.Seconds()*1e6, n) }
	m["maskio.walk_us"] = us(walkDur, float64(walked))
	m["shapecache.canon_us"] = us(sp.canon, ops)
	hits := float64(nodesAfter.hits - nodesBefore.hits)
	m["shapecache.hit_ratio"] = ratio(hits, hits+float64(nodesAfter.misses-nodesBefore.misses))
	m["cluster.client_us"] = us(sp.client, ops)
	m["cluster.attempts_per_op"] = ratio(float64(sp.attempts), ops)
	m["cluster.retries"] = retries - retries0
	m["cluster.failovers"] = failovers - failovers0
	m["cluster.dedups"] = dedups - dedups0
	m["cluster.node_skew"] = ratio(maxReq, sumReq/float64(len(reqs)))
	m["fracserve.server_us"] = us(sp.server, float64(sp.nodeSpans))
	m["fracserve.pre_solve_us"] = us(sp.preSolve, float64(sp.nodeSpans))
	m["fracserve.shape_us"] = us(sp.shape, float64(sp.nodeSpans))
	m["fracserve.resp_bytes"] = ratio(float64(bytes), float64(traced.ops))
	m["fracserve.rejected"] = float64(nodesAfter.rejected - nodesBefore.rejected)
	m["fracserve.timeouts"] = float64(nodesAfter.timeouts - nodesBefore.timeouts)
	plainRate, _, _ := plainRes.figures(plainSpeed.scale())
	tracedRate, _, _ := tracedRes.figures(tracedSpeed.scale())
	m["telemetry.trace_overhead"] = 1 - tracedRate/plainRate
	out.layers = m
	out.note = fmt.Sprintf("untraced ops %d, traced ops %d", plain.ops, traced.ops)
	return nil
}
