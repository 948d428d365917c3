package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"maskfrac/internal/cluster"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/stencil"
	"maskfrac/internal/telemetry"
)

// soakOptions tunes a soak run.
type soakOptions struct {
	QPS         float64       // target request rate
	Duration    time.Duration // total run length
	Window      time.Duration // rolling time-series bucket (default 10s)
	Concurrency int           // worker pool issuing requests
	Method      string
	SLOP99      time.Duration // per-window p99 objective (0 disables)
	TraceEvery  int           // trace request 0 and every Nth after (0 disables)
}

// windowReport is one time-series bucket of a soak run, keyed by
// request completion time.
type windowReport struct {
	StartSec float64 `json:"start_sec"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	HitRate  float64 `json:"hit_rate"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	ShotsPS  float64 `json:"shots_per_sec"`
	// Routing counter deltas over the window (client-side).
	Retries   float64 `json:"retries"`
	Hedges    float64 `json:"hedges"`
	Failovers float64 `json:"failovers"`
	// PerNode is the completion count by answering node — the balance
	// view.
	PerNode map[string]int `json:"per_node"`
}

// sloReport is the soak run's service-level objective check: the
// per-window p99 must beat the threshold in at least 95% of windows
// that saw traffic.
type sloReport struct {
	ThresholdMS  float64 `json:"threshold_ms"`
	WindowsOK    int     `json:"windows_ok"`
	WindowsTotal int     `json:"windows_total"`
	Pass         bool    `json:"pass"`
}

// soakReport is the -soak run report. The top-level fields mirror the
// replay report's JSON keys so BENCH_<date>.json tooling reads both.
type soakReport struct {
	Date       string  `json:"date"`
	Mode       string  `json:"mode"`
	Input      string  `json:"input"`
	Method     string  `json:"method"`
	Nodes      int     `json:"nodes"`
	TargetQPS  float64 `json:"target_qps"`
	ActualQPS  float64 `json:"actual_qps"`
	ElapsedSec float64 `json:"elapsed_sec"`
	WindowSec  float64 `json:"window_sec"`

	Requests   int64 `json:"requests"`
	Errors     int64 `json:"errors"`
	TotalShots int64 `json:"total_shots"`

	LatencyMS      latencyMS `json:"latency_ms"`
	ClusterHitRate float64   `json:"cluster_cache_hit_rate"`

	Windows []windowReport `json:"windows"`
	// DroppedWindows counts buckets inside the run that recorded zero
	// completions — a stall indicator; a healthy soak has none.
	DroppedWindows int       `json:"dropped_windows"`
	SLO            sloReport `json:"slo"`

	// CompleteTraces counts sampled requests whose stitched trace
	// contains the remote node's fracd.shape span — i.e. full
	// cross-node waterfalls, client span to solver phases.
	CompleteTraces int `json:"complete_traces"`
	// ExampleTrace is one rendered cross-node waterfall, line per span.
	ExampleTrace []string `json:"example_trace,omitempty"`

	Retries   float64 `json:"retries"`
	Hedges    float64 `json:"hedges"`
	Failovers float64 `json:"failovers"`

	// StencilPlan is the character-projection stencil the observed class
	// traffic justifies, with its projected write-time savings.
	StencilPlan *stencil.Plan `json:"stencil_plan,omitempty"`
}

// soakItem is one pre-canonicalized placement the soak cycles through.
type soakItem struct {
	key shapecache.Key
	can shapecache.Canonical
}

// collectItems canonicalizes every placement of the library once, so
// the soak loop pays no walk/canonicalize cost per request.
func collectItems(lib *maskio.Library, method string) ([]soakItem, error) {
	var items []soakItem
	err := lib.Walk(func(pl maskio.Placement) error {
		can := shapecache.Canonicalize(pl.Polygon)
		items = append(items, soakItem{key: can.KeyWith([]byte(method)), can: can})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("library has no placements")
	}
	return items, nil
}

// runSoak holds the target QPS against the cluster for the configured
// duration and accumulates the rolling-window time series.
func runSoak(ctx context.Context, cl *cluster.Client, lib *maskio.Library, opt soakOptions) (*soakReport, error) {
	if opt.Window <= 0 {
		opt.Window = 10 * time.Second
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 16
	}
	if opt.QPS <= 0 {
		return nil, fmt.Errorf("soak needs -qps > 0")
	}
	items, err := collectItems(lib, opt.Method)
	if err != nil {
		return nil, err
	}

	// warm every distinct class once before the clock starts, so the
	// time series measures steady-state serving, not the cold-start miss
	// storm — the windows would otherwise drop while every worker sits
	// in a first-time solve
	uniq := make(map[shapecache.Key]soakItem, len(items))
	for _, it := range items {
		uniq[it.key] = it
	}
	warm := make(chan soakItem)
	var wwg sync.WaitGroup
	for w := 0; w < opt.Concurrency; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for it := range warm {
				if _, err := cl.SolveClass(ctx, it.key, it.can.Poly); err != nil && ctx.Err() != nil {
					return
				}
			}
		}()
	}
	for _, it := range uniq {
		warm <- it
	}
	close(warm)
	wwg.Wait()

	nWindows := int(opt.Duration / opt.Window)
	if time.Duration(nWindows)*opt.Window < opt.Duration {
		nWindows++
	}
	if nWindows == 0 {
		nWindows = 1
	}

	type record struct {
		ms    float64
		err   bool
		hit   bool
		shots int
		node  string
	}
	var (
		mu      sync.Mutex
		windows = make([][]record, nWindows)
		// routing counter snapshot per window boundary (index 0 = start)
		snaps = make([][3]float64, 1, nWindows+1)
	)
	r0, h0, f0, _ := cl.CounterValues()
	snaps[0] = [3]float64{r0, h0, f0}

	start := time.Now()
	windowIdx := func(at time.Time) int {
		i := int(at.Sub(start) / opt.Window)
		if i < 0 {
			i = 0
		}
		if i >= nWindows {
			i = nWindows - 1 // clamp drain stragglers into the last bucket
		}
		return i
	}

	var (
		traceMu      sync.Mutex
		completeTr   int
		exampleTrace []string
	)
	solveOne := func(seq int64, it soakItem) {
		sctx := ctx
		var root *telemetry.Span
		if opt.TraceEvery > 0 && seq%int64(opt.TraceEvery) == 0 {
			sctx, root = telemetry.WithTrace(ctx, "soak.request")
		}
		t0 := time.Now()
		res, err := cl.SolveClass(sctx, it.key, it.can.Poly)
		done := time.Now()
		rec := record{ms: float64(done.Sub(t0).Microseconds()) / 1000, err: err != nil}
		if err == nil {
			rec.hit = res.CacheHit
			rec.shots = res.ShotCount
			rec.node = res.Node
		}
		mu.Lock()
		i := windowIdx(done)
		windows[i] = append(windows[i], rec)
		mu.Unlock()
		if root != nil {
			root.End()
			// a complete cross-node trace reaches the remote solver: the
			// stitched tree carries the node's fracd.shape span
			if remote := root.Find("fracd.shape"); remote != nil && remote.TraceID() == root.TraceID() {
				traceMu.Lock()
				completeTr++
				if exampleTrace == nil {
					var sb strings.Builder
					root.WriteTree(&sb)
					exampleTrace = strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
				}
				traceMu.Unlock()
			}
		}
	}

	// worker pool fed by the pacer
	jobs := make(chan int64, opt.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				solveOne(seq, items[seq%int64(len(items))])
			}
		}()
	}

	// counter sampler: snapshot routing counters at each window boundary
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(opt.Window)
		defer tick.Stop()
		for i := 0; i < nWindows; i++ {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
			r, h, f, _ := cl.CounterValues()
			mu.Lock()
			snaps = append(snaps, [3]float64{r, h, f})
			mu.Unlock()
		}
	}()

	// token-bucket pacer: issue deficit = target(t) - issued every few
	// milliseconds, burst-capped so a GC pause cannot dump a flood
	var issued int64
	burst := int64(opt.QPS / 10)
	if burst < 1 {
		burst = 1
	}
	pace := time.NewTicker(5 * time.Millisecond)
	defer pace.Stop()
pacing:
	for {
		select {
		case <-pace.C:
			el := time.Since(start)
			if el >= opt.Duration {
				break pacing
			}
			target := int64(opt.QPS * el.Seconds())
			deficit := target - issued
			if deficit > burst {
				deficit = burst
			}
			for ; deficit > 0; deficit-- {
				select {
				case jobs <- issued:
					issued++
				case <-ctx.Done():
					break pacing
				default:
					// workers saturated: back-pressure wins over the pacer
					deficit = 0
				}
			}
		case <-ctx.Done():
			break pacing
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	<-samplerDone

	// final counter snapshot closes the last window's delta
	rN, hN, fN, _ := cl.CounterValues()
	mu.Lock()
	for len(snaps) < nWindows+1 {
		snaps = append(snaps, [3]float64{rN, hN, fN})
	}
	mu.Unlock()

	rep := &soakReport{
		Mode:       "soak",
		TargetQPS:  opt.QPS,
		ElapsedSec: elapsed.Seconds(),
		WindowSec:  opt.Window.Seconds(),
	}
	var all []float64
	var hits, nonErr int64
	for i, recs := range windows {
		wrep := windowReport{
			StartSec: float64(i) * opt.Window.Seconds(),
			Requests: len(recs),
			PerNode:  map[string]int{},
		}
		var lat []float64
		var shots int64
		for _, r := range recs {
			if r.err {
				wrep.Errors++
				rep.Errors++
				continue
			}
			nonErr++
			lat = append(lat, r.ms)
			shots += int64(r.shots)
			if r.hit {
				hits++
				wrep.HitRate++ // numerator; divided below
			}
			if r.node != "" {
				wrep.PerNode[r.node]++
			}
		}
		rep.Requests += int64(len(recs))
		rep.TotalShots += shots
		if n := len(lat); n > 0 {
			sort.Float64s(lat)
			wrep.P50MS = lat[int(0.50*float64(n-1))]
			wrep.P99MS = lat[int(0.99*float64(n-1))]
			wrep.HitRate /= float64(n)
		}
		wrep.ShotsPS = float64(shots) / opt.Window.Seconds()
		wrep.Retries = snaps[i+1][0] - snaps[i][0]
		wrep.Hedges = snaps[i+1][1] - snaps[i][1]
		wrep.Failovers = snaps[i+1][2] - snaps[i][2]
		if len(recs) == 0 {
			rep.DroppedWindows++
		}
		all = append(all, lat...)
		rep.Windows = append(rep.Windows, wrep)
	}

	rep.LatencyMS = summarize(all)
	if nonErr > 0 {
		rep.ClusterHitRate = float64(hits) / float64(nonErr)
	}
	rep.ActualQPS = float64(rep.Requests) / elapsed.Seconds()
	rep.CompleteTraces = completeTr
	rep.ExampleTrace = exampleTrace
	rep.Retries = rN - r0
	rep.Hedges = hN - h0
	rep.Failovers = fN - f0

	// SLO: p99 under threshold in >= 95% of windows that saw traffic
	if opt.SLOP99 > 0 {
		thr := float64(opt.SLOP99) / float64(time.Millisecond)
		rep.SLO.ThresholdMS = thr
		for _, w := range rep.Windows {
			if w.Requests == 0 {
				continue
			}
			rep.SLO.WindowsTotal++
			if w.P99MS < thr {
				rep.SLO.WindowsOK++
			}
		}
		rep.SLO.Pass = rep.SLO.WindowsTotal > 0 &&
			float64(rep.SLO.WindowsOK) >= 0.95*float64(rep.SLO.WindowsTotal)
	}
	return rep, nil
}

func printSoakReport(r *soakReport) {
	fmt.Printf("\nsoak: %d requests (%d errors) in %.1fs — %.1f qps of %.1f target\n",
		r.Requests, r.Errors, r.ElapsedSec, r.ActualQPS, r.TargetQPS)
	fmt.Printf("latency  p50 %.2fms  p90 %.2fms  p99 %.2fms  mean %.2fms  max %.2fms\n",
		r.LatencyMS.P50, r.LatencyMS.P90, r.LatencyMS.P99, r.LatencyMS.Mean, r.LatencyMS.Max)
	fmt.Printf("hit rate %.1f%%  shots %d  retries %.0f  hedges %.0f  failovers %.0f\n",
		100*r.ClusterHitRate, r.TotalShots, r.Retries, r.Hedges, r.Failovers)
	fmt.Printf("windows (%gs):\n", r.WindowSec)
	fmt.Printf("  %8s %8s %6s %8s %8s %8s %9s  %s\n",
		"t", "reqs", "errs", "hit%", "p50ms", "p99ms", "shots/s", "per-node")
	for _, w := range r.Windows {
		nodes := make([]string, 0, len(w.PerNode))
		for id := range w.PerNode {
			nodes = append(nodes, id)
		}
		sort.Strings(nodes)
		var nb strings.Builder
		for _, id := range nodes {
			fmt.Fprintf(&nb, "%s:%d ", id, w.PerNode[id])
		}
		fmt.Printf("  %7.0fs %8d %6d %7.1f%% %8.2f %8.2f %9.0f  %s\n",
			w.StartSec, w.Requests, w.Errors, 100*w.HitRate, w.P50MS, w.P99MS, w.ShotsPS,
			strings.TrimSpace(nb.String()))
	}
	if r.DroppedWindows > 0 {
		fmt.Printf("DROPPED WINDOWS: %d buckets saw zero completions\n", r.DroppedWindows)
	}
	if r.SLO.ThresholdMS > 0 {
		verdict := "PASS"
		if !r.SLO.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("SLO p99<%.0fms: %s (%d/%d windows)\n",
			r.SLO.ThresholdMS, verdict, r.SLO.WindowsOK, r.SLO.WindowsTotal)
	}
	fmt.Printf("complete cross-node traces: %d\n", r.CompleteTraces)
	if len(r.ExampleTrace) > 0 {
		fmt.Println("example trace waterfall:")
		for _, line := range r.ExampleTrace {
			fmt.Println("  " + line)
		}
	}
}
