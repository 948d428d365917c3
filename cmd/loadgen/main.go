// loadgen replays full-mask traffic against a locally spawned fracd
// cluster and reports what the cluster is for: latency percentiles,
// shot throughput, and per-node cache-hit rate.
//
// It spawns -nodes in-process fracd servers, fractures the input layout
// (a hierarchical GDSII from -gds, or the synthetic shapegen full-mask
// demo) through the full-mask pipeline (cluster.RunPipeline), and
// scrapes each node's /stats when the replay drains. The pipeline sends
// one wire request per congruence class and credits each class with
// its placement count afterwards, so the nodes' class statistics count
// every placement; on a cold cluster every request is a miss and the
// hit rate reads 0. Traffic with one request per placement, the way a
// fleet of independent prep jobs would hit a shared cluster, is -soak.
//
// Soak mode (-soak) holds the cluster at a steady -qps for -duration
// with a token-bucket pacer and reports a rolling time series instead
// of a single aggregate: one row per -window with hit rate, p50/p99,
// shots/s, retry/hedge/failover deltas and per-node balance, an SLO
// verdict (p99 under -slo-p99 in at least 95% of windows), and at
// least one complete cross-node trace waterfall captured by tracing
// every -trace-every'th request. The run ends with the same /clusterz
// control-plane table that fracd -peers serves.
//
// After a soak the report always ends with the projected
// character-projection savings: the per-class placement statistics the
// node caches accumulated are mined (cluster TopClasses), a stencil is
// planned for them, and the write-time reduction it would buy is
// printed. -plan does the same after a replay, and in both modes adds
// the full per-class plan table plus a stencil_plan JSON field.
//
// Usage:
//
//	loadgen -nodes 3 -method proto-eda -cols 8 -rows 8 -json BENCH.json
//	loadgen -gds mask.gds -method mbf
//	loadgen -nodes 3 -cols 4 -rows 4 -plan -plan-slots 8
//	loadgen -soak -nodes 3 -qps 150 -duration 60s -json BENCH-soak.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"time"

	"maskfrac/internal/cluster"
	"maskfrac/internal/fracserve"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/stencil"
	"maskfrac/internal/writecost"
)

type nodeReport struct {
	ID        string  `json:"id"`
	Requests  uint64  `json:"requests"`
	CacheHits uint64  `json:"cache_hits"`
	CacheMiss uint64  `json:"cache_misses"`
	HitRate   float64 `json:"hit_rate"`
}

type report struct {
	Date       string  `json:"date"`
	Input      string  `json:"input"`
	Method     string  `json:"method"`
	Nodes      int     `json:"nodes"`
	Placements int64   `json:"placements"`
	Classes    int     `json:"classes"`
	ElapsedSec float64 `json:"elapsed_sec"`

	LatencyMS latencyMS `json:"latency_ms"`

	PlacementsPerSec float64 `json:"placements_per_sec"`
	ShotsPerSec      float64 `json:"shots_per_sec"`
	TotalShots       int64   `json:"total_shots"`
	EstWriteTimeSec  float64 `json:"est_write_time_sec"`

	ClusterHitRate float64      `json:"cluster_cache_hit_rate"`
	NodeReports    []nodeReport `json:"nodes_detail"`

	Retries     float64 `json:"retries"`
	Hedges      float64 `json:"hedges"`
	Failovers   float64 `json:"failovers"`
	Coalesced   float64 `json:"client_singleflight_dedup"`
	RingChanges uint64  `json:"ring_rebalances"`

	StencilPlan *stencil.Plan `json:"stencil_plan,omitempty"`
}

func main() {
	nodes := flag.Int("nodes", 3, "fracd nodes to spawn")
	gds := flag.String("gds", "", "hierarchical GDSII input (default: synthetic demo layout)")
	cols := flag.Int("cols", 8, "synthetic layout tile columns")
	rows := flag.Int("rows", 8, "synthetic layout tile rows")
	method := flag.String("method", "proto-eda", "fracturing method")
	concurrency := flag.Int("concurrency", 16, "concurrent placement requests")
	inflight := flag.Int("max-inflight", 8, "per-node in-flight cap (back-pressure)")
	hedge := flag.Duration("hedge", 0, "tail-hedge delay (0 disables)")
	workers := flag.Int("node-workers", 4, "solver workers per node")
	jsonOut := flag.String("json", "", "write the report as JSON to this path")
	soak := flag.Bool("soak", false, "soak mode: hold -qps for -duration and report a time series")
	qps := flag.Float64("qps", 50, "soak target request rate")
	duration := flag.Duration("duration", time.Minute, "soak run length")
	window := flag.Duration("window", 10*time.Second, "soak time-series bucket")
	sloP99 := flag.Duration("slo-p99", 500*time.Millisecond, "soak SLO: per-window p99 objective (0 disables)")
	traceEvery := flag.Int("trace-every", 64, "soak: trace request 0 and every Nth after (0 disables)")
	plan := flag.Bool("plan", false, "after the run, mine the cluster and print a character-projection stencil plan")
	planSlots := flag.Int("plan-slots", 0, "stencil character slot budget (0 = model default)")
	planLoad := flag.Float64("plan-load-ms", 0, "stencil load overhead in ms (-1 = model default; default 0 suits short runs)")
	flag.Parse()

	lib, input, err := loadLibrary(*gds, *cols, *rows)
	if err != nil {
		log.Fatal(err)
	}
	placements, err := lib.PlacementCount()
	if err != nil {
		log.Fatal(err)
	}

	cl, shutdown, err := spawnCluster(*nodes, cluster.Config{
		Method:      *method,
		MaxInflight: *inflight,
		HedgeDelay:  *hedge,
		Fallbacks:   2,
	}, *workers)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()

	var out any
	if *soak {
		fmt.Printf("soaking %d placements (%s) against %d nodes at %.0f qps for %v, method %s\n",
			placements, input, *nodes, *qps, *duration, *method)
		srep, err := runSoak(context.Background(), cl, lib, soakOptions{
			QPS:         *qps,
			Duration:    *duration,
			Window:      *window,
			Concurrency: *concurrency,
			Method:      *method,
			SLOP99:      *sloP99,
			TraceEvery:  *traceEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		srep.Date = time.Now().UTC().Format("2006-01-02")
		srep.Input = input
		srep.Method = *method
		srep.Nodes = *nodes
		printSoakReport(srep)
		// every soak ends with the projected CP savings the observed
		// class traffic would buy
		p, err := minePlan(context.Background(), cl, *planSlots, *planLoad)
		if err != nil {
			log.Printf("stencil mine failed: %v", err)
		} else {
			srep.StencilPlan = p
			printPlanSummary(p)
			if *plan {
				p.WriteReport(os.Stdout)
			}
		}
		printClusterz(context.Background(), cl)
		out = srep
	} else {
		fmt.Printf("replaying %d placements (%s) against %d nodes, method %s, concurrency %d\n",
			placements, input, *nodes, *method, *concurrency)
		rep, err := replay(context.Background(), cl, lib, *concurrency)
		if err != nil {
			log.Fatal(err)
		}
		rep.Date = time.Now().UTC().Format("2006-01-02")
		rep.Input = input
		rep.Method = *method
		rep.Nodes = *nodes
		printReport(rep)
		if *plan {
			p, err := minePlan(context.Background(), cl, *planSlots, *planLoad)
			if err != nil {
				log.Fatalf("stencil mine failed: %v", err)
			}
			rep.StencilPlan = p
			printPlanSummary(p)
			p.WriteReport(os.Stdout)
		}
		out = rep
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nreport written to %s\n", *jsonOut)
	}
}

// minePlan mines the cluster's congruence-class statistics and plans a
// character-projection stencil for them. loadMS < 0 keeps the model's
// default stencil load overhead; loadgen defaults it to 0 because a
// short replay's beam time never amortizes a production mount cost.
func minePlan(ctx context.Context, cl *cluster.Client, slots int, loadMS float64) (*stencil.Plan, error) {
	classes, err := cl.TopClasses(ctx, 0)
	if err != nil {
		return nil, err
	}
	m := writecost.Default()
	m.Overhead = 0 // price beam time only, like the replay report
	if slots > 0 {
		m.CPSlots = slots
	}
	if loadMS >= 0 {
		m.CPLoadOverhead = time.Duration(loadMS * float64(time.Millisecond))
	}
	return stencil.PlanCP(ctx, classes, m), nil
}

// printPlanSummary is the one-line projected-savings verdict.
func printPlanSummary(p *stencil.Plan) {
	r := p.Report
	fmt.Printf("\nprojected CP stencil savings: %d characters cover %d of %d placements, write %.1f%% faster (mask cost -%.3f%%)\n",
		len(p.Characters), r.CPPlacements, r.TotalPlacements,
		100*safeDiv(r.NetSavedMS, r.BaselineWriteMS), 100*r.CostReduction)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printClusterz renders the /clusterz control-plane table after a soak,
// the same view fracd -peers serves over HTTP.
func printClusterz(ctx context.Context, cl *cluster.Client) {
	fmt.Println("\nclusterz:")
	cluster.WriteStatusText(os.Stdout, cl.ClusterStatus(ctx))
}

func loadLibrary(path string, cols, rows int) (*maskio.Library, string, error) {
	if path == "" {
		return shapegen.DemoLibrary(cols, rows), fmt.Sprintf("synthetic %dx%d demo", cols, rows), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	lib, err := maskio.ReadGDSLib(f)
	if err != nil {
		return nil, "", fmt.Errorf("read %s: %w", path, err)
	}
	return lib, path, nil
}

// spawnCluster starts n in-process fracd servers on loopback listeners
// and wires them into one routed client.
func spawnCluster(n int, cfg cluster.Config, workers int) (*cluster.Client, func(), error) {
	cl := cluster.NewClient(cfg)
	var stops []func()
	shutdown := func() {
		for _, stop := range stops {
			stop()
		}
	}
	for i := 0; i < n; i++ {
		srv := fracserve.New(fracserve.Config{Workers: workers, QueueDepth: 256})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		go srv.Serve(l)
		stops = append(stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		id := fmt.Sprintf("node-%d", i)
		cl.AddNode(id, "http://"+l.Addr().String())
	}
	return cl, shutdown, nil
}

// replay fractures lib on the cluster through cluster.RunPipeline: each
// congruence class crosses the wire once, and its placement count is
// credited to the owning node's class statistics after the run, so the
// nodes (and -plan) see every placement.
func replay(ctx context.Context, cl *cluster.Client, lib *maskio.Library, concurrency int) (*report, error) {
	var latencies []float64 // ms, one per class: the run's wire requests
	seen := make(map[shapecache.Key]bool)
	mr, err := cluster.RunPipeline(ctx, cl, lib, cluster.PipelineConfig{
		Workers: concurrency,
		OnResult: func(pr *cluster.PlacementResult) error {
			if !seen[pr.Key] {
				seen[pr.Key] = true
				latencies = append(latencies, float64(pr.Class.Latency.Microseconds())/1000)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	elapsed := mr.Elapsed.Seconds()
	rep := &report{
		Placements:       mr.Placements,
		Classes:          mr.Classes,
		ElapsedSec:       elapsed,
		LatencyMS:        summarize(latencies),
		PlacementsPerSec: float64(mr.Placements) / elapsed,
		ShotsPerSec:      float64(mr.Shots) / elapsed,
		TotalShots:       mr.Shots,
		EstWriteTimeSec:  mr.WriteTime.Seconds(),
	}

	var hits, misses uint64
	for _, id := range cl.Nodes() {
		st, err := cl.NodeStats(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", id, err)
		}
		nr := nodeReport{
			ID:        id,
			Requests:  st.Requests,
			CacheHits: st.Cache.Hits,
			CacheMiss: st.Cache.Misses,
		}
		if t := nr.CacheHits + nr.CacheMiss; t > 0 {
			nr.HitRate = float64(nr.CacheHits) / float64(t)
		}
		rep.NodeReports = append(rep.NodeReports, nr)
		hits += st.Cache.Hits
		misses += st.Cache.Misses
	}
	if t := hits + misses; t > 0 {
		rep.ClusterHitRate = float64(hits) / float64(t)
	}
	rep.Retries, rep.Hedges, rep.Failovers, rep.Coalesced = cl.CounterValues()
	rep.RingChanges = cl.RingRebalances()
	return rep, nil
}

// latencyMS summarizes request latencies in milliseconds.
type latencyMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// summarize sorts ms in place and returns its percentiles, mean and
// maximum; all zero when ms is empty.
func summarize(ms []float64) latencyMS {
	var l latencyMS
	n := len(ms)
	if n == 0 {
		return l
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	pct := func(p float64) float64 { return ms[int(p*float64(n-1))] }
	l.P50, l.P90, l.P99 = pct(0.50), pct(0.90), pct(0.99)
	l.Mean = sum / float64(n)
	l.Max = ms[n-1]
	return l
}

func printReport(r *report) {
	fmt.Printf("\n%d placements, %d congruence classes in %.2fs\n", r.Placements, r.Classes, r.ElapsedSec)
	fmt.Printf("latency  p50 %.2fms  p90 %.2fms  p99 %.2fms  mean %.2fms  max %.2fms\n",
		r.LatencyMS.P50, r.LatencyMS.P90, r.LatencyMS.P99, r.LatencyMS.Mean, r.LatencyMS.Max)
	fmt.Printf("throughput  %.0f placements/s  %.0f shots/s  (%d shots, est. write %.1fs)\n",
		r.PlacementsPerSec, r.ShotsPerSec, r.TotalShots, r.EstWriteTimeSec)
	fmt.Printf("cluster cache hit rate %.1f%%  (retries %.0f, hedges %.0f, failovers %.0f, singleflight dedup %.0f)\n",
		100*r.ClusterHitRate, r.Retries, r.Hedges, r.Failovers, r.Coalesced)
	for _, n := range r.NodeReports {
		fmt.Printf("  %-8s requests %-6d hits %-6d misses %-4d hit rate %.1f%%\n",
			n.ID, n.Requests, n.CacheHits, n.CacheMiss, 100*n.HitRate)
	}
}
