// Command perfbench is the repository benchmark: it runs one workload
// against the fracturing stack for a fixed time, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// breakdown) as the last line of standard output. See README.md.
//
//	go run . -workload ilt-mbf -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	start   stopwatch // started on entry to main: setup_s counts from here
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	// phaseOK is false when a whole-phase check failed (for example
	// solver work during mask-replay's all-hit phase).
	phaseOK bool
	// endToEnd holds the workload-specific end-to-end metrics;
	// peak_rss_mb is added by main.
	endToEnd map[string]float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// note is printed before the result line (sample counts and such).
	note string
	// speed holds an untraced run's machine-speed probes (see
	// speed.go); setup_s and the timed figures share its scale.
	speed speedLog
}

// workloads maps -workload names to their runners.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"ilt-mbf":        runILT,
	"mask-replay":    runReplay,
	"manhattan-mbfl": runManhattan,
}

// endToEndUnits are the end-to-end metrics every untraced run reports.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"shots", "count"},
	{"flashes", "count"},
	{"cd_fail_px", "count"},
	{"peak_rss_mb", "MB"},
}

// layerUnits are the per-layer metrics every traced run reports; a
// layer a workload does not exercise reads 0.
var layerUnits = []struct{ name, unit string }{
	{"cover.sample_ms", "ms"},
	{"cover.evaluate_ms", "ms"},
	{"cover.mutations", "count"},
	{"cover.px_mutated", "count"},
	{"cover.px_scored", "count"},
	{"cover.arena_hit_ratio", "ratio"},
	{"mbf.approximate_s", "s"},
	{"mbf.refine_s", "s"},
	{"mbf.polish_s", "s"},
	{"mbf.cleanup_s", "s"},
	{"mbf.refine_iters", "count"},
	{"mbf.refine_accept_ratio", "ratio"},
	{"mbf.cleanup_trials", "count"},
	{"mbf.cleanup_yield", "ratio"},
	{"mbf.lshots_s", "s"},
	{"mbf.lshot_pair_yield", "ratio"},
	{"engine.regions", "count"},
	{"engine.region_busy_s", "s"},
	{"engine.parallel_eff", "ratio"},
	{"engine.steals", "count"},
	{"maskio.walk_us", "us"},
	{"shapecache.canon_us", "us"},
	{"shapecache.hit_ratio", "ratio"},
	{"cluster.client_us", "us"},
	{"cluster.attempts_per_op", "count"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.dedups", "count"},
	{"cluster.node_skew", "ratio"},
	{"fracserve.server_us", "us"},
	{"fracserve.pre_solve_us", "us"},
	{"fracserve.shape_us", "us"},
	{"fracserve.resp_bytes", "bytes"},
	{"fracserve.rejected", "count"},
	{"fracserve.timeouts", "count"},
	{"telemetry.trace_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := startWatch()
	// every run uses one scheduler thread per CPU, whatever the
	// environment says, so runs on one machine are comparable
	runtime.GOMAXPROCS(runtime.NumCPU())

	name := flag.String("workload", "", "workload: ilt-mbf, mask-replay or manhattan-mbfl")
	seed := flag.Int64("seed", DefaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown instead of end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload %s -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, start: start}

	env, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(),
	})
	fmt.Printf("env %s\n", env)

	out, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	res := result{
		Correct:   out.phaseOK && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	if cfg.trace {
		for _, m := range layerUnits {
			res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
	} else {
		out.endToEnd["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEndUnits {
			v, ok := out.endToEnd[m.name]
			if !ok {
				fatal(fmt.Errorf("workload %s did not report %s", *name, m.name))
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	printHuman(res, out)
	if !cfg.trace {
		speed, _ := json.Marshal(map[string]any{
			"ref_rate": refProbeRate, "rate": out.speed.rate(), "scale": out.speed.scale(),
			"threads": out.speed.threads, "probes": len(out.speed.rates),
		})
		fmt.Printf("speed %s\n", speed)
	}
	fmt.Printf("cpu time stolen by the hypervisor during the run: %.1f%%\n", start.steal.fraction()*100)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printHuman prints every metric by name with its unit, then the error
// rate, ahead of the machine-readable result line.
func printHuman(res result, out *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-26s %14.6g ratio (%d failed of %d)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if out.note != "" {
		fmt.Println(out.note)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// ratio is a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
