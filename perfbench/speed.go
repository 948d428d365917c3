package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Machine-speed normalisation. The single-core speed of a small cloud
// VM moves with its neighbours' load even when the hypervisor steals
// nothing: with under 5% stolen, a fixed arithmetic loop ran at
// 1564–2224 sweeps/s in one-second samples, one MBF solve of ILT-1 took
// 575–1133 ms within one process, and whole manhattan-mbfl runs moved
// 1.75x from one run to the next (see README.md). Runs whose
// wall-clock figures differ by that much cannot be compared, so every
// time this benchmark reports is scaled to a reference machine speed:
// a run probes the speed of a fixed kernel (the benchmark's own code,
// not the program's) between its ops, in setup and in the timed phase,
// and scales its times by the run's median probe rate (speedLog.scale).
// The speed swings at a sub-second to few-second scale (1600–3600
// sweeps/s in quarter-second samples), so the run's median of 10–30
// probes tracks the run's level where a phase's few probes do not. A
// program change does not move the probe, so it moves the scaled
// figures as it moves the wall-clock ones.

// refProbeRate is the probe rate, in sweeps per second, that reported
// times are scaled to: roughly a 2-vCPU Intel Xeon cloud VM's speed.
const refProbeRate = 2000

// probeChunks × probeChunk is the length of one probe; its rate is the
// median chunk's, so a preemption inside one chunk does not count.
const (
	probeChunks = 5
	probeChunk  = 5 * time.Millisecond
)

// probeBufs are the kernel's working sets, one per probing thread:
// 256 KiB of float64 each, about the size of one clip's dose field.
var probeBufs = func() [][]float64 {
	bufs := make([][]float64, runtime.NumCPU())
	for t := range bufs {
		bufs[t] = make([]float64, 1<<15)
		for i := range bufs[t] {
			bufs[t][i] = float64(i%977) * 0.013
		}
	}
	return bufs
}()

// probeSink keeps the kernel's results observable.
var probeSink float64

// sweep is one pass of the probe kernel over xs: a three-point
// smoothing stencil with one exponential per element.
func sweep(xs []float64) float64 {
	for i := 1; i < len(xs)-1; i++ {
		xs[i] = 0.25*xs[i-1] + 0.5*math.Exp(-xs[i]*xs[i]*0.01) + 0.25*xs[i+1]
	}
	return xs[len(xs)/2]
}

// probe measures the machine's current speed in sweeps per second per
// thread, with threads copies of the kernel running at once: a
// workload that keeps both CPUs busy is probed with both busy, since a
// VM's two-thread speed does not follow its one-thread speed (two
// sibling hardware threads share one core).
func probe(threads int) float64 {
	threads = min(max(threads, 1), len(probeBufs))
	rates := make([]float64, threads)
	sinks := make([]float64, threads)
	var wg sync.WaitGroup
	for t := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := make([]float64, 0, probeChunks)
			for c := 0; c < probeChunks; c++ {
				t0 := time.Now()
				n := 0
				for time.Since(t0) < probeChunk {
					sinks[t] += sweep(probeBufs[t])
					n++
				}
				chunk = append(chunk, float64(n)/time.Since(t0).Seconds())
			}
			rates[t] = median(chunk)
		}()
	}
	wg.Wait()
	sum := 0.0
	for t := range rates {
		probeSink += sinks[t]
		sum += rates[t]
	}
	return sum / float64(threads)
}

// speedLog collects the probe rates of a run and the wall-clock time
// spent probing, which setup_s leaves out.
type speedLog struct {
	threads int // the workload's concurrency, probed alike
	rates   []float64
	spent   time.Duration
}

func (s *speedLog) probe() {
	t0 := time.Now()
	s.rates = append(s.rates, probe(s.threads))
	s.spent += time.Since(t0)
}

// rate is the median probe rate in sweeps per second.
func (s speedLog) rate() float64 { return median(s.rates) }

// scale is the factor that turns the run's times into reference
// seconds (and divides its rates): the square root of the median probe
// rate over the reference rate. The probe kernel is pure arithmetic and
// gains the whole of a change in the machine's speed; the workloads,
// partly bound by memory and system calls, gained about half as much
// in log terms (the README's spread table compares the exponents 0,
// 0.5 and 1 on the same runs).
func (s speedLog) scale() float64 { return math.Sqrt(s.rate() / refProbeRate) }

// stopwatch times an interval in CPU-available time: wall-clock time
// less the share the hypervisor stole (see stealMeter).
type stopwatch struct {
	start time.Time
	steal stealMeter
}

func startWatch() stopwatch { return stopwatch{time.Now(), startSteal()} }

// elapsed returns the wall-clock time since the start, less its stolen
// share.
func (w stopwatch) elapsed() time.Duration { return w.elapsedExcept(0) }

// elapsedExcept is elapsed without skip, wall-clock time the interval
// spent on something it does not measure (probing the machine's speed).
func (w stopwatch) elapsedExcept(skip time.Duration) time.Duration {
	d := time.Since(w.start) - skip
	return time.Duration(float64(d) * (1 - w.steal.fraction()))
}

// stealMeter measures the share of CPU time the hypervisor took from
// the machine's CPUs over an interval, from the kernel's /proc/stat
// accounting: stolen ticks over busy ticks (user, nice, system, irq,
// softirq and steal itself) summed over CPUs. A wall-clock interval
// times (1 − that share) is the time the work would have taken on
// CPUs it had to itself; an idle CPU accrues neither, so one busy
// thread on a two-CPU machine is corrected by its own CPU's steal.
type stealMeter struct {
	busy, steal int64
	ok          bool
}

func startSteal() stealMeter {
	busy, steal, ok := cpuTicks()
	return stealMeter{busy, steal, ok}
}

// fraction returns the stolen share since m started, or 0 when the
// kernel does not report steal.
func (m stealMeter) fraction() float64 {
	busy, steal, ok := cpuTicks()
	if !ok || !m.ok || busy <= m.busy {
		return 0
	}
	return float64(steal-m.steal) / float64(busy-m.busy)
}

// cpuTicks reads the aggregate cpu line of /proc/stat.
func cpuTicks() (busy, steal int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7], true
}
