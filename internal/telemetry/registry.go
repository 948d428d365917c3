// Package telemetry is the repo's dependency-free observability layer:
// a metrics registry with Prometheus text-format exposition (counters,
// gauges, fixed-bucket histograms, labeled vectors and callback
// metrics), a leveled structured JSON logger with per-request IDs, and
// a lightweight span/trace API threaded through context.Context so
// instrumented code pays one context lookup when tracing is disabled.
//
// Metric name conventions follow Prometheus: `<subsystem>_<what>_<unit>`
// with `_total` suffixes on counters (e.g. fracd_requests_total,
// fracd_solve_duration_seconds). Labels are fixed per metric family and
// low-cardinality (method names, endpoint paths).
package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered metric family.
type metric interface {
	desc() desc
	// samples appends exposition lines (without HELP/TYPE headers).
	samples(buf []byte) []byte
}

type desc struct {
	name string
	help string
	typ  string // "counter", "gauge" or "histogram"
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register installs m under its name, panicking on a duplicate: metric
// names are a flat global namespace per registry and a collision is a
// programming error.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.desc().name
	if _, dup := r.metrics[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	r.metrics[name] = m
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{d: desc{name, help, "counter"}}
	r.register(c)
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for mirroring counters a subsystem already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{d: desc{name, help, "counter"}, fn: fn})
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{d: desc{name, help, "gauge"}}
	r.register(g)
	return g
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{d: desc{name, help, "gauge"}, fn: fn})
}

// Histogram registers and returns a histogram with the given upper
// bucket bounds (ascending; +Inf is implicit). Nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(desc{name, help, "histogram"}, nil, buckets)
	r.register(h)
	return h
}

// CounterVec registers a counter family partitioned by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{d: desc{name, help, "counter"}, labels: labels,
		children: make(map[string]*Counter)}
	r.register(v)
	return v
}

// GaugeVec registers a gauge family partitioned by labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{d: desc{name, help, "gauge"}, labels: labels,
		children: make(map[string]*Gauge)}
	r.register(v)
	return v
}

// HistogramVec registers a histogram family partitioned by labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{d: desc{name, help, "histogram"}, labels: labels,
		buckets: normBuckets(buckets), children: make(map[string]*Histogram)}
	r.register(v)
	return v
}

// WritePrometheus renders every registered family, sorted by name, in
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(buf []byte) []byte {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()
	for _, m := range ms {
		d := m.desc()
		buf = append(buf, "# HELP "...)
		buf = append(buf, d.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(d.help)...)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, d.name...)
		buf = append(buf, ' ')
		buf = append(buf, d.typ...)
		buf = append(buf, '\n')
		buf = m.samples(buf)
	}
	return buf
}

// Handler returns an HTTP handler serving the exposition (a /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(r.WritePrometheus(nil))
	})
}

// Counter is a monotonically increasing counter. Value updates are
// atomic; counts are whole events scaled by Add's argument.
type Counter struct {
	d    desc
	lbl  string // rendered {k="v",...} suffix, "" when unlabeled
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) desc() desc { return c.d }

func (c *Counter) samples(buf []byte) []byte {
	return sampleLine(buf, c.d.name, c.lbl, c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	d    desc
	lbl  string // rendered {k="v",...} suffix, "" when unlabeled
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) desc() desc { return g.d }

func (g *Gauge) samples(buf []byte) []byte {
	return sampleLine(buf, g.d.name, g.lbl, g.Value())
}

// funcMetric samples a callback at scrape time.
type funcMetric struct {
	d  desc
	fn func() float64
}

func (f *funcMetric) desc() desc { return f.d }

func (f *funcMetric) samples(buf []byte) []byte {
	return sampleLine(buf, f.d.name, "", f.fn())
}

// DefBuckets are latency buckets in seconds spanning sub-millisecond
// cache hits to multi-minute MBF solves.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// ShotCountBuckets are power-of-two buckets for shots-per-shape
// distributions (the paper's clips land between 5 and ~60 shots).
var ShotCountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// SolveDurationBuckets are per-shape solve-time buckets in seconds. The
// service's latency distribution is sharply bimodal — ~0.1 ms for a
// shape-cache hit versus seconds for an MBF solve — so the low end
// extends to 50 µs with roughly 1-2-5 steps; DefBuckets' 0.5 ms floor
// collapsed every cache hit into the first bucket.
var SolveDurationBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

func normBuckets(b []float64) []float64 {
	if b == nil {
		b = DefBuckets
	}
	out := append([]float64(nil), b...)
	sort.Float64s(out)
	// drop a trailing +Inf; it is implicit
	for len(out) > 0 && math.IsInf(out[len(out)-1], 1) {
		out = out[:len(out)-1]
	}
	return out
}

// Histogram counts observations into fixed cumulative buckets
// (Prometheus convention: bucket le=U counts observations v <= U).
type Histogram struct {
	d       desc
	lbl     string
	buckets []float64 // upper bounds, ascending, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(d desc, lbl []byte, buckets []float64) *Histogram {
	b := normBuckets(buckets)
	return &Histogram{d: d, lbl: string(lbl), buckets: b,
		counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// BucketCounts returns the cumulative count per bucket (last entry is
// the +Inf bucket and equals Count).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// bucketQuantile estimates quantile q (in [0,1]) from cumulative
// histogram bucket counts: cum[i] counts the observations <= bounds[i]
// and the last entry, the implicit +Inf bucket, counts them all (the
// layout of BucketCounts). It interpolates linearly within the bucket
// holding the target rank, the first bucket starting at 0; a rank in
// the +Inf bucket clamps to the highest finite bound. Returns 0 when
// there are no observations.
func bucketQuantile(bounds []float64, cum []uint64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(cum[len(cum)-1])
	lowerBound, lowerCum := 0.0, 0.0
	for i, b := range bounds {
		c := float64(cum[i])
		if c >= rank {
			if c == lowerCum {
				return b
			}
			return lowerBound + (b-lowerBound)*(rank-lowerCum)/(c-lowerCum)
		}
		lowerBound, lowerCum = b, c
	}
	return lowerBound // the rank is in the +Inf bucket
}

func (h *Histogram) desc() desc { return h.d }

func (h *Histogram) samples(buf []byte) []byte {
	cum := h.BucketCounts()
	for i, ub := range h.buckets {
		lbl := joinLabel(h.lbl, `le="`+formatFloat(ub)+`"`)
		buf = sampleLine(buf, h.d.name+"_bucket", lbl, float64(cum[i]))
	}
	lbl := joinLabel(h.lbl, `le="+Inf"`)
	buf = sampleLine(buf, h.d.name+"_bucket", lbl, float64(cum[len(cum)-1]))
	buf = sampleLine(buf, h.d.name+"_sum", h.lbl, h.Sum())
	buf = sampleLine(buf, h.d.name+"_count", h.lbl, float64(h.Count()))
	return buf
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	d        desc
	labels   []string
	mu       sync.Mutex
	children map[string]*Counter
	order    []string // insertion order of keys, for Each
}

// With returns the child counter for the given label values (one per
// label name, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	key := joinValues(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := &Counter{d: v.d, lbl: renderLabels(v.labels, values)}
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

// Each calls fn for every child with its label values.
func (v *CounterVec) Each(fn func(values []string, c *Counter)) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	children := make([]*Counter, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		fn(splitValues(k), children[i])
	}
}

func (v *CounterVec) desc() desc { return v.d }

func (v *CounterVec) samples(buf []byte) []byte {
	v.mu.Lock()
	children := make([]*Counter, 0, len(v.order))
	for _, k := range v.order {
		children = append(children, v.children[k])
	}
	v.mu.Unlock()
	sort.Slice(children, func(a, b int) bool { return children[a].lbl < children[b].lbl })
	for _, c := range children {
		buf = c.samples(buf)
	}
	return buf
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	d        desc
	labels   []string
	mu       sync.Mutex
	children map[string]*Gauge
	order    []string
}

// With returns the child gauge for the given label values (one per
// label name, in declaration order), creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := joinValues(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.children[key]; ok {
		return g
	}
	g := &Gauge{d: v.d, lbl: renderLabels(v.labels, values)}
	v.children[key] = g
	v.order = append(v.order, key)
	return g
}

// Each calls fn for every child with its label values.
func (v *GaugeVec) Each(fn func(values []string, g *Gauge)) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	children := make([]*Gauge, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		fn(splitValues(k), children[i])
	}
}

func (v *GaugeVec) desc() desc { return v.d }

func (v *GaugeVec) samples(buf []byte) []byte {
	v.mu.Lock()
	children := make([]*Gauge, 0, len(v.order))
	for _, k := range v.order {
		children = append(children, v.children[k])
	}
	v.mu.Unlock()
	sort.Slice(children, func(a, b int) bool { return children[a].lbl < children[b].lbl })
	for _, g := range children {
		buf = g.samples(buf)
	}
	return buf
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	d        desc
	labels   []string
	buckets  []float64
	mu       sync.Mutex
	children map[string]*Histogram
	order    []string
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := joinValues(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[key]; ok {
		return h
	}
	h := newHistogram(v.d, []byte(renderLabels(v.labels, values)), v.buckets)
	v.children[key] = h
	v.order = append(v.order, key)
	return h
}

// Each calls fn for every child with its label values.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	children := make([]*Histogram, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		fn(splitValues(k), children[i])
	}
}

// Quantile estimates quantile q of the whole family, with the bucket
// counts of every label set summed (see bucketQuantile).
func (v *HistogramVec) Quantile(q float64) float64 {
	cum := make([]uint64, len(v.buckets)+1)
	v.Each(func(_ []string, h *Histogram) {
		for i, c := range h.BucketCounts() {
			cum[i] += c
		}
	})
	return bucketQuantile(v.buckets, cum, q)
}

func (v *HistogramVec) desc() desc { return v.d }

func (v *HistogramVec) samples(buf []byte) []byte {
	v.mu.Lock()
	children := make([]*Histogram, 0, len(v.order))
	for _, k := range v.order {
		children = append(children, v.children[k])
	}
	v.mu.Unlock()
	sort.Slice(children, func(a, b int) bool { return children[a].lbl < children[b].lbl })
	for _, h := range children {
		buf = h.samples(buf)
	}
	return buf
}

// sampleLine appends `name{labels} value\n`.
func sampleLine(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = append(buf, formatFloat(v)...)
	return append(buf, '\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders `k1="v1",k2="v2"` with escaped values.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("telemetry: %d label values for %d labels", len(values), len(names)))
	}
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func joinLabel(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

const valueSep = "\x1f"

func joinValues(v []string) string  { return strings.Join(v, valueSep) }
func splitValues(k string) []string { return strings.Split(k, valueSep) }
