package fracserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/maskio"
	"maskfrac/internal/telemetry"
	"maskfrac/internal/telemetry/tracestore"
)

// Config tunes a fracturing server. Zero values select the defaults
// noted on each field.
type Config struct {
	// Workers is the number of jobs — /fracture shapes and /solve
	// instances — solved at once, and the default cap on one /solve
	// request's goroutines (default 4). Every solve shares one pool of
	// GOMAXPROCS goroutine tokens: a worker holds a token while it
	// solves, and a solve takes helpers (for its regions and for the
	// work inside one solve) only from tokens no one holds.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// requests that would overflow it are rejected with 429 (default
	// 64).
	QueueDepth int
	// Params are the server's default fracturing parameters
	// (default maskfrac.DefaultParams()).
	Params maskfrac.Params
	// CacheEntries bounds the shape cache; 0 selects 4096 and a
	// negative value disables caching.
	CacheEntries int
	// DefaultTimeout caps requests that carry no timeout_ms
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied timeouts (default 10m).
	MaxTimeout time.Duration
	// MaxShapes bounds the batch size of one request (default 4096).
	MaxShapes int
	// Metrics is the registry behind /metrics and /stats; nil creates
	// a registry owned by this server. Two servers must not share one
	// registry (metric names would collide).
	Metrics *telemetry.Registry
	// Logger receives structured access and lifecycle logs (default:
	// discard everything).
	Logger *telemetry.Logger
	// TraceStore tunes retention of completed request traces served on
	// /debug/traces; zero values select the tracestore defaults.
	TraceStore tracestore.Config
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Params == (maskfrac.Params{}) {
		c.Params = maskfrac.DefaultParams()
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxShapes <= 0 {
		c.MaxShapes = 4096
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = telemetry.NopLogger()
	}
	return c
}

// job is one solve waiting for a worker: a /fracture shape the cache
// could not answer, or a /solve instance. solve fills item under the
// request's ctx, inside span when that is set (else under the request's
// own span), and the worker ends span once solve returns. panicked
// reports that the solve panicked; read it after wg.
type job struct {
	ctx      context.Context
	reqID    string
	method   maskfrac.Method
	item     *ItemResult
	span     *telemetry.Span
	solve    func(ctx context.Context, item *ItemResult)
	wg       *sync.WaitGroup
	enqueued time.Time
	panicked bool
}

// Server is the fracturing daemon: an HTTP handler backed by a bounded
// worker pool, a request queue and a content-addressed shape cache,
// instrumented with a telemetry registry (served on /metrics) and a
// structured access log.
type Server struct {
	cfg    Config
	cache  *maskfrac.ShapeCache
	pool   *engine.Pool // solver goroutine tokens, shared by every job
	jobs   chan *job
	mux    *http.ServeMux
	log    *telemetry.Logger
	reg    *telemetry.Registry
	traces *tracestore.Store

	workerWg sync.WaitGroup
	httpSrv  *http.Server
	stopOnce sync.Once
	// submit sends on jobs under queueMu's read lock, and Shutdown
	// closes jobs under the write lock, after setting closed
	queueMu sync.RWMutex
	closed  bool

	start time.Time

	// registry instruments; /stats is derived from these
	requests     *telemetry.Counter
	solveReqs    *telemetry.Counter
	planReqs     *telemetry.Counter
	planSelected *telemetry.Gauge
	planSavedSec *telemetry.Gauge
	rejected     *telemetry.Counter
	timeouts     *telemetry.Counter
	panics       *telemetry.Counter
	regionsHist  *telemetry.Histogram
	inflight     *telemetry.Gauge
	reqDur       *telemetry.HistogramVec // by endpoint path
	queueWait    *telemetry.Histogram
	shotsHist    *telemetry.Histogram
	mShapes      *telemetry.CounterVec   // shapes attempted, by method
	mErrors      *telemetry.CounterVec   // per-item errors, by method
	mHits        *telemetry.CounterVec   // cache hits, by method
	mShots       *telemetry.CounterVec   // shots produced, by method
	solveDur     *telemetry.HistogramVec // successful solve seconds, by method

	// graceful-drain accounting
	draining      atomic.Bool
	drained       atomic.Uint64 // jobs completed while draining
	drainRejected atomic.Uint64 // requests 429'd while draining

	// workDelay stalls each job before solving; tests use it to hold
	// the queue full or exceed request deadlines deterministically.
	workDelay time.Duration
}

// New builds a server, registers its metrics and starts its worker
// pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		pool:   engine.NewPool(runtime.GOMAXPROCS(0)),
		jobs:   make(chan *job, cfg.QueueDepth),
		log:    cfg.Logger,
		reg:    cfg.Metrics,
		traces: tracestore.New(cfg.TraceStore),
		start:  time.Now(),
	}
	if cfg.CacheEntries >= 0 {
		s.cache = maskfrac.NewShapeCache(cfg.CacheEntries)
	}
	s.registerMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("/fracture", s.handleFracture)
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/stats/classes", s.handleClassUses)
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/traces/", s.handleTraces)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	s.httpSrv = &http.Server{Handler: s.observe(mux)}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWg.Add(1)
		go s.worker()
	}
	return s
}

// registerMetrics creates every instrument on the server's registry.
func (s *Server) registerMetrics() {
	r := s.reg
	s.requests = r.Counter("fracd_requests_total",
		"POST /fracture requests received")
	s.solveReqs = r.Counter("fracd_solve_requests_total",
		"POST /solve requests received")
	s.planReqs = r.Counter("fracd_stencil_plans_total",
		"POST /plan stencil planning requests received")
	s.planSelected = r.Gauge("fracd_stencil_selected_classes",
		"characters selected by the most recent stencil plan")
	s.planSavedSec = r.Gauge("fracd_stencil_saved_seconds",
		"net modeled write-time saving of the most recent stencil plan")
	s.regionsHist = r.Histogram("fracd_regions_per_request",
		"independent regions per /solve instance",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.rejected = r.Counter("fracd_requests_rejected_total",
		"requests rejected with 429 because the work queue was full")
	s.timeouts = r.Counter("fracd_requests_timeout_total",
		"requests that exceeded their deadline (504)")
	s.panics = r.Counter("fracd_panics_total",
		"solver panics recovered by a worker; each failed its job")
	s.inflight = r.Gauge("fracd_inflight_requests",
		"HTTP requests currently being served")
	s.reqDur = r.HistogramVec("fracd_request_duration_seconds",
		"HTTP request latency by endpoint", nil, "path")
	s.queueWait = r.Histogram("fracd_queue_wait_seconds",
		"time queued jobs (shape-cache misses and /solve instances) wait for a worker; hits are answered on the request goroutine and never queue", nil)
	s.shotsHist = r.Histogram("fracd_shots_per_shape",
		"shot count distribution of successful solves", telemetry.ShotCountBuckets)
	s.mShapes = r.CounterVec("fracd_shapes_total",
		"shapes attempted by method", "method")
	s.mErrors = r.CounterVec("fracd_shape_errors_total",
		"per-shape errors by method", "method")
	s.mHits = r.CounterVec("fracd_shape_cache_hits_total",
		"shapes served from the shape cache by method", "method")
	s.mShots = r.CounterVec("fracd_shots_total",
		"shots produced by method", "method")
	s.solveDur = r.HistogramVec("fracd_solve_duration_seconds",
		"solver wall time of successful shapes by method, cache hits excluded",
		telemetry.SolveDurationBuckets, "method")
	buildVersion, buildGo := buildInfo()
	r.GaugeVec("fracd_build_info",
		"build metadata; the gauge is always 1", "version", "go").
		With(buildVersion, buildGo).Set(1)
	r.GaugeFunc("fracd_queue_depth", "jobs waiting for a worker",
		func() float64 { return float64(len(s.jobs)) })
	r.GaugeFunc("fracd_queue_capacity", "configured work queue bound",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("fracd_workers", "solver worker pool size",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("fracd_uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("fracd_traces_retained", "request traces retained in the trace store",
		func() float64 { _, retained, _ := s.traces.Stats(); return float64(retained) })
	r.CounterFunc("fracd_traces_dropped_total", "request traces dropped by the sampling policy",
		func() float64 { _, _, dropped := s.traces.Stats(); return float64(dropped) })
	r.CounterFunc("fracd_eval_mutations_total",
		"incremental evaluator mutations committed (process-wide)",
		func() float64 { return float64(cover.EvalCounters().Mutations) })
	r.CounterFunc("fracd_eval_pixels_mutated_total",
		"pixels scanned committing evaluator mutations (process-wide)",
		func() float64 { return float64(cover.EvalCounters().PixelsMutated) })
	r.CounterFunc("fracd_eval_pixels_scored_total",
		"pixels whose cost term was evaluated scoring DeltaCost candidates (process-wide)",
		func() float64 { return float64(cover.EvalCounters().PixelsScored) })
	r.CounterFunc("fracd_eval_arena_hits_total",
		"evaluator buffer acquisitions served from an arena free list (process-wide)",
		func() float64 { return float64(cover.ArenaCounters().Hits) })
	r.CounterFunc("fracd_eval_arena_misses_total",
		"evaluator buffer acquisitions that allocated fresh memory (process-wide)",
		func() float64 { return float64(cover.ArenaCounters().Misses) })
	r.CounterFunc("fracd_eval_arena_bytes_reused_total",
		"bytes of evaluator buffers reused from arena free lists (process-wide)",
		func() float64 { return float64(cover.ArenaCounters().BytesReused) })
	r.CounterFunc("fracd_engine_steals_total",
		"engine region solves executed by work-stealing helper goroutines (process-wide)",
		func() float64 { return float64(engine.StealCount()) })
	evalPx := r.Histogram("fracd_eval_pixels_per_mutation",
		"pixels scanned committing one evaluator mutation",
		[]float64{64, 256, 1024, 4096, 16384, 65536, 262144})
	// the observer hook is process-wide (last registered server wins),
	// which matches the one-server deployment of fracd; the totals above
	// stay exact regardless
	cover.SetMutationObserver(func(px int) { evalPx.Observe(float64(px)) })
	if s.cache != nil {
		r.CounterFunc("fracd_shapecache_hits_total",
			"shape cache lookups answered from a stored entry or in-flight solve",
			func() float64 { return float64(s.cache.Stats().Hits) })
		r.CounterFunc("fracd_shapecache_misses_total",
			"shape cache lookups that ran the solver",
			func() float64 { return float64(s.cache.Stats().Misses) })
		r.CounterFunc("fracd_shapecache_evictions_total",
			"shape cache entries dropped by the LRU bound",
			func() float64 { return float64(s.cache.Stats().Evictions) })
		r.CounterFunc("fracd_shapecache_coalesced_total",
			"shape cache hits served by waiting on a concurrent in-flight solve",
			func() float64 { return float64(s.cache.Stats().Coalesced) })
		r.GaugeFunc("fracd_shapecache_entries", "stored shape cache entries",
			func() float64 { return float64(s.cache.Stats().Entries) })
		r.GaugeFunc("fracd_shapecache_bytes", "estimated shape cache footprint",
			func() float64 { return float64(s.cache.Stats().Bytes) })
	}
}

type reqIDKey struct{}

// requestID returns the request ID the observe middleware attached.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// statusWriter captures the response status and size for access logs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// observe wraps the mux with per-request observability: a request ID
// (propagated from X-Request-ID or generated), the inflight gauge, the
// latency histogram and one structured access log line per request.
func (s *Server) observe(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		s.inflight.Inc()
		defer s.inflight.Dec()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		dur := time.Since(start)
		// label by the mux pattern that served the request, so a client
		// probing random URLs cannot mint new series
		route := "other"
		if _, pattern := s.mux.Handler(r); pattern != "" {
			route = pattern
		}
		s.reqDur.With(route).Observe(dur.Seconds())
		// the fields are boxed only for a line the logger writes
		if s.log.Enabled(telemetry.LevelInfo) {
			s.log.Info("request",
				"id", id, "method", r.Method, "path", r.URL.Path,
				"status", sw.code, "bytes", sw.bytes,
				"dur_ms", float64(dur)/float64(time.Millisecond))
		}
	})
}

// buildInfo extracts the module version and Go toolchain baked into the
// binary for the fracd_build_info gauge.
func buildInfo() (version, goVersion string) {
	version, goVersion = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		} else {
			version = "devel"
			for _, kv := range bi.Settings {
				if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
					version = kv.Value[:12]
				}
			}
		}
	}
	return version, goVersion
}

// Handler returns the HTTP handler serving the endpoints, wrapped with
// the observability middleware.
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Handle mounts an extra handler (e.g. the cluster /clusterz view) on
// the server's mux; it runs under the same observability middleware.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Metrics returns the server's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully: it stops accepting
// connections, waits for in-flight requests (and therefore their queued
// jobs) to finish within ctx, then stops the worker pool. It logs the
// number of jobs drained and requests rejected during the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.log.Info("draining", "queued_shapes", len(s.jobs),
			"inflight_requests", int(s.inflight.Value()))
		// Shutdown returns early when ctx ends while handlers still run;
		// those that have not queued their jobs yet then answer 503
		err = s.httpSrv.Shutdown(ctx)
		s.queueMu.Lock()
		s.closed = true
		close(s.jobs)
		s.queueMu.Unlock()
		done := make(chan struct{})
		go func() {
			s.workerWg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
		s.log.Info("drained",
			"drained_shapes", s.drained.Load(),
			"rejected_requests", s.drainRejected.Load(),
			"err", errString(err))
	})
	return err
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// worker pulls jobs off the queue and solves them.
func (s *Server) worker() {
	defer s.workerWg.Done()
	for j := range s.jobs {
		s.run(j)
	}
}

// run solves one queued job and records its result and statistics.
func (s *Server) run(j *job) {
	defer j.wg.Done()
	wait := time.Since(j.enqueued)
	s.queueWait.Observe(wait.Seconds())
	if s.workDelay > 0 {
		select {
		case <-time.After(s.workDelay):
		case <-j.ctx.Done():
		}
	}
	if err := j.ctx.Err(); err != nil {
		j.item.Error = err.Error()
	} else {
		s.solve(j)
	}
	s.record(j.method, j.item)
	if s.log.Enabled(telemetry.LevelDebug) {
		s.log.Debug("job done",
			"id", j.reqID, "index", j.item.Index, "method", string(j.method),
			"shots", j.item.ShotCount, "cache_hit", j.item.CacheHit,
			"queue_wait_ms", float64(wait)/float64(time.Millisecond),
			"solve_ms", j.item.SolveMS, "err", j.item.Error)
	}
}

// solve runs j's solve func in j's span. A panic in it fails only this
// job: the item reports it, the span ends with the error, the panic
// value and the stack, the stack also goes to the error log, and
// fracd_panics_total counts it. engine.Pool.Fan re-raises a helper's
// panic on its caller, so this covers region and intra-solve helpers.
func (s *Server) solve(j *job) {
	// workers and helpers share the GOMAXPROCS tokens, and a helper
	// runs only on a token, so once every busy worker holds one the
	// server runs at most max(Workers, GOMAXPROCS) solver goroutines;
	// a worker that finds every token taken by helpers solves without
	// one, and those helpers end with their fan-out
	if s.pool.TryAcquire() {
		defer s.pool.Release()
	}
	ctx, span := j.ctx, telemetry.ActiveSpan(j.ctx)
	if j.span != nil {
		ctx, span = telemetry.ContextWithSpan(ctx, j.span), j.span
		defer span.End()
	}
	defer func() {
		if r := recover(); r != nil {
			stack := string(debug.Stack())
			j.item.Error = fmt.Sprintf("solver panic: %v", r)
			j.panicked = true
			span.Set("err", j.item.Error)
			span.Set("panic", fmt.Sprint(r))
			span.Set("stack", stack)
			s.panics.Inc()
			s.log.Error("solver panic", "id", j.reqID, "index", j.item.Index,
				"method", string(j.method), "panic", fmt.Sprint(r), "stack", stack)
		}
	}()
	j.solve(ctx, j.item)
}

// fill records a solve's outcome in item; omit drops the shot list.
func (item *ItemResult) fill(res *maskfrac.Result, err error, omit bool) {
	if err != nil {
		item.Error = err.Error()
		return
	}
	item.ShotCount = res.ShotCount()
	if len(res.LPairs) > 0 {
		item.LPairs = res.LPairs
		item.FlashCount = res.FlashCount()
	}
	item.FailOn = res.FailOn
	item.FailOff = res.FailOff
	item.Cost = res.Cost
	item.Feasible = res.Feasible()
	item.SolveMS = float64(res.Runtime) / float64(time.Millisecond)
	item.EvalMS = float64(res.EvalTime) / float64(time.Millisecond)
	if !omit {
		item.Shots = maskio.ShotsWire(res.Shots)
	}
}

// noteShape records a finished /fracture shape on its span.
func noteShape(span *telemetry.Span, m maskfrac.Method, item *ItemResult) {
	span.Set("method", string(m))
	span.Set("cache_hit", item.CacheHit)
	span.Set("shots", item.ShotCount)
	if item.Error != "" {
		span.Set("err", item.Error)
	}
}

// record folds a finished item into the per-method metrics.
func (s *Server) record(m maskfrac.Method, item *ItemResult) {
	name := string(m)
	s.mShapes.With(name).Inc()
	if s.draining.Load() {
		s.drained.Add(1)
	}
	if item.Error != "" {
		s.mErrors.With(name).Inc()
		return
	}
	s.mShots.With(name).Add(float64(item.ShotCount))
	s.shotsHist.Observe(float64(item.ShotCount))
	// a hit's SolveMS is the cached run's runtime: no solver ran here
	if item.CacheHit {
		s.mHits.With(name).Inc()
	} else {
		s.solveDur.With(name).Observe(item.SolveMS / 1000)
	}
}

// handleFracture serves POST /fracture.
func (s *Server) handleFracture(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.requests.Inc()
	reqID := requestID(r.Context())
	tctx, root, remote := s.traceStart(r, "fracd.fracture")
	fail := func(code int, msg string) {
		s.finishTrace(root, remote, reqID, msg)
		writeError(w, code, msg)
	}

	var req Request
	if err := readRequest(w, r, &req); err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	wires := req.Shapes
	if req.Shape != nil {
		if wires != nil {
			fail(http.StatusBadRequest, "set shape or shapes, not both")
			return
		}
		wires = [][][2]float64{req.Shape}
	}
	if len(wires) == 0 {
		fail(http.StatusBadRequest, "no shapes")
		return
	}
	if len(wires) > s.cfg.MaxShapes {
		fail(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d shapes exceeds the per-request limit of %d", len(wires), s.cfg.MaxShapes))
		return
	}
	method, params, opt, err := s.resolve(req.Method, req.Params, req.Options)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	root.Set("shapes", len(wires))
	root.Set("method", string(method))

	results := make([]ItemResult, len(wires))
	var jobs []*job
	for i, wire := range wires {
		item := &results[i]
		item.Index = i
		target, err := maskio.PolygonFromWire(wire)
		if err != nil {
			item.Error = err.Error()
			continue
		}
		// one span per shape, opened before the cache lookup: a hit is
		// answered here, on the request goroutine, and a miss becomes a
		// job whose solver phase spans (via StartSpan in the engine and
		// mbf packages) nest under the same span
		span := root.Child("fracd.shape")
		span.Set("index", i)
		if res, ok := s.cache.Lookup(target, params, method, opt); ok {
			item.fill(res, nil, req.OmitShots)
			item.CacheHit = true
			noteShape(span, method, item)
			span.End()
			s.record(method, item)
			continue
		}
		jobs = append(jobs, &job{method: method, item: item, span: span, solve: func(ctx context.Context, item *ItemResult) {
			res, hit, err := maskfrac.FractureCached(ctx, target, params, method, opt, s.cache)
			item.fill(res, err, req.OmitShots)
			item.CacheHit = hit
			noteShape(span, method, item)
		}})
	}
	// an all-hit request queues nothing, so no 429, 503 or 504 reaches it
	if len(jobs) > 0 && !s.submit(tctx, w, req.TimeoutMS, s.pool, jobs, fail) {
		return
	}
	// a solver panic keeps the request's trace as an error trace
	traceErr := ""
	for _, j := range jobs {
		if j.panicked {
			traceErr = j.item.Error
			break
		}
	}

	resp := Response{Results: results}
	pairs := 0
	for _, it := range results {
		resp.Summary.Shapes++
		if it.Error != "" {
			resp.Summary.Errors++
			continue
		}
		resp.Summary.Shots += it.ShotCount
		pairs += len(it.LPairs)
		if it.Feasible {
			resp.Summary.Feasible++
		}
		if it.CacheHit {
			resp.Summary.CacheHits++
		}
	}
	if pairs > 0 {
		resp.Summary.Flashes = resp.Summary.Shots - pairs
	}
	resp.TraceID = root.TraceID()
	wire := s.finishTrace(root, remote, reqID, traceErr)
	if req.ReturnTrace || remote {
		resp.Trace = wire
	}
	writeResponse(w, &resp)
}

// submit queues jobs for the workers under the request's time budget
// and waits for them. It answers 503 once Shutdown has closed the
// queue, 429 when the queue cannot take them all and 504 when the
// budget runs out first, and then returns false; jobs already queued
// see the cancelled ctx and drain as no-ops. Their solves take helpers
// from pool.
func (s *Server) submit(ctx context.Context, w http.ResponseWriter, timeoutMS int, pool *engine.Pool, jobs []*job, fail func(code int, msg string)) bool {
	reqID := requestID(ctx)
	timeout := s.requestTimeout(timeoutMS)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ctx = engine.WithPool(ctx, pool)
	var wg sync.WaitGroup
	s.queueMu.RLock()
	if s.closed {
		s.queueMu.RUnlock()
		s.drainRejected.Add(1)
		fail(http.StatusServiceUnavailable, "server shutting down")
		return false
	}
	for i, j := range jobs {
		j.ctx, j.reqID, j.wg, j.enqueued = ctx, reqID, &wg, time.Now()
		wg.Add(1)
		select {
		case s.jobs <- j:
		default:
			s.queueMu.RUnlock()
			wg.Done()
			s.rejected.Inc()
			if s.draining.Load() {
				s.drainRejected.Add(1)
			}
			s.log.Warn("queue full", "id", reqID, "shapes", len(jobs), "queued_at", i)
			// Retry-After paces well-behaved clients off the thundering
			// herd: roughly one queue-drain's worth of head start.
			w.Header().Set("Retry-After", "1")
			fail(http.StatusTooManyRequests, "queue full, retry later")
			return false
		}
	}
	s.queueMu.RUnlock()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	if ctx.Err() == nil {
		return true
	}
	s.timeouts.Inc()
	s.log.Warn("deadline exceeded", "id", reqID, "shapes", len(jobs),
		"timeout_ms", float64(timeout)/float64(time.Millisecond))
	fail(http.StatusGatewayTimeout, "deadline exceeded: "+ctx.Err().Error())
	return false
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleStats serves GET /stats. The wire format predates /metrics and
// is kept for compatibility; every value is derived from the registry
// instruments.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	_, retained, _ := s.traces.Stats()
	reply := StatsReply{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Requests:       uint64(s.requests.Value()),
		Rejected:       uint64(s.rejected.Value()),
		Timeouts:       uint64(s.timeouts.Value()),
		QueueDepth:     len(s.jobs),
		QueueCapacity:  s.cfg.QueueDepth,
		Workers:        s.cfg.Workers,
		Inflight:       int(s.inflight.Value()),
		TracesRetained: int(retained),
		P50MS:          s.reqDur.Quantile(0.5) * 1e3,
		P99MS:          s.reqDur.Quantile(0.99) * 1e3,
		Methods:        make(map[string]MethodStats),
	}
	s.mShapes.Each(func(values []string, c *telemetry.Counter) {
		name := values[0]
		count := uint64(c.Value())
		reply.ShapesDone += count
		solve := s.solveDur.With(name)
		ms := MethodStats{
			Count:        count,
			Errors:       uint64(s.mErrors.With(name).Value()),
			CacheHits:    uint64(s.mHits.With(name).Value()),
			Shots:        uint64(s.mShots.With(name).Value()),
			TotalSolveMS: solve.Sum() * 1e3,
		}
		if n := solve.Count(); n > 0 {
			ms.AvgSolveMS = ms.TotalSolveMS / float64(n)
		}
		reply.Methods[name] = ms
	})
	if s.cache != nil {
		cs := s.cache.Stats()
		reply.Cache = CacheStatsWire{
			Hits:       cs.Hits,
			Misses:     cs.Misses,
			Evictions:  cs.Evictions,
			Coalesced:  cs.Coalesced,
			Entries:    cs.Entries,
			Bytes:      cs.Bytes,
			MaxEntries: cs.MaxEntries,
		}
		if v := r.URL.Query().Get("classes"); v != "" {
			k, err := strconv.Atoi(v)
			if err != nil || k < 0 {
				writeError(w, http.StatusBadRequest, "classes must be a non-negative integer")
				return
			}
			reply.TopClasses = topClassesWire(s.cache.TopClasses(k))
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// maxSolveBody bounds the JSON body of a /fracture or /solve request.
const maxSolveBody = 256 << 20

// decodeBody decodes r's JSON body into v, reading at most limit
// bytes. Its error is the 400 message every endpoint sends.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		return errors.New("bad request body: " + err.Error())
	}
	return nil
}

// readRequest reads a /fracture body of at most maxSolveBody bytes into
// a pooled buffer and decodes it with the wire codec. Its error is the
// 400 message, worded as decodeBody words it.
func readRequest(w http.ResponseWriter, r *http.Request, req *Request) error {
	body := getWireBuf()
	defer body.free()
	err := body.readFrom(http.MaxBytesReader(w, r.Body, maxSolveBody), r.ContentLength)
	if err == nil {
		err = decodeRequest(body.b, req)
	}
	if err != nil {
		return errors.New("bad request body: " + err.Error())
	}
	return nil
}

// resolve is the one mapping from a request's method, params and
// options to solver inputs, shared by /fracture, /solve and
// /stats/classes: the method defaults to MBF and must be known, wire
// params overlay the server's, and options map field for field. The
// class key /stats/classes credits is therefore the key /fracture
// stored.
func (s *Server) resolve(method string, pw *ParamsWire, ow *OptionsWire) (maskfrac.Method, maskfrac.Params, *maskfrac.Options, error) {
	m := maskfrac.MethodMBF
	if method != "" {
		m = maskfrac.Method(method)
		if _, ok := engine.Lookup(method); !ok {
			return "", maskfrac.Params{}, nil, errors.New("unknown method " + method)
		}
	}
	params := s.cfg.Params
	if pw != nil {
		params = mergeParams(params, *pw)
	}
	var opt *maskfrac.Options
	if ow != nil {
		opt = &maskfrac.Options{
			MaxIterations:  ow.MaxIterations,
			ColoringOrder:  ow.ColoringOrder,
			SkipRefinement: ow.SkipRefinement,
		}
	}
	return m, params, opt, nil
}

// requestTimeout is a request's time budget: timeoutMS when positive,
// else the server default, clamped to MaxTimeout.
func (s *Server) requestTimeout(timeoutMS int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}

// mergeParams overlays non-zero wire fields on the base parameters.
func mergeParams(base maskfrac.Params, w ParamsWire) maskfrac.Params {
	if w.Sigma != 0 {
		base.Sigma = w.Sigma
	}
	if w.Gamma != 0 {
		base.Gamma = w.Gamma
	}
	if w.Rho != 0 {
		base.Rho = w.Rho
	}
	if w.Pitch != 0 {
		base.Pitch = w.Pitch
	}
	if w.Lmin != 0 {
		base.Lmin = w.Lmin
	}
	if w.Beta != 0 {
		base.Beta = w.Beta
	}
	if w.Eta != 0 {
		base.Eta = w.Eta
	}
	return base
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeResponse writes a /fracture reply with the wire codec, encoded
// in a pooled buffer: the bytes writeJSON writes, an unencodable
// reply's body empty as there.
func writeResponse(w http.ResponseWriter, resp *Response) {
	buf := getWireBuf()
	defer buf.free()
	b, _ := encodeResponse(buf.b, resp)
	buf.b = b
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorReply{Error: msg})
}
