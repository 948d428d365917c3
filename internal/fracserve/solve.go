package fracserve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"maskfrac"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/telemetry"
)

// handleSolve serves POST /solve: one multi-shape instance through the
// decompose–solve–stitch engine. The solve runs on the request
// goroutine, not through the /fracture shape queue, and takes its
// helpers from the server's pool, at most Workers−1 of them.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.solveReqs.Inc()
	reqID := requestID(r.Context())
	tctx, root, remote := s.traceStart(r, "fracd.solve")
	fail := func(code int, msg string) {
		s.finishTrace(root, remote, reqID, msg)
		writeError(w, code, msg)
	}

	var req SolveRequest
	if err := decodeBody(w, r, maxSolveBody, &req); err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Shapes) == 0 {
		fail(http.StatusBadRequest, "no shapes")
		return
	}
	if len(req.Shapes) > s.cfg.MaxShapes {
		fail(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d shapes exceeds the per-request limit of %d", len(req.Shapes), s.cfg.MaxShapes))
		return
	}
	method, params, opt, err := s.resolve(req.Method, req.Params, req.Options)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	root.Set("shapes", len(req.Shapes))
	root.Set("method", string(method))
	if opt == nil {
		opt = &maskfrac.Options{}
	}
	opt.Workers = req.Workers
	if opt.Workers <= 0 {
		opt.Workers = s.cfg.Workers
	}
	timeout := s.requestTimeout(req.TimeoutMS)
	ctx, cancel := context.WithTimeout(tctx, timeout)
	defer cancel()
	ctx = engine.WithPool(ctx, s.pool.Limit(opt.Workers-1))

	targets := make([]geom.Polygon, len(req.Shapes))
	for i, wire := range req.Shapes {
		target, err := maskio.PolygonFromWire(wire)
		if err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("shape %d: %s", i, err))
			return
		}
		targets[i] = target
	}
	prob, err := maskfrac.NewMultiProblem(targets, params)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}

	// the request goroutine solves, so like a /fracture worker it holds
	// a server token while it does
	held := s.pool.TryAcquire()
	res, err := prob.FractureCtx(ctx, method, opt)
	if held {
		s.pool.Release()
	}
	item := ItemResult{}
	if err != nil {
		item.Error = err.Error()
		s.record(method, &item)
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			s.timeouts.Inc()
			s.log.Warn("solve deadline exceeded", "id", reqID,
				"shapes", len(targets),
				"timeout_ms", float64(timeout)/float64(time.Millisecond))
			fail(http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
			return
		}
		fail(http.StatusUnprocessableEntity, err.Error())
		return
	}

	resp := SolveResponse{
		ShotCount: res.ShotCount(),
		LPairs:    res.LPairs,
		Regions:   res.Regions,
		FailOn:    res.FailOn,
		FailOff:   res.FailOff,
		Cost:      res.Cost,
		Feasible:  res.Feasible(),
		SolveMS:   float64(res.Runtime) / float64(time.Millisecond),
		EvalMS:    float64(res.EvalTime) / float64(time.Millisecond),
	}
	if len(res.LPairs) > 0 {
		resp.FlashCount = res.FlashCount()
	}
	if !req.OmitShots {
		resp.Shots = maskio.ShotsWire(res.Shots)
	}
	if req.IncludeQuality {
		epe := prob.EPE(res.Shots, 0)
		sl := prob.Slivers(res.Shots, 0)
		resp.Quality = &QualityWire{
			EPESamples: epe.Samples,
			EPEMeanNM:  epe.Mean,
			EPERMSNM:   epe.RMS,
			EPEMaxNM:   epe.Max,
			EPEP95NM:   epe.P95,
			Slivers:    sl.Slivers,
			MinShotDim: sl.MinDim,
			MeanAspect: sl.MeanAspect,
		}
	}

	s.regionsHist.Observe(float64(res.Regions))
	item.ShotCount = resp.ShotCount
	item.FailOn = resp.FailOn
	item.FailOff = resp.FailOff
	item.Cost = resp.Cost
	item.Feasible = resp.Feasible
	item.SolveMS = resp.SolveMS
	item.EvalMS = resp.EvalMS
	s.record(method, &item)
	if s.log.Enabled(telemetry.LevelDebug) {
		s.log.Debug("solve done",
			"id", reqID, "method", string(method), "shapes", len(targets),
			"regions", resp.Regions, "shots", resp.ShotCount,
			"solve_ms", resp.SolveMS)
	}
	resp.TraceID = root.TraceID()
	wire := s.finishTrace(root, remote, reqID, "")
	if req.ReturnTrace || remote {
		resp.Trace = wire
	}
	writeJSON(w, http.StatusOK, resp)
}
