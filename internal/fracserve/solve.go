package fracserve

import (
	"context"
	"fmt"
	"net/http"

	"maskfrac"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
)

// handleSolve serves POST /solve: one multi-shape instance through the
// decompose–solve–stitch engine. The handler validates the shapes and
// samples nothing. The instance is one job on the /fracture queue,
// which samples each region's grid as it solves it, and its solve
// takes helpers from the server's pool, at most Workers−1 of them.
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

	var res *maskfrac.Result
	var item ItemResult
	solve := func(ctx context.Context, it *ItemResult) {
		var err error
		res, err = prob.FractureCtx(ctx, method, opt)
		it.fill(res, err, req.OmitShots)
	}
	jobs := []*job{{method: method, item: &item, solve: solve}}
	if !s.submit(tctx, w, req.TimeoutMS, s.pool.Limit(opt.Workers-1), jobs, fail) {
		return
	}
	if item.Error != "" {
		fail(http.StatusUnprocessableEntity, item.Error)
		return
	}

	resp := SolveResponse{
		Shots:      item.Shots,
		LPairs:     item.LPairs,
		ShotCount:  item.ShotCount,
		FlashCount: item.FlashCount,
		Regions:    res.Regions,
		FailOn:     item.FailOn,
		FailOff:    item.FailOff,
		Cost:       item.Cost,
		Feasible:   item.Feasible,
		SolveMS:    item.SolveMS,
		EvalMS:     item.EvalMS,
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
	resp.TraceID = root.TraceID()
	wire := s.finishTrace(root, remote, reqID, "")
	if req.ReturnTrace || remote {
		resp.Trace = wire
	}
	writeJSON(w, http.StatusOK, resp)
}
