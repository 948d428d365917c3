package fracserve

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"maskfrac"
	"maskfrac/internal/maskio"
	"maskfrac/internal/stencil"
	"maskfrac/internal/writecost"
)

// defaultPlanTopK bounds the mined candidate set when a /plan request
// does not choose one.
const defaultPlanTopK = 256

// topClassesWire converts the cache's class records to the wire form
// the planner consumes, hex-encoding the canonical keys.
func topClassesWire(stats []maskfrac.ClassStat) []stencil.Class {
	out := make([]stencil.Class, len(stats))
	for i, st := range stats {
		out[i] = stencil.Class{
			Key:        hex.EncodeToString(st.Key[:]),
			Placements: int64(st.Placements),
			Shots:      st.Shots,
			Flashes:    st.Flashes,
			W:          st.W,
			H:          st.H,
		}
	}
	return out
}

// handleClassUses serves POST /stats/classes: credit congruence
// classes with placements a batch client resolved from its own memo.
// Without this, the stencil planner's placement counts measure wire
// requests instead of mask placements and undervalue heavily memoized
// classes.
func (s *Server) handleClassUses(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cache == nil {
		writeError(w, http.StatusBadRequest, "class statistics need the shape cache; the server runs with caching disabled")
		return
	}
	var req ClassUsesRequest
	if err := decodeBody(w, r, 8<<20, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	method, params, opt, err := s.resolve(req.Method, req.Params, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	reply := ClassUsesReply{}
	for i, cu := range req.Classes {
		target, err := maskio.PolygonFromWire(cu.Shape)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("class %d: %s", i, err))
			return
		}
		key, err := maskfrac.CacheKeyFor(target, params, method, opt)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("class %d: %s", i, err))
			return
		}
		if cu.Uses == 0 {
			continue
		}
		s.cache.AddClassUses(key, cu.Uses)
		reply.Credited++
	}
	writeJSON(w, http.StatusOK, reply)
}

// modelWith overlays a request's CP overrides on the default cost
// model.
func modelWith(cp *CPWire) writecost.Model {
	m := writecost.Default()
	if cp == nil {
		return m
	}
	if cp.ShotNS > 0 {
		m.ShotTime = time.Duration(cp.ShotNS * float64(time.Nanosecond))
	}
	if cp.FlashNS > 0 {
		m.CPFlashTime = time.Duration(cp.FlashNS * float64(time.Nanosecond))
	}
	if cp.Slots > 0 {
		m.CPSlots = cp.Slots
	}
	if cp.StencilW > 0 {
		m.CPStencilW = cp.StencilW
	}
	if cp.StencilH > 0 {
		m.CPStencilH = cp.StencilH
	}
	if cp.LoadOverheadMS != nil {
		m.CPLoadOverhead = time.Duration(*cp.LoadOverheadMS * float64(time.Millisecond))
	}
	return m
}

// handlePlan serves POST /plan: mine this node's cache class statistics
// and plan a character-projection stencil for them.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.planReqs.Inc()
	reqID := requestID(r.Context())
	tctx, root, remote := s.traceStart(r, "fracd.plan")
	fail := func(code int, msg string) {
		s.finishTrace(root, remote, reqID, msg)
		writeError(w, code, msg)
	}
	if s.cache == nil {
		fail(http.StatusBadRequest, "planning needs the shape cache; the server runs with caching disabled")
		return
	}
	var req PlanRequest
	if err := decodeBody(w, r, 1<<20, &req); err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	topK := req.TopK
	if topK <= 0 {
		topK = defaultPlanTopK
	}
	classes := topClassesWire(s.cache.TopClasses(topK))
	m := modelWith(req.CP)
	root.Set("candidates", len(classes))
	plan := stencil.PlanCP(tctx, classes, m)

	s.planSelected.Set(float64(len(plan.Characters)))
	s.planSavedSec.Set(plan.Report.NetSavedMS / 1e3)
	s.log.Info("stencil plan",
		"id", reqID, "candidates", len(classes),
		"characters", len(plan.Characters),
		"net_saved_ms", plan.Report.NetSavedMS)

	resp := PlanResponse{Plan: plan, TraceID: root.TraceID()}
	wire := s.finishTrace(root, remote, reqID, "")
	if req.ReturnTrace || remote {
		resp.Trace = wire
	}
	writeJSON(w, http.StatusOK, resp)
}
