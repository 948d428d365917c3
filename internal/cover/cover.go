// Package cover defines the model-based mask fracturing problem (paper
// §2): the sampled target shape, the pixel classification into Pon /
// Poff / don't-care band Px, the dose constraints, and an incremental
// evaluator used by all fracturing heuristics to score candidate shot
// configurations.
package cover

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync/atomic"

	"maskfrac/internal/ebeam"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// Params are the fracturing parameters. The paper's experiments use
// Gamma = 2 nm, Sigma = 6.25 nm, Pitch Δp = 1 nm, Rho = 0.5 and a tool
// minimum shot size Lmin.
type Params struct {
	Sigma float64 // forward-scattering blur σ (α) in nm
	Gamma float64 // CD tolerance γ in nm
	Rho   float64 // dose threshold ρ (fraction of full dose)
	Pitch float64 // pixel size Δp in nm
	Lmin  float64 // minimum shot width/height in nm

	// Optional two-Gaussian proximity model: backscatter range β and
	// backscatter ratio η. Eta = 0 (the default and the paper's model)
	// selects the single forward Gaussian.
	Beta float64
	Eta  float64
}

// DefaultParams returns the parameter set used in the paper's
// experimental section (§5) with Lmin = 8 nm.
func DefaultParams() Params {
	return Params{Sigma: 6.25, Gamma: 2, Rho: 0.5, Pitch: 1, Lmin: 8}
}

// Validate checks that the parameters are physically sensible.
func (p Params) Validate() error {
	switch {
	case p.Sigma <= 0:
		return fmt.Errorf("cover: sigma %g must be positive", p.Sigma)
	case p.Gamma < 0:
		return fmt.Errorf("cover: gamma %g must be non-negative", p.Gamma)
	case p.Rho <= 0 || p.Rho >= 1:
		return fmt.Errorf("cover: rho %g must be in (0,1)", p.Rho)
	case p.Pitch <= 0:
		return fmt.Errorf("cover: pitch %g must be positive", p.Pitch)
	case p.Lmin <= 0:
		return fmt.Errorf("cover: lmin %g must be positive", p.Lmin)
	case p.Eta < 0:
		return fmt.Errorf("cover: eta %g must be non-negative", p.Eta)
	case p.Eta > 0 && p.Beta <= 0:
		return fmt.Errorf("cover: beta %g must be positive when eta is set", p.Beta)
	}
	return nil
}

// model builds the proximity model the parameters describe.
func (p Params) model() *ebeam.Model {
	if p.Eta > 0 {
		return ebeam.NewDoubleGaussian(p.Sigma, p.Beta, p.Eta)
	}
	return ebeam.NewModel(p.Sigma)
}

// Class is the constraint class of a pixel.
type Class uint8

const (
	// Off pixels (Poff) lie outside the target, more than γ from its
	// boundary; they require Itot < ρ.
	Off Class = iota
	// On pixels (Pon) lie inside the target, more than γ from its
	// boundary; they require Itot ≥ ρ.
	On
	// Band pixels (Px) lie within γ of the boundary and carry no
	// constraint.
	Band
)

// Problem is a sampled fracturing instance for a target: one mask
// shape, or a group of shapes written together (a main feature plus its
// sub-resolution assist features).
type Problem struct {
	Target  geom.Polygon   // the primary mask shape (Targets[0])
	Targets []geom.Polygon // all shapes of the instance
	Params  Params
	Grid    raster.Grid  // sampling grid covering the targets plus 3σ margin
	Model   *ebeam.Model // proximity model
	Inside  *raster.Bitmap
	Class   []Class // per-pixel class, row-major over Grid

	nOn, nOff int

	// liveMargin is the dose margin around ρ inside which a constrained
	// pixel counts as live for sparse scoring; see newLiveMargin.
	liveMargin float64

	// arena is the instance's, shared by every problem sampled from it;
	// it recycles evaluator buffers across the NewEval/Close churn.
	arena *Arena
}

// NewProblem samples the target shape onto a grid with pitch
// params.Pitch, covering the shape's bounding box plus a 3σ+γ margin,
// and classifies every pixel into Pon, Poff or the band Px.
func NewProblem(target geom.Polygon, params Params) (*Problem, error) {
	return NewMultiProblem([]geom.Polygon{target}, params)
}

// NewMultiProblem samples a group of disjoint target shapes into one
// fracturing instance. The shapes share the dose budget: every interior
// pixel of any shape must reach ρ and every exterior pixel must stay
// below it, so assist features and their main feature are fractured
// together (as on a real mask, where SRAF satellites sit within the
// proximity range of the feature they assist). It is the Whole problem
// of the targets' Instance.
func NewMultiProblem(targets []geom.Polygon, params Params) (*Problem, error) {
	in, err := NewInstance(targets, params)
	if err != nil {
		return nil, err
	}
	return in.Whole(), nil
}

// newLiveMargin derives the live margin from the proximity model: the
// largest dose change one pitch of edge movement can make, which is the
// peak of a one-pitch slab E_c(0; −Δp/2, Δp/2) weighted and summed over
// the components, plus headroom. The headroom covers the float32 edge
// tables, which deviate from the float64 profiles by at most
// ProfileTol32 per sample, with a sixteenth of the step to spare, so
// every one-pitch move scores sparsely. The margin only decides how
// much scoring work is skipped, never a score: a row whose bound does
// not fit under it is scored densely.
func newLiveMargin(m *ebeam.Model, pitch float64) float64 {
	step := 0.0
	for c := 0; c < m.Components(); c++ {
		step += m.Weight(c) * m.EdgeComponent(c, 0, -pitch/2, pitch/2)
	}
	return step + step/16 + 2*ebeam.ProfileTol32
}

// ContainsPoint reports whether pt lies inside any target shape.
func (p *Problem) ContainsPoint(pt geom.Point) bool {
	for _, t := range p.Targets {
		if t.Contains(pt) {
			return true
		}
	}
	return false
}

// TargetBounds returns the bounding box of all target shapes.
func (p *Problem) TargetBounds() geom.Rect {
	box := geom.Rect{}
	for _, t := range p.Targets {
		box = box.Union(t.Bounds())
	}
	return box
}

// OnCount returns |Pon|.
func (p *Problem) OnCount() int { return p.nOn }

// OffCount returns |Poff| (within the sampled window).
func (p *Problem) OffCount() int { return p.nOff }

// MinSizeOK reports whether shot s satisfies the minimum shot size
// constraint (paper §2, condition 2), with a small numeric slack.
func (p *Problem) MinSizeOK(s geom.Rect) bool {
	const eps = 1e-9
	return s.W() >= p.Params.Lmin-eps && s.H() >= p.Params.Lmin-eps
}

// Legalize grows r symmetrically about its center to the minimum shot
// size on each axis where it falls short.
func (p *Problem) Legalize(r geom.Rect) geom.Rect {
	lmin := p.Params.Lmin
	if r.W() < lmin {
		c := (r.X0 + r.X1) / 2
		r.X0, r.X1 = c-lmin/2, c+lmin/2
	}
	if r.H() < lmin {
		c := (r.Y0 + r.Y1) / 2
		r.Y0, r.Y1 = c-lmin/2, c+lmin/2
	}
	return r
}

// InteriorFraction returns the fraction of shot s's area that lies
// inside the target shape, estimated on the sampling grid. Used by the
// paper's 80% test-shot and 90% merge criteria.
func (p *Problem) InteriorFraction(s geom.Rect) float64 {
	g := p.Grid
	i0, j0 := g.PixelOf(geom.Pt(s.X0, s.Y0))
	i1, j1 := g.PixelOf(geom.Pt(s.X1-1e-9, s.Y1-1e-9))
	i0, j0 = g.ClampX(i0), g.ClampY(j0)
	i1, j1 = g.ClampX(i1), g.ClampY(j1)
	total, in := 0, 0
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			c := g.Center(i, j)
			if !s.Contains(c) {
				continue
			}
			total++
			if p.Inside.Bits[g.Index(i, j)] {
				in++
			}
		}
	}
	if total == 0 {
		// shot smaller than a pixel: fall back to center point test
		if p.ContainsPoint(s.Center()) {
			return 1
		}
		return 0
	}
	return float64(in) / float64(total)
}

// Stats summarizes the constraint violations of a shot configuration.
type Stats struct {
	Cost    float64 // Σ |Itot − ρ| over failing pixels (paper Eq. 5)
	FailOn  int     // failing pixels in Pon (dose too low)
	FailOff int     // failing pixels in Poff (dose too high)
}

// Fail returns the total number of failing pixels.
func (s Stats) Fail() int { return s.FailOn + s.FailOff }

// Feasible reports whether no pixel fails.
func (s Stats) Feasible() bool { return s.Fail() == 0 }

// Evaluate computes the violation statistics of an arbitrary shot set
// from scratch: EvaluatePaired with no L-shot pairs.
func (p *Problem) Evaluate(shots []geom.Rect) Stats { return p.EvaluatePaired(shots, nil) }

// classifyDose is the one full-grid classification of a dose field
// against the pixel classes, behind Problem.EvaluatePaired, the
// evaluator's rebuild and its cross-check. It returns the Eq. 5
// statistics and, for each non-nil output, writes the failing bitmaps
// (failOn and failOff go together) and the bit-packed live bitmap.
func (p *Problem) classifyDose(dose []float64, failOn, failOff []bool, live []uint64) Stats {
	var st Stats
	rho, margin := p.Params.Rho, p.liveMargin
	clear(live)
	for k, c := range p.Class {
		v := dose[k]
		fOn := c == On && v < rho
		fOff := c == Off && v >= rho
		if fOn {
			st.FailOn++
			st.Cost += rho - v
		}
		if fOff {
			st.FailOff++
			st.Cost += v - rho
		}
		if failOn != nil {
			failOn[k], failOff[k] = fOn, fOff
		}
		if live != nil && isLive(c, v, rho, margin) {
			live[k>>6] |= 1 << (k & 63)
		}
	}
	return st
}

// isLive reports whether a pixel of class c at dose v is live: a
// constrained pixel that fails or whose dose lies within margin of ρ.
// Under a dose change smaller than margin no other pixel's Eq. 5 term
// can change (see Eval.scan).
func isLive(c Class, v, rho, margin float64) bool {
	switch c {
	case On:
		return v-rho <= margin
	case Off:
		return rho-v <= margin
	}
	return false
}

// classCost returns the Eq. 5 contribution of a pixel of class c at
// dose v: rho−v for a Pon pixel below ρ, v−rho for a Poff pixel at or
// above it, else 0. It takes no branch on the dose: negating a float
// difference is exact, so classSign[c]·(v−rho) is rho−v for Pon and
// v−rho for Poff, and the max keeps the failing side.
func classCost(c Class, v, rho float64) float64 {
	return max(classSign[c]*(v-rho), 0)
}

// classSign is the sign of a failing pixel's dose excess, by class.
var classSign = [...]float64{Off: 1, On: -1, Band: 0}

// Process-wide evaluator effort counters, aggregated across every Eval
// in the process; exported to /metrics by the fracturing service.
var (
	evalMutationsTotal     atomic.Int64
	evalPixelsMutatedTotal atomic.Int64
	evalPixelsScoredTotal  atomic.Int64
	mutationObserver       atomic.Value // holds a mutObs
)

// mutObs wraps the observer callback so atomic.Value can store a nil fn.
type mutObs struct{ fn func(pixels int) }

// EvalEffort is a snapshot of the process-wide evaluator effort
// counters: how many mutations all evaluators have committed, how many
// pixels their incremental scans visited while committing
// (PixelsMutated), and how many pixels had their cost term evaluated
// while scoring candidates via DeltaCost and UnpairDelta
// (PixelsScored: the live pixels of sparse rows and every pixel of
// dense rows).
type EvalEffort struct {
	Mutations     int64
	PixelsMutated int64
	PixelsScored  int64
}

// EvalCounters returns the current process-wide evaluator effort totals.
func EvalCounters() EvalEffort {
	return EvalEffort{
		Mutations:     evalMutationsTotal.Load(),
		PixelsMutated: evalPixelsMutatedTotal.Load(),
		PixelsScored:  evalPixelsScoredTotal.Load(),
	}
}

// SetMutationObserver installs fn to be called after every committed
// evaluator mutation, process-wide, with the number of pixels the
// commit scanned. The service layer uses it to feed a pixels-per-
// mutation histogram; fn must be safe for concurrent use (region
// solvers mutate evaluators from many goroutines) and cheap — it runs
// on the mutation hot path. A nil fn removes the observer.
func SetMutationObserver(fn func(pixels int)) {
	mutationObserver.Store(mutObs{fn})
}

// evalCheckEnv is the process default for the evaluator's cross-check
// mode: setting MASKFRAC_EVAL_CHECK to a non-empty value makes every
// new evaluator assert, after each mutation, that its maintained state
// matches both a scan of its own dose field and a from-scratch dose
// accumulation, and that every sparse score equals the dense one bit
// for bit. Meant for debugging — it turns every O(support) mutation
// back into O(grid + shots).
var evalCheckEnv = os.Getenv("MASKFRAC_EVAL_CHECK") != ""

// Eval tracks a shot configuration, its dose field and its violation
// state incrementally, so heuristics can score and commit local
// modifications without full re-simulation. The maintained invariant
// after every mutation is
//
//	stats, failOn, failOff, live  ==  classifyDose(Dose)
//
// with Cost equal up to float rounding (the running sum accumulates
// retire/restore pairs in mutation order; it is re-anchored to exactly
// zero whenever no pixel fails, and RecomputeStats re-anchors it on
// demand). FailOn/FailOff counts and the bitmaps are exact. The live
// bitmap marks the constrained pixels that fail or whose dose lies
// within the problem's live margin of ρ; scoring visits only those on
// rows where no pixel's dose can move by the margin (see fill).
//
// Shots may be merged pairwise into L-shots (Pair/Unpair, see
// lshot.go): a paired shot keeps its slot in Shots but the pair shares
// one dose — the overlap term is subtracted so the pair delivers the
// dose of a single L-aperture flash over the union, and it prices as
// one flash. Every mutator below stays incremental on paired shots.
//
// An Eval is not safe for concurrent use, with one exception: while
// nothing mutates it, any number of goroutines may score moves against
// it through Scorers of their own.
type Eval struct {
	P     *Problem
	Shots []geom.Rect
	Dose  *raster.Field

	stats   Stats
	failOn  *raster.Bitmap
	failOff *raster.Bitmap
	live    []uint64 // bit k set: pixel k is live; bit-packed, row-major

	// partner[i] is the index of the shot L-paired with shot i, −1 when
	// shot i is an unpaired rectangle. Symmetric: partner[partner[i]]
	// == i for every paired i. Maintained by every structural mutator.
	partner []int

	// Evals counts constraint evaluations (Stats queries and DeltaCost
	// scorings) since construction — the solver effort measure reported
	// by refinement telemetry. Since Stats became O(1), the pixel
	// counters below are the truthful cost measure.
	Evals int
	// Mutations counts committed configuration changes (Add, Remove,
	// SetShot, ApplyDelta) since construction.
	Mutations int
	// PixelsMutated counts pixels visited committing mutations;
	// PixelsScored counts pixels whose cost term was evaluated scoring
	// candidates: the live pixels of sparse rows, every pixel of dense
	// rows.
	PixelsMutated int64
	PixelsScored  int64

	check   bool      // cross-check mode, see SetCrossCheck
	own     Scorer    // behind DeltaCost; its scratch also serves the commits
	scorers []*Scorer // handed out by Scorers, &own first, reused across calls
	accBuf  []float32 // AccumulateShotBuf scratch, reused across resets
	arena   *Arena    // owner of the grids, bitmaps, edge tables and accBuf
}

// scratch is one goroutine's scan scratch.
type scratch struct {
	buf []float32 // the terms' 1D edge tables
	row []float64 // two window rows' dose change, one per scored move
}

// A Scorer scores moves against its Eval's current state with scan
// scratch and effort counters of its own, so several goroutines, each
// with its own Scorer, may score against one Eval at once while nothing
// mutates it. Every score of an Eval goes through a Scorer: DeltaCost
// and UnpairDelta through the Eval's own, which they fold at once. In cross-check mode a Scorer re-scores every move densely.
// Fold adds its counters into the Eval.
type Scorer struct {
	e     *Eval
	scr   scratch
	evals int
	px    int64
}

// Scorers returns n Scorers of e, the Eval's own first. The others are
// created on first use and reused by later calls; their scratch
// returns to the arena when e is closed. Call it from the goroutine
// that owns e, before fanning out.
func (e *Eval) Scorers(n int) []*Scorer {
	if len(e.scorers) == 0 {
		e.scorers = append(e.scorers, &e.own)
	}
	for len(e.scorers) < n {
		e.scorers = append(e.scorers, &Scorer{e: e})
	}
	return e.scorers[:n]
}

// DeltaCost is Eval.DeltaCost, counted in the Scorer's counters.
func (sc *Scorer) DeltaCost(i int, repl geom.Rect) float64 {
	e := sc.e
	if e.Shots[i] == repl {
		return 0
	}
	sc.evals++
	terms, n := e.moveTerms(i, repl)
	return sc.scoreTerms(terms[:n], geom.Rect{})[0]
}

// EdgeDeltas is Eval.EdgeDeltas, counted in the Scorer's counters.
func (sc *Scorer) EdgeDeltas(i int, side geom.Side, d float64) (delta [2]float64, legal [2]bool) {
	e := sc.e
	r := e.Shots[i]
	moves := [2]geom.Rect{r.MoveEdge(side, d), r.MoveEdge(side, -d)}
	for k, nr := range moves {
		legal[k] = e.LegalMove(i, nr)
	}
	if legal[0] && legal[1] && e.partner[i] < 0 && d != 0 {
		sc.evals += 2
		return sc.scoreTerms([]doseTerm{{moves[0], 1}, {r, -1}}, moves[1]), legal
	}
	for k, nr := range moves {
		if legal[k] {
			delta[k] = sc.DeltaCost(i, nr)
		}
	}
	return delta, legal
}

// scoreTerms is the scoring pass of the strip scanner (see fill): it
// returns the Eq. 5 cost change of the terms in delta[0] and, unless
// alt is the zero Rect, that of the second move alt in delta[1], and
// counts the pixels it scored. It reads the Eval without writing it,
// so Scorers of one Eval may run it at once.
func (sc *Scorer) scoreTerms(terms []doseTerm, alt geom.Rect) [2]float64 {
	e := sc.e
	var s strips
	e.fill(&s, terms, alt, &sc.scr)
	delta, px := e.score(&s, true, sc.scr.row)
	if e.check {
		sc.checkScore(&s, terms, alt, delta)
	}
	sc.px += px
	return delta
}

// checkScore is the cross-check of a sparse score: the scan's dense
// score, and for a two-move scan each move's own one-move scan, must
// give the same float64 bits. It refills the Scorer's tables.
func (sc *Scorer) checkScore(s *strips, terms []doseTerm, alt geom.Rect, delta [2]float64) {
	e := sc.e
	dense, _ := e.score(s, false, sc.scr.row)
	for m := 0; m < s.nm; m++ {
		if math.Float64bits(dense[m]) != math.Float64bits(delta[m]) {
			panic(fmt.Sprintf("cover: sparse score %v != dense score %v (move %d of %d)", delta[m], dense[m], m, s.nm))
		}
	}
	if s.nm == 1 {
		return
	}
	for m, lead := range [2]geom.Rect{terms[0].r, alt} {
		var one strips
		e.fill(&one, []doseTerm{{lead, terms[0].sign}, terms[1]}, geom.Rect{}, &sc.scr)
		if got, _ := e.score(&one, true, sc.scr.row); math.Float64bits(got[0]) != math.Float64bits(delta[m]) {
			panic(fmt.Sprintf("cover: two-move score %v != one-move score %v (move %d)", delta[m], got[0], m))
		}
	}
}

// Fold adds the Scorer's counters into its Eval's and the process-wide
// ones, then zeroes them. Call it after the goroutine that scored
// through the Scorer has joined.
func (sc *Scorer) Fold() {
	sc.e.Evals += sc.evals
	sc.e.PixelsScored += sc.px
	evalPixelsScoredTotal.Add(sc.px)
	sc.evals, sc.px = 0, 0
}

// NewEval returns an evaluator seeded with the given shots. The shot
// list is copied; building the initial dose field and violation state
// costs O(grid + Σ shot support boxes). The evaluator's buffers come
// from the instance's arena — call Close when done with the evaluator
// to return them for reuse.
func NewEval(p *Problem, shots []geom.Rect) *Eval {
	a := p.arena
	n := p.Grid.Len()
	e := &Eval{
		P:       p,
		Dose:    &raster.Field{Grid: p.Grid, V: a.getF64(n)},
		failOn:  &raster.Bitmap{Grid: p.Grid, Bits: a.getBits(n)},
		failOff: &raster.Bitmap{Grid: p.Grid, Bits: a.getBits(n)},
		live:    a.getU64((n + 63) / 64),
		check:   evalCheckEnv,
		arena:   a,
	}
	e.own.e = e
	e.Reset(shots)
	return e
}

// Close returns the evaluator's buffers (dose field, failing and live
// bitmaps, its own and its Scorers' edge tables, accumulation scratch)
// to the problem's arena and nils the fields, so a use-after-close
// panics instead of corrupting a successor evaluator's state. Close is idempotent; the
// shot list stays readable. Callers that keep the dose field (via
// e.Dose) must not Close until they are done with it.
func (e *Eval) Close() {
	if e.Dose == nil {
		return
	}
	if a := e.arena; a != nil {
		a.putF64(e.Dose.V)
		a.putBits(e.failOn.Bits)
		a.putBits(e.failOff.Bits)
		a.putU64(e.live)
		a.putF32(e.own.scr.buf)
		for _, sc := range e.scorers {
			if sc != &e.own {
				a.putF32(sc.scr.buf)
			}
		}
		a.putF32(e.accBuf)
	}
	e.Dose, e.failOn, e.failOff, e.live = nil, nil, nil, nil
	e.own, e.scorers, e.accBuf = Scorer{}, nil, nil
	e.arena = nil
}

// SetCrossCheck toggles the debug cross-check mode for this evaluator:
// when on, every mutation re-derives the violation state from the dose
// field and from a from-scratch accumulation, every score is also
// computed densely, and any mismatch panics. The MASKFRAC_EVAL_CHECK
// environment variable sets the process-wide default.
func (e *Eval) SetCrossCheck(on bool) { e.check = on }

// Reset replaces the entire configuration with the given shots and
// rebuilds dose and violation state from scratch: ResetPaired with no
// L-shot pairs, so it clears all pairing.
func (e *Eval) Reset(shots []geom.Rect) { e.ResetPaired(shots, nil) }

// RecomputeStats rebuilds the maintained violation state with a full
// O(grid) scan of the current dose field and returns it — the fallback
// the incremental bookkeeping replaces. It re-anchors the running cost
// (clearing accumulated float rounding); it exists for debugging,
// cross-checks and benchmark baselines. Solvers should call Stats.
func (e *Eval) RecomputeStats() Stats {
	e.stats = e.P.classifyDose(e.Dose.V, e.failOn.Bits, e.failOff.Bits, e.live)
	return e.stats
}

// Add appends shot s, accumulates its dose and folds the pixels of its
// support box into the maintained violation state: O(support box).
func (e *Eval) Add(s geom.Rect) {
	e.Shots = append(e.Shots, s)
	e.partner = append(e.partner, -1)
	e.apply([]doseTerm{{s, 1}})
	if e.check {
		e.crossCheck("Add")
	}
}

// Remove deletes shot i and subtracts its dose: O(support box).
//
// Index-stability contract: Remove swap-deletes. The last shot moves
// into slot i (shot order is NOT preserved), every other index is
// unchanged, and the list shrinks by one. Callers that hold shot
// indices across a removal must account for the swap: indices other
// than i and len-1 remain valid, the index len-1 becomes invalid, and
// the shot previously at len-1 is now at i. Removing in descending
// index order, or re-deriving indices after each removal, sidesteps the
// issue. UndoRemove is the exact inverse of the swap-delete, restoring
// the original order — but not L-shot pairing: removing a paired shot
// first splits its pair (restoring the overlap dose), and UndoRemove
// brings both shots back as independent rectangles.
func (e *Eval) Remove(i int) {
	if e.partner[i] >= 0 {
		e.Unpair(i)
	}
	s := e.Shots[i]
	last := len(e.Shots) - 1
	e.Shots[i] = e.Shots[last]
	e.Shots = e.Shots[:last]
	// swap-delete the partner slot too, redirecting the moved shot's
	// partner (never i itself: i was just unpaired)
	e.partner[i] = e.partner[last]
	e.partner = e.partner[:last]
	if i < last {
		if p := e.partner[i]; p >= 0 {
			e.partner[p] = i
		}
	}
	e.apply([]doseTerm{{s, -1}})
	if e.check {
		e.crossCheck("Remove")
	}
}

// UndoRemove reverts an immediately preceding Remove(i) that removed
// shot s, restoring the exact shot order the swap-delete disturbed:
// the displaced last shot returns to the tail and s returns to slot i.
// Cleanup loops use it to speculatively remove a shot, inspect the
// damage, and back out.
func (e *Eval) UndoRemove(i int, s geom.Rect) {
	if i < len(e.Shots) {
		displaced := e.Shots[i]
		e.SetShot(i, s)
		e.Add(displaced)
	} else {
		// the removed shot was the last one; no swap happened
		e.Add(s)
	}
}

// finishMutation updates the effort counters after a committed mutation
// that scanned px pixels and re-anchors the running cost when the
// configuration is feasible (the only state in which the exact cost is
// known without a scan: zero).
func (e *Eval) finishMutation(px int) {
	e.Mutations++
	e.PixelsMutated += int64(px)
	if e.stats.FailOn == 0 && e.stats.FailOff == 0 {
		e.stats.Cost = 0
	}
	evalMutationsTotal.Add(1)
	evalPixelsMutatedTotal.Add(int64(px))
	if obs, ok := mutationObserver.Load().(mutObs); ok && obs.fn != nil {
		obs.fn(px)
	}
}

// SetShot replaces shot i with s, updating dose and violation state by
// scanning only the strips around the moved edges: O(changed strips),
// the same region DeltaCost scores. When shot i is one arm of an
// L-shot and the move changes the pair's overlap rectangle, the
// overlap correction commits as a second scan, so moving an arm stays
// O(changed strips + overlap support).
func (e *Eval) SetShot(i int, s geom.Rect) {
	old := e.Shots[i]
	if old == s {
		return
	}
	e.Shots[i] = s
	e.apply([]doseTerm{{s, 1}, {old, -1}})
	if j := e.partner[i]; j >= 0 {
		if ot, n := overlapMove(old, s, e.Shots[j]); n > 0 {
			e.apply(ot[:n])
		}
	}
	if e.check {
		e.crossCheck("SetShot")
	}
}

// ApplyDelta commits the replacement of shot i by repl whose cost
// change was already scored as delta via DeltaCost(i, repl). It is the
// score-then-commit fast path for refinement loops: the commit scans
// the same strips the scoring pass did and nothing else. In cross-check
// mode the realized cost change is asserted against delta.
func (e *Eval) ApplyDelta(i int, repl geom.Rect, delta float64) {
	if !e.check {
		e.SetShot(i, repl)
		return
	}
	before := e.stats.Cost
	e.SetShot(i, repl)
	// the feasible case re-anchors cost to 0, legitimately breaking
	// before+delta == after; only assert while violations remain
	if e.stats.Fail() > 0 {
		got := e.stats.Cost - before
		if math.Abs(got-delta) > 1e-6+1e-9*math.Abs(before) {
			panic(fmt.Sprintf("cover: ApplyDelta mismatch: scored %g, realized %g", delta, got))
		}
	}
}

// Stats returns the maintained violation statistics in O(1).
func (e *Eval) Stats() Stats {
	e.Evals++
	return e.stats
}

// SnapshotShots returns a copy of the current shot list.
func (e *Eval) SnapshotShots() []geom.Rect {
	out := make([]geom.Rect, len(e.Shots))
	copy(out, e.Shots)
	return out
}

// crossCheck asserts the maintained state against two references. A
// scan of the evaluator's own dose field must reproduce the fail
// counts, the failing bitmaps and the live bitmap exactly, and the
// cost up to accumulated rounding. A from-scratch accumulation of the
// shot list must reproduce the dose field pixel by pixel within 1e-9
// and the cost within the same tolerance as above. Its fail counts are
// not compared: the maintained dose is a chain of adds and removes
// that cancels only to float64 rounding, so a pixel whose dose sits on
// ρ may classify differently in the two fields.
func (e *Eval) crossCheck(op string) {
	p := e.P
	a := e.arena
	n := p.Grid.Len()
	failOn, failOff, live := a.getBits(n), a.getBits(n), a.getU64(len(e.live))
	own := p.classifyDose(e.Dose.V, failOn, failOff, live)
	for k := range failOn {
		bit := uint64(1) << (k & 63)
		if failOn[k] != e.failOn.Bits[k] || failOff[k] != e.failOff.Bits[k] ||
			live[k>>6]&bit != e.live[k>>6]&bit {
			panic(fmt.Sprintf("cover: %s cross-check: bitmap mismatch at pixel %d", op, k))
		}
	}
	a.putBits(failOn)
	a.putBits(failOff)
	a.putU64(live)
	const tol = 1e-6
	if own.FailOn != e.stats.FailOn || own.FailOff != e.stats.FailOff ||
		math.Abs(own.Cost-e.stats.Cost) > tol {
		panic(fmt.Sprintf("cover: %s cross-check: maintained %+v != dose scan %+v", op, e.stats, own))
	}
	fresh := p.pairedDose(e.Shots, e.Pairs())
	for k, v := range fresh {
		if math.Abs(v-e.Dose.V[k]) > 1e-9 {
			panic(fmt.Sprintf("cover: %s cross-check: dose %v at pixel %d != from-scratch %v",
				op, e.Dose.V[k], k, v))
		}
	}
	scratch := p.classifyDose(fresh, nil, nil, nil)
	a.putF64(fresh)
	if math.Abs(scratch.Cost-e.stats.Cost) > tol {
		panic(fmt.Sprintf("cover: %s cross-check: maintained cost %v != from-scratch %v",
			op, e.stats.Cost, scratch.Cost))
	}
}

// DeltaCost returns the change in Eq. 5 cost if shot i were replaced by
// repl, without modifying the evaluator. The computation is local: only
// pixels whose dose changes (the union of the strips around moved edges)
// are considered, and on rows where the dose change stays below the
// live margin only the live pixels are scored (see fill), which makes
// candidate scoring during shot refinement cheap (paper §4.1). Commit
// the move afterwards with ApplyDelta.
//
// For a paired shot whose replacement changes the L-shot's overlap
// rectangle, the shot terms and the overlap correction are scored in a
// single pass: the Eq. 5 pixel cost is piecewise linear with a
// breakpoint at ρ, so scoring the dose terms separately and summing
// would be wrong wherever their strips overlap.
func (e *Eval) DeltaCost(i int, repl geom.Rect) float64 {
	delta := e.own.DeltaCost(i, repl)
	e.own.Fold()
	return delta
}

// EdgeDeltas scores the ±d pair of moves of one shot edge — edge side
// of shot i moved by +d and by −d — without modifying the evaluator.
// delta[0] and delta[1] are the cost changes DeltaCost returns for the
// +d and the −d move, bit for bit, and legal[k] reports whether
// LegalMove accepts move k; a rejected move is not scored and its
// delta is 0. When both moves are legal and shot i is unpaired, one
// scan scores both (see fill); a paired arm, or an edge with one legal
// direction, takes a one-move scan per legal move.
func (e *Eval) EdgeDeltas(i int, side geom.Side, d float64) (delta [2]float64, legal [2]bool) {
	delta, legal = e.own.EdgeDeltas(i, side, d)
	e.own.Fold()
	return delta, legal
}

// scoreOwn scores terms through the Eval's own Scorer and folds its
// counters at once.
func (e *Eval) scoreOwn(terms []doseTerm) float64 {
	delta := e.own.scoreTerms(terms, geom.Rect{})
	e.own.Fold()
	return delta[0]
}

// moveTerms returns the dose terms of replacing shot i by repl: the new
// and the old rectangle and, for a paired shot whose overlap changes,
// the overlap correction.
func (e *Eval) moveTerms(i int, repl geom.Rect) (terms [maxTerms]doseTerm, n int) {
	old := e.Shots[i]
	terms[0], terms[1] = doseTerm{repl, 1}, doseTerm{old, -1}
	n = 2
	if j := e.partner[i]; j >= 0 {
		ot, no := overlapMove(old, repl, e.Shots[j])
		copy(terms[2:], ot[:no])
		n += no
	}
	return terms, n
}

// doseTerm is one signed rectangle term of a dose change.
type doseTerm struct {
	r    geom.Rect
	sign float64
}

// maxTerms bounds a scan: a paired shot move changes at most four dose
// terms (new shot, old shot, old overlap, new overlap).
const maxTerms = 4

// skipSlack is the rounding allowance of the sparse row test: a row
// skips its non-live pixels only when its bound on |dI| is below the
// live margin by more than this. The bound, each dI and each dose
// comparison carry float64 rounding errors near 1e-15, many orders of
// magnitude below it.
const skipSlack = 1e-9

// apply is the commit pass of the strip scanner (see fill): it writes
// the dose change of the terms and, per constrained pixel, replaces the
// cost term, fail bit and live bit against the new dose; band pixels
// still get their dose update. It uses the scratch of the Eval's own
// Scorer.
func (e *Eval) apply(terms []doseTerm) {
	var s strips
	e.fill(&s, terms, geom.Rect{}, &e.own.scr)
	e.commit(&s)
}

// strips is one scan's pixel window and its per-slot, per-component 1D
// edge tables. Slots 0 to nt−1 hold the terms of the scan's first
// move; a second move of the same shot (nm = 2, nt = 2) shares every
// term but the first, so its own first term sits in slot 2. Move m's
// first term is in slot 2m, and slot 1 is the shared old rectangle.
type strips struct {
	wi0, wj0, nx, ny int
	nt, nc, nm, ns   int // terms of a move, components, moves, table slots
	ex, ey           [maxTerms][2][]float32
	sw               [maxTerms][2]float64 // slot sign × component weight
}

// fill starts a scan of the evaluator's one strip scanner, behind every
// incremental mutator and scorer. A scan visits the pixels whose dose
// the summed terms change; after fill, a Scorer's scoreTerms scores
// their Eq. 5 cost change or apply commits it.
//
// The pixel window is the terms' union support box, narrowed for a move
// — one positive and one negative term — to the strips around the edges
// that differ: beyond them the two rectangles' edge profiles clamp to
// identical values, so their products cancel to exactly zero. The edge
// tables are filled over the window only; the strip kernels' exactness
// contract makes each sample independent of the window it is filled
// through.
//
// A scan may score two moves of one unpaired shot at once: alt, unless
// it is the zero Rect, is a second replacement of the rectangle the
// two-term move terms replaces (EdgeDeltas passes an edge's +d and −d
// moves). Both moves share the old rectangle's tables and the
// unchanged axis's table, filled once, and the window is the union of
// the two moves' windows. That adds only exact zeros to either move:
// beyond a move's own strip both of its rectangles' profiles clamp to
// the same float32 values, so its two products cancel exactly, and
// both the sparse and the dense pass skip a zero dose change. Each
// move's score therefore has the float64 bits of its one-move scan.
//
// For every pixel a move's first two terms are summed within each
// Gaussian component before the components are added, so a move adds
// (a0−b0)+(a1−b1); further terms are added one at a time after them,
// and a single term is paired with a zero-weight copy of itself. Under
// the single-Gaussian model a one-term commit therefore writes
// bit-for-bit the dose ebeam's separable accumulation writes, so the
// dose of a sequence of Adds equals a from-scratch Reset's exactly.
// Dose values exactly at ρ are common on an aligned grid; a reordered
// sum could flip such a pixel's class and with it a solver decision.
//
// Scoring is sparse and exact. Each row gets an upper bound on each
// move's |dI| from the x tables (see rowBound). When every bound is
// below the live margin, only the row's live pixels are scored, each
// with the products and sums of the dense pass in the same order. Any
// other pixel of the row is either in the band, which the dense pass
// skips too, or constrained and passing by more than the margin, so
// its dose stays on the same side of ρ: rounding is monotone, and ρ is
// a float64. Its Eq. 5 term is therefore exactly zero before and after
// the move, and adding zero leaves the sum bit-identical. Rows with a
// larger bound, and every commit, take the dense pass. Either way a
// pixel's old products and old Eq. 5 term are computed once for both
// moves.
//
// fill sets the scan window for terms and fills their edge tables,
// held in scr, over it: O(W+H) float32 strip-kernel fills up front
// make the area pass pure widening multiply-adds (float32 loads,
// float64 accumulation).
// The old term and a second move's first term share the first term's
// table on an axis where their rectangles have the same edges, as a
// move's unchanged axis does; the kernels are deterministic, so a
// shared table holds the very values a second fill would.
func (e *Eval) fill(s *strips, terms []doseTerm, alt geom.Rect, scr *scratch) {
	if len(terms) == 0 || len(terms) > maxTerms {
		panic("cover: scan: need 1 to 4 terms")
	}
	g := e.P.Grid
	model := e.P.Model
	nt, nm := len(terms), 1
	var slots [maxTerms]doseTerm
	copy(slots[:], terms)
	wi0, wj0, wi1, wj1 := e.window(terms)
	if alt != (geom.Rect{}) {
		if nt != 2 {
			panic("cover: scan: a second move needs a two-term move")
		}
		nm = 2
		slots[2] = doseTerm{alt, terms[0].sign}
		// the second move's own window: the old rectangle against alt
		ai0, aj0, ai1, aj1 := e.window(slots[1:3])
		switch {
		case ai1 < ai0 || aj1 < aj0:
			// the second move changes no pixel of the grid
		case wi1 < wi0 || wj1 < wj0:
			wi0, wj0, wi1, wj1 = ai0, aj0, ai1, aj1
		default:
			wi0, wj0 = min(wi0, ai0), min(wj0, aj0)
			wi1, wj1 = max(wi1, ai1), max(wj1, aj1)
		}
	}
	nx, ny := wi1-wi0+1, wj1-wj0+1
	if nx <= 0 || ny <= 0 {
		nx, ny = 0, 0
	}
	nc := model.Components()
	ns := max(nt, 2) + nm - 1
	*s = strips{wi0: wi0, wj0: wj0, nx: nx, ny: ny, nt: nt, nc: nc, nm: nm, ns: ns}

	need := ns * nc * (nx + ny)
	if cap(scr.buf) < need {
		// size the tables for the largest scan the grid allows at once,
		// so a wider scan never regrows them through the arena
		size := maxTerms * nc * (g.W + g.H)
		if a := e.arena; a != nil {
			a.putF32(scr.buf)
			scr.buf = a.getF32(size)
		} else {
			scr.buf = make([]float32, size)
		}
	}
	if cap(scr.row) < 2*g.W {
		scr.row = make([]float64, 2*g.W)
	}
	buf := scr.buf[:need]
	for t, term := range slots[:nt+nm-1] {
		r := term.r
		shares := t == 1 || t == 2 && nm == 2
		sameX := shares && r.X0 == terms[0].r.X0 && r.X1 == terms[0].r.X1
		sameY := shares && r.Y0 == terms[0].r.Y0 && r.Y1 == terms[0].r.Y1
		for c := 0; c < nc; c++ {
			if sameX {
				s.ex[t][c] = s.ex[0][c]
			} else {
				s.ex[t][c], buf = buf[:nx:nx], buf[nx:]
				model.EdgeProfiles32(s.ex[t][c], c, g.X0, g.Pitch, wi0, r.X0, r.X1)
			}
			if sameY {
				s.ey[t][c] = s.ey[0][c]
			} else {
				s.ey[t][c], buf = buf[:ny:ny], buf[ny:]
				model.EdgeProfiles32(s.ey[t][c], c, g.Y0, g.Pitch, wj0, r.Y0, r.Y1)
			}
			s.sw[t][c] = term.sign * model.Weight(c)
		}
	}
	if nt == 1 {
		s.ex[1], s.ey[1] = s.ex[0], s.ey[0] // the zero-weight copy: sw[1] stays 0
	}
}

// window returns the inclusive pixel window of a scan of terms (empty
// when wi1 < wi0 or wj1 < wj0): the terms' union support box, narrowed
// for a two-term move to the strips around the edges that differ.
func (e *Eval) window(terms []doseTerm) (wi0, wj0, wi1, wj1 int) {
	g := e.P.Grid
	sup := e.P.Model.Support()
	ubox := terms[0].r
	for _, t := range terms[1:] {
		ubox = ubox.Union(t.r)
	}
	ubox = ubox.Inset(-sup)
	wi0, wj0 = g.PixelOf(geom.Pt(ubox.X0, ubox.Y0))
	wi1, wj1 = g.PixelOf(geom.Pt(ubox.X1, ubox.Y1))
	wi0, wj0 = g.ClampX(wi0), g.ClampY(wj0)
	wi1, wj1 = g.ClampX(wi1), g.ClampY(wj1)
	if len(terms) != 2 || terms[0].sign != -terms[1].sign {
		return wi0, wj0, wi1, wj1
	}
	a, b := terms[0].r, terms[1].r
	xLo, xHi, xChanged := changedInterval(b.X0, b.X1, a.X0, a.X1, sup)
	yLo, yHi, yChanged := changedInterval(b.Y0, b.Y1, a.Y0, a.Y1, sup)
	switch {
	case xChanged && yChanged:
		// general move: the whole union support box
	case xChanged:
		// vertical strip only
		i0, _ := g.PixelOf(geom.Pt(xLo, 0))
		i1, _ := g.PixelOf(geom.Pt(xHi, 0))
		wi0, wi1 = max(g.ClampX(i0), wi0), min(g.ClampX(i1), wi1)
	case yChanged:
		// horizontal strip only
		_, j0 := g.PixelOf(geom.Pt(0, yLo))
		_, j1 := g.PixelOf(geom.Pt(0, yHi))
		wj0, wj1 = max(g.ClampY(j0), wj0), min(g.ClampY(j1), wj1)
	default:
		wi1 = wi0 - 1 // identical rectangles: nothing changes
	}
	return wi0, wj0, wi1, wj1
}

// rowWeights sets w[t][c] to slot t's component-c factor for window row
// jo: its sign times the component weight times its y table entry.
func (s *strips) rowWeights(jo int, w *[maxTerms][2]float64) {
	for t := 0; t < s.ns; t++ {
		for c := 0; c < s.nc; c++ {
			w[t][c] = s.sw[t][c] * float64(s.ey[t][c][jo])
		}
	}
}

// denseRow writes move m's summed dose change of every pixel of a
// window row into row: one tight pass per component and extra term,
// the sums in the order fill's doc comment gives.
func (s *strips) denseRow(m int, row []float64, w *[maxTerms][2]float64) {
	for c := 0; c < s.nc; c++ {
		a, b := s.ex[2*m][c][:len(row)], s.ex[1][c][:len(row)]
		wa, wb := w[2*m][c], w[1][c]
		if c == 0 {
			for io := range row {
				row[io] = float64(a[io])*wa + float64(b[io])*wb
			}
		} else {
			for io := range row {
				row[io] += float64(a[io])*wa + float64(b[io])*wb
			}
		}
	}
	for t := 2; t < s.nt; t++ {
		for c := 0; c < s.nc; c++ {
			x, wx := s.ex[t][c][:len(row)], w[t][c]
			for io := range row {
				row[io] += float64(x[io]) * wx
			}
		}
	}
}

// pixelDIRest adds the second component and the further terms to the
// first-component sums of score's live-bit walk, d0 and d1, for window
// column io. (A model has one or two components.)
func (s *strips) pixelDIRest(io int, w *[maxTerms][2]float64, d0, d1 float64) (float64, float64) {
	if s.nc == 2 {
		b := float64(s.ex[1][1][io]) * w[1][1]
		d0 += float64(s.ex[0][1][io])*w[0][1] + b
		if s.nm == 2 {
			d1 += float64(s.ex[2][1][io])*w[2][1] + b
		}
	}
	for t := 2; t < s.nt; t++ {
		for c := 0; c < s.nc; c++ {
			d0 += float64(s.ex[t][c][io]) * w[t][c]
		}
	}
	return d0, d1
}

// rowBound holds the x-table maxima a row's bound on each move's |dI|
// is built from, each taken once over the window: per component
// max|a−b| of each move's first-term table a against the shared table
// b, max|b|, and max|x| of every further term's table x.
type rowBound struct {
	ab [2][2]float64 // [move][component]
	b  [2]float64
	x  [maxTerms][2]float64
}

// bound returns the window's rowBound. A maximum that of would only
// multiply by an exact zero is left at zero: max|a−b| when a is b's
// shared table, and max|b| when every move's first term shares the y
// table of b with the opposite sign, so that wa+wb cancels on every
// row.
func (s *strips) bound() (rb rowBound) {
	for c := 0; c < s.nc; c++ {
		b := s.ex[1][c]
		cancels := true
		for m := 0; m < s.nm; m++ {
			a := s.ex[2*m][c][:len(b)]
			cancels = cancels && sameTable(s.ey[2*m][c], s.ey[1][c]) && s.sw[2*m][c] == -s.sw[1][c]
			if sameTable(a, b) {
				continue
			}
			for io := range a {
				rb.ab[m][c] = max(rb.ab[m][c], math.Abs(float64(a[io])-float64(b[io])))
			}
		}
		if !cancels {
			for _, v := range b {
				rb.b[c] = max(rb.b[c], math.Abs(float64(v)))
			}
		}
		for t := 2; t < s.nt; t++ {
			for _, x := range s.ex[t][c] {
				rb.x[t][c] = max(rb.x[t][c], math.Abs(float64(x)))
			}
		}
	}
	return rb
}

// sameTable reports whether two edge tables are one shared table.
func sameTable(a, b []float32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// of returns the bound on move m's |dI| over a row with weights w. Per
// component a·wa + b·wb = (a−b)·wa + b·(wa+wb), so the first two terms
// contribute at most max|a−b|·|wa| + max|b|·|wa+wb|, and each further
// term at most max|x|·|w|. A move's unchanged axis makes one of the
// two parts vanish: a−b on a horizontal strip, wa+wb on a vertical one.
func (rb *rowBound) of(s *strips, m int, w *[maxTerms][2]float64) float64 {
	u := 0.0
	for c := 0; c < s.nc; c++ {
		wa := w[2*m][c]
		u += rb.ab[m][c]*math.Abs(wa) + rb.b[c]*math.Abs(wa+w[1][c])
		for t := 2; t < s.nt; t++ {
			u += rb.x[t][c] * math.Abs(w[t][c])
		}
	}
	return u
}

// window returns a bound on move m's |dI| over every row of the
// window: of's sum with each weight factor replaced by its maximum
// over the rows, taken from the y tables. Products and sums of
// non-negative terms round monotonically, so it is at least of's value
// on every row; when it is below the live margin, every row is sparse.
func (rb *rowBound) window(s *strips, m int) float64 {
	a := 2 * m
	u := 0.0
	for c := 0; c < s.nc; c++ {
		wa, wab := 0.0, 0.0
		ya := s.ey[a][c]
		switch {
		case rb.b[c] != 0:
			yb := s.ey[1][c][:len(ya)]
			for jo := range ya {
				x := s.sw[a][c] * float64(ya[jo])
				wa = max(wa, math.Abs(x))
				wab = max(wab, math.Abs(x+s.sw[1][c]*float64(yb[jo])))
			}
		case rb.ab[m][c] != 0:
			wa = math.Abs(s.sw[a][c]) * maxAbs(ya)
		}
		u += rb.ab[m][c]*wa + rb.b[c]*wab
		for t := 2; t < s.nt; t++ {
			u += rb.x[t][c] * (math.Abs(s.sw[t][c]) * maxAbs(s.ey[t][c]))
		}
	}
	return u
}

// maxAbs returns the largest magnitude in an edge table; |w·y| is
// |w|·|y| exactly, so |w|·maxAbs(t) is the largest |w·y| over t. The
// bits of non-negative floats order as their values do.
func maxAbs(t []float32) float64 {
	var m uint32
	for _, y := range t {
		m = max(m, math.Float32bits(y)&^(1<<31))
	}
	return float64(math.Float32frombits(m))
}

// score returns the Eq. 5 cost change of each of the scan's moves and
// the number of pixel terms it evaluated, one per pixel per move, using
// rows as the dense rows' scratch, one row per move. With sparse set,
// a row whose bound is below the live margin for every move walks only
// its live bits (see fill); every other row is scored densely,
// skipping the band. When the window's bound (rowBound.window) is
// below the margin for every move, every row is sparse without a row
// bound, and a row takes its weights only once it finds a live bit.
func (e *Eval) score(s *strips, sparse bool, rows []float64) (delta [2]float64, px int64) {
	var d0, d1 float64
	p := e.P
	g := p.Grid
	rho := p.Params.Rho
	reach := p.liveMargin - skipSlack
	nm := s.nm
	var rb rowBound
	allSparse := false
	if sparse {
		rb = s.bound()
		allSparse = true
		for m := 0; m < nm && allSparse; m++ {
			allSparse = rb.window(s, m) < reach
		}
	}
	// a live pixel's dose change per move sums denseRow's products in
	// its order: the first component here, each component's shared
	// slot-1 product taken once for both moves, the rest in pixelDIRest
	a0, b0, a1 := s.ex[0][0], s.ex[1][0], s.ex[2*nm-2][0]
	rest := s.nc == 2 || s.nt > 2
	var w [maxTerms][2]float64
	for jo := 0; jo < s.ny; jo++ {
		base := (s.wj0+jo)*g.W + s.wi0
		class := p.Class[base : base+s.nx]
		dose := e.Dose.V[base : base+s.nx]
		weighed, live := !allSparse, allSparse
		if weighed {
			s.rowWeights(jo, &w)
			live = sparse
			for m := 0; m < nm && live; m++ {
				live = rb.of(s, m, &w) < reach
			}
		}
		if live {
			end := base + s.nx
			for wd := base >> 6; wd<<6 < end; wd++ {
				word := e.live[wd]
				if wd == base>>6 {
					word &= ^uint64(0) << (base & 63)
				}
				if (wd+1)<<6 > end {
					word &= ^uint64(0) >> (64 - end&63)
				}
				for word != 0 {
					if !weighed {
						s.rowWeights(jo, &w)
						weighed = true
					}
					io := wd<<6 + bits.TrailingZeros64(word) - base
					word &= word - 1
					px += int64(nm)
					ob := float64(b0[io]) * w[1][0]
					dI0, dI1 := float64(a0[io])*w[0][0]+ob, 0.0
					if nm == 2 {
						dI1 = float64(a1[io])*w[2][0] + ob
					}
					if rest {
						dI0, dI1 = s.pixelDIRest(io, &w, dI0, dI1)
					}
					if dI0 != 0 || dI1 != 0 {
						d0, d1 = pixelDelta(class[io], dose[io], rho, dI0, dI1, d0, d1)
					}
				}
			}
			continue
		}
		if !weighed {
			s.rowWeights(jo, &w)
		}
		row0, row1 := rows[:s.nx], rows[s.nx:2*s.nx]
		s.denseRow(0, row0, &w)
		if nm == 2 {
			s.denseRow(1, row1, &w)
		} else {
			clear(row1)
		}
		px += int64(nm * s.nx)
		for io, cls := range class {
			if dI0, dI1 := row0[io], row1[io]; cls != Band && (dI0 != 0 || dI1 != 0) {
				d0, d1 = pixelDelta(cls, dose[io], rho, dI0, dI1, d0, d1)
			}
		}
	}
	return [2]float64{d0, d1}, px
}

// pixelDelta adds to d0 and d1 the Eq. 5 change of a pixel of class cls
// at dose v under each move's nonzero dose change; a zero change adds
// nothing, so d1 stays as it is in a one-move scan. The old term is
// taken once.
func pixelDelta(cls Class, v, rho, dI0, dI1, d0, d1 float64) (float64, float64) {
	old := classCost(cls, v, rho)
	if dI0 != 0 {
		d0 += classCost(cls, v+dI0, rho) - old
	}
	if dI1 != 0 {
		d1 += classCost(cls, v+dI1, rho) - old
	}
	return d0, d1
}

// commit writes the scan's dose change into the dose field and, per
// constrained pixel, retires the old cost term and fail bit and
// restores them against the new dose, then sets the live bit from it.
// A pixel that is live neither before nor after the change fails
// neither time (a failing pixel is live), so it keeps its bits and
// adds no cost term, and only its dose is written.
func (e *Eval) commit(s *strips) {
	p := e.P
	g := p.Grid
	rho, margin := p.Params.Rho, p.liveMargin
	row := e.own.scr.row[:s.nx]
	var w [maxTerms][2]float64
	for jo := 0; jo < s.ny; jo++ {
		s.rowWeights(jo, &w)
		s.denseRow(0, row, &w)
		base := (s.wj0+jo)*g.W + s.wi0
		class := p.Class[base : base+s.nx]
		dose := e.Dose.V[base : base+s.nx]
		for io, dI := range row {
			if dI == 0 {
				continue
			}
			k := base + io
			v := dose[io]
			nv := v + dI
			dose[io] = nv
			if e.live[k>>6]&(1<<(k&63)) == 0 && !isLive(class[io], nv, rho, margin) {
				continue
			}
			switch class[io] {
			case On:
				if e.failOn.Bits[k] {
					e.failOn.Bits[k] = false
					e.stats.FailOn--
					e.stats.Cost -= rho - v
				}
				if nv < rho {
					e.failOn.Bits[k] = true
					e.stats.FailOn++
					e.stats.Cost += rho - nv
				}
			case Off:
				if e.failOff.Bits[k] {
					e.failOff.Bits[k] = false
					e.stats.FailOff--
					e.stats.Cost -= v - rho
				}
				if nv >= rho {
					e.failOff.Bits[k] = true
					e.stats.FailOff++
					e.stats.Cost += nv - rho
				}
			}
			if isLive(class[io], nv, rho, margin) {
				e.live[k>>6] |= 1 << (k & 63)
			} else {
				e.live[k>>6] &^= 1 << (k & 63)
			}
		}
	}
	e.finishMutation(s.nx * s.ny)
}

// changedInterval returns the coordinate interval over which the 1D
// edge profile of [a0,a1] differs from that of [b0,b1], padded by the
// kernel support.
func changedInterval(a0, a1, b0, b1, sup float64) (lo, hi float64, changed bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	if a0 != b0 {
		lo = math.Min(a0, b0) - sup
		hi = math.Max(a0, b0) + sup
	}
	if a1 != b1 {
		lo = math.Min(lo, math.Min(a1, b1)-sup)
		hi = math.Max(hi, math.Max(a1, b1)+sup)
	}
	return lo, hi, hi >= lo
}

// FailingBitmaps returns bitmaps of the failing Pon and Poff pixels of
// the current configuration, used by the shot addition/removal steps
// (paper §4.3–4.4). The bitmaps are the evaluator's live maintained
// state, returned in O(1): they are shared views that the next mutation
// updates in place, so callers must treat them as read-only and must
// not hold them across mutations (re-fetch instead — the call is free).
func (e *Eval) FailingBitmaps() (failOn, failOff *raster.Bitmap) {
	return e.failOn, e.failOff
}
