package cover

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"maskfrac/internal/ebeam"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// Instance is a validated group of target shapes with its parameters
// and proximity model: a fracturing instance before any grid is
// sampled. Whole samples all of it on one grid, the union grid; Sample
// samples a subset of its targets on a grid of their own.
type Instance struct {
	Targets []geom.Polygon // cloned at construction
	Params  Params
	Model   *ebeam.Model // shared read-only by every problem sampled from it

	whole func() *Problem
	// arena holds the evaluator buffers of every problem sampled from
	// the instance and of EvaluateParts, and is freed with it.
	arena Arena
}

// NewInstance validates the parameters and the targets and clones the
// targets. It samples nothing.
func NewInstance(targets []geom.Polygon, params Params) (*Instance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("cover: no target shapes")
	}
	cloned := make([]geom.Polygon, len(targets))
	for i, t := range targets {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("cover: invalid target %d: %w", i, err)
		}
		cloned[i] = t.Clone()
	}
	in := &Instance{Targets: cloned, Params: params, Model: params.model()}
	in.whole = sync.OnceValue(func() *Problem { return in.sample(in.Targets) })
	return in, nil
}

// Whole returns the problem of all the instance's targets on the union
// grid, which covers their bounding box plus the sampling margin. The
// grid is sampled on the first call and kept.
func (in *Instance) Whole() *Problem { return in.whole() }

// Sample returns the problem of the given targets (indices into
// Targets) alone, exactly as NewMultiProblem builds it for those
// shapes: same grid placement, same pixel classes. Solving it therefore
// gives byte-identical shots to solving the subset on its own. The
// problem shares the instance's read-only proximity model and its
// mutex-guarded buffer arena.
func (in *Instance) Sample(targets []int) *Problem {
	subset := make([]geom.Polygon, len(targets))
	for i, t := range targets {
		subset[i] = in.Targets[t]
	}
	return in.sample(subset)
}

// InteractionRadius returns the one-sided independence margin of the
// instance: the proximity kernel's truncation radius (3σ of the widest
// component) plus the CD tolerance γ. Two targets whose bounding boxes,
// each inflated by this radius, do not overlap are farther apart than
// the interaction range 2·(3σ+γ) and cannot affect each other's
// constrained pixels — the engine's region decomposition builds on
// this.
func (in *Instance) InteractionRadius() float64 {
	return in.Model.Support() + in.Params.Gamma
}

// margin is the sampling margin around the targets' bounding box: the
// kernel support and the band, with two pixels to spare.
func (in *Instance) margin() float64 {
	return in.Model.Support() + in.Params.Gamma + 2*in.Params.Pitch
}

// gridOf returns the sampling grid of a group of targets: their
// bounding box plus the sampling margin. It allocates nothing.
func (in *Instance) gridOf(targets []geom.Polygon) raster.Grid {
	box := geom.Rect{}
	for _, t := range targets {
		box = box.Union(t.Bounds())
	}
	return raster.GridCovering(box, in.margin(), in.Params.Pitch)
}

// sample builds the problem of a group of the instance's targets on
// their own grid.
func (in *Instance) sample(targets []geom.Polygon) *Problem {
	grid := in.gridOf(targets)
	p := &Problem{
		Target:  targets[0],
		Targets: targets,
		Params:  in.Params,
		Grid:    grid,
		Model:   in.Model,
		Inside:  raster.NewBitmap(grid),
		Class:   make([]Class, grid.Len()),

		liveMargin: newLiveMargin(in.Model, in.Params.Pitch),
		arena:      &in.arena,
	}
	p.nOn, p.nOff = classify(targets, in.Params.Gamma, grid, grid.Whole(), p.Inside.Bits, p.Class)
	return p
}

// classify samples targets over window w of grid g. It sets each pixel
// of inside whose center lies in a target, and gives each pixel its
// class: Band within γ of a target boundary, else On inside a target,
// else Off. inside and class are the window's buffers, all false and
// all Off on entry. It returns |Pon| and |Poff| of the window.
func classify(targets []geom.Polygon, gamma float64, g raster.Grid, w raster.Window, inside []bool, class []Class) (nOn, nOff int) {
	for _, t := range targets {
		raster.RasterizeInto(inside, g, w, t)
		markBand(class, g, w, t, gamma)
	}
	for k, c := range class {
		switch {
		case c == Band:
		case inside[k]:
			class[k] = On
			nOn++
		default:
			nOff++
		}
	}
	return nOn, nOff
}

// markBand sets to Band the pixels of window w within gamma of the
// polygon's boundary, testing each edge's nearby pixels only.
func markBand(class []Class, g raster.Grid, w raster.Window, target geom.Polygon, gamma float64) {
	for ei := range target {
		a, b := target.Edge(ei)
		box := geom.RectFromCorners(a, b).Inset(-(gamma + g.Pitch))
		i0, j0 := g.PixelOf(geom.Pt(box.X0, box.Y0))
		i1, j1 := g.PixelOf(geom.Pt(box.X1, box.Y1))
		i0, j0 = max(i0, w.I0), max(j0, w.J0)
		i1, j1 = min(i1, w.I0+w.W-1), min(j1, w.J0+w.H-1)
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				k := w.Index(i, j)
				if class[k] == Band {
					continue
				}
				if geom.PointSegDist(g.Center(i, j), a, b) <= gamma {
					class[k] = Band
				}
			}
		}
	}
}

// Part is one region of a stitched multi-region solution: the targets
// it covers and the number of consecutive shots of the stitched list it
// contributed.
type Part struct {
	Targets []int // indices into Instance.Targets
	Shots   int
}

// Coverage is the extent of one evaluation: the windows it sampled and
// the pixels it classified in them.
type Coverage struct {
	Windows, Pixels int
}

// failTerm is one failing pixel's Eq. 5 term, keyed by its union-grid
// index.
type failTerm struct {
	k int
	v float64
}

// EvaluateParts returns Whole().EvaluatePaired(shots, pairs), bit for
// bit, for a stitched solution: parts[0]'s shots come first in shots,
// then parts[1]'s, and so on, and each pair joins two shots of one
// part. The parts must hold every target exactly once. The union grid
// is never sampled:
//
//   - each part is scored on a window of the union grid: the pixels of
//     its targets' bounding box inflated by the sampling margin and of
//     its shots' support boxes, clamped to the grid;
//   - windows that overlap merge, until none do. No shot then reaches a
//     window other than its part's, and no target has a pixel there;
//   - a window keeps the union grid's origin and addresses its pixels
//     by their union indices, so every pixel's class and dose are
//     sampled at the union grid's coordinates and summed in its order;
//   - outside the windows the dose is exactly zero and no pixel is On,
//     so no pixel there fails;
//   - the failing pixels' terms are summed in the union grid's
//     row-major order, as EvaluatePaired sums them.
//
// A part's own grid would not do: it sits on its own bounding box, off
// the union lattice wherever the bounds are not whole pixels, and
// counts different pixels. One part is one window, which covers the
// whole union grid. The window buffers come from the instance's arena.
// Under MASKFRAC_EVAL_CHECK every result is checked against a freshly
// sampled union grid.
func (in *Instance) EvaluateParts(shots []geom.Rect, pairs [][2]int, parts []Part) (Stats, Coverage) {
	in.checkParts(parts, len(shots))
	g := in.gridOf(in.Targets)
	m := in.Model

	// one window per part, then merged: each window lists the parts it
	// holds, and then its shots and pairs in stitched order
	type window struct {
		w     raster.Window
		parts []int
		shots []int
		pairs [][2]int
	}
	wins := make([]window, len(parts))
	partOf := make([]int, len(shots))
	base := 0
	for pi, part := range parts {
		box := geom.Rect{}
		for _, t := range part.Targets {
			box = box.Union(in.Targets[t].Bounds())
		}
		w := g.Cover(box.Inset(-in.margin()))
		for k := base; k < base+part.Shots; k++ {
			partOf[k] = pi
			w = w.Union(raster.WindowOf(m.SupportBox(g, shots[k])))
		}
		base += part.Shots
		wins[pi] = window{w: w, parts: []int{pi}}
	}
	for merged := true; merged; {
		merged = false
		for a := 0; a < len(wins); a++ {
			for b := a + 1; b < len(wins); b++ {
				if !wins[a].w.Overlaps(wins[b].w) {
					continue
				}
				wins[a].w = wins[a].w.Union(wins[b].w)
				wins[a].parts = append(wins[a].parts, wins[b].parts...)
				wins = slices.Delete(wins, b, b+1)
				merged = true
				b = a // the grown window may now reach any later one
			}
		}
	}
	winOf := make([]int, len(parts))
	for wi, win := range wins {
		for _, pi := range win.parts {
			winOf[pi] = wi
		}
	}
	for k := range shots {
		win := &wins[winOf[partOf[k]]]
		win.shots = append(win.shots, k)
	}
	for _, pr := range pairs {
		win := &wins[winOf[partOf[pr[0]]]]
		win.pairs = append(win.pairs, pr)
	}

	a := &in.arena
	var (
		st      Stats
		cov     = Coverage{Windows: len(wins)}
		terms   []failTerm
		class   []Class
		scratch = a.getF32(0)
		targets []geom.Polygon
	)
	rho := in.Params.Rho
	for _, win := range wins {
		w := win.w
		n := w.Len()
		cov.Pixels += n
		inside, dose := a.getBits(n), a.getF64(n)
		class = resize(class, n)
		targets = targets[:0]
		for _, pi := range win.parts {
			for _, t := range parts[pi].Targets {
				targets = append(targets, in.Targets[t])
			}
		}
		classify(targets, in.Params.Gamma, g, w, inside, class)
		// the shots, then the pairs' overlaps, in stitched order: the
		// order in which EvaluatePaired adds them to these pixels
		for _, k := range win.shots {
			scratch = m.AccumulateShotWindow(dose, g, w, shots[k], 1, scratch)
		}
		for _, pr := range win.pairs {
			if o := pairOverlap(shots[pr[0]], shots[pr[1]]); o != (geom.Rect{}) {
				scratch = m.AccumulateShotWindow(dose, g, w, o, -1, scratch)
			}
		}
		for j := w.J0; j < w.J0+w.H; j++ {
			for i := w.I0; i < w.I0+w.W; i++ {
				k := w.Index(i, j)
				c, v := class[k], dose[k]
				switch {
				case c == On && v < rho:
					st.FailOn++
					terms = append(terms, failTerm{g.Index(i, j), rho - v})
				case c == Off && v >= rho:
					st.FailOff++
					terms = append(terms, failTerm{g.Index(i, j), v - rho})
				}
			}
		}
		a.putBits(inside)
		a.putF64(dose)
	}
	a.putF32(scratch)
	slices.SortFunc(terms, func(a, b failTerm) int { return cmp.Compare(a.k, b.k) })
	for _, t := range terms {
		st.Cost += t.v
	}
	if evalCheckEnv {
		want := in.sample(in.Targets).EvaluatePaired(shots, pairs)
		if want.FailOn != st.FailOn || want.FailOff != st.FailOff ||
			math.Float64bits(want.Cost) != math.Float64bits(st.Cost) {
			panic(fmt.Sprintf("cover: windowed evaluation %+v differs from the union grid's %+v", st, want))
		}
	}
	return st, cov
}

// checkParts panics unless parts hold every target exactly once and
// their shot counts add up to n: a target left out would never be
// sampled, and its failing pixels would go uncounted.
func (in *Instance) checkParts(parts []Part, n int) {
	seen := make([]bool, len(in.Targets))
	targets, shots := 0, 0
	for _, part := range parts {
		for _, t := range part.Targets {
			if seen[t] {
				panic(fmt.Sprintf("cover: EvaluateParts: target %d in two parts", t))
			}
			seen[t] = true
		}
		targets += len(part.Targets)
		shots += part.Shots
	}
	if targets != len(in.Targets) || shots != n {
		panic(fmt.Sprintf("cover: EvaluateParts: parts hold %d of %d targets and %d of %d shots",
			targets, len(in.Targets), shots, n))
	}
}

// resize returns buf with length n and every element zero, reusing its
// backing array when large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
