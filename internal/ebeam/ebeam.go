// Package ebeam models the electron-beam proximity effect used in
// model-based mask fracturing (paper §2).
//
// The paper's kernel is the single 2D Gaussian
//
//	G(x,y) = (1/πσ²)·exp(−(x²+y²)/σ²), truncated at radius 3σ,
//
// and the intensity of a rectangular shot s is Is = G ⋆ Rs. Because the
// untruncated kernel is separable, the convolution has the closed form
//
//	Is(x,y) = E(x; x0, x1) · E(y; y0, y1)
//	E(t; a, b) = ½[erf((t−a)/σ) − erf((t−b)/σ)] = P(t−a) − P(t−b)
//	P(d) = ½(1 + erf(d/σ))
//
// with P the 1D edge profile, evaluated via a lookup table (the paper
// also uses an LUT) and clamped to 0/1 beyond 3σ, which reproduces the
// truncated kernel to better than 1e-4.
//
// The package also supports the standard two-Gaussian proximity-effect
// model (forward scattering α plus backscatter β weighted by η):
//
//	PSF = [ (1/πα²)·e^(−r²/α²) + (η/πβ²)·e^(−r²/β²) ] / (1+η)
//
// whose shot intensity is the weighted sum of two separable terms.
// NewModel builds the paper's single-Gaussian model; NewDoubleGaussian
// builds the two-component model.
package ebeam

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// lutCells is the number of LUT samples across the [-3σ, 3σ] support of
// each component's edge profile.
const lutCells = 4096

// ProfileTol32 is the documented agreement tolerance between the
// float32 strip kernels (EdgeProfiles32) and the float64 reference path
// (EdgeProfiles): absolute, on edge-factor values in [-1, 1]. The
// float32 LUT stores values rounded from the float64 table (≤ 2⁻²⁴
// each) and the interpolation spends ~3 float32 operations per sample,
// so the difference of two profiles stays below ~1e-6; 1e-5 — about
// 84 ULP of float32 at full scale — leaves an order of magnitude of
// slack. The strip cross-check and the randomized property suite both
// assert against this bound.
const ProfileTol32 = 1e-5

// profileCheck enables the float32-vs-float64 strip cross-check inside
// EdgeProfiles32: every filled strip is re-derived on the float64
// reference path and the first sample diverging by more than
// ProfileTol32 panics with its strip coordinates. The process default
// follows MASKFRAC_EVAL_CHECK (shared with cover.Eval's cross-check
// mode); tests flip it with SetProfileCheck.
var profileCheck atomic.Bool

func init() {
	profileCheck.Store(os.Getenv("MASKFRAC_EVAL_CHECK") != "")
}

// SetProfileCheck toggles the float32 strip kernel cross-check
// process-wide and returns the previous setting. When enabled, every
// EdgeProfiles32 strip is verified sample-by-sample against the float64
// reference within ProfileTol32, panicking with the first diverging
// strip coordinate. Meant for tests and debugging: it multiplies the
// cost of every strip fill.
func SetProfileCheck(on bool) (prev bool) {
	return profileCheck.Swap(on)
}

// component is one Gaussian term of the point spread function.
type component struct {
	sigma  float64
	weight float64
	lut    []float64 // P sampled on [-3σ, 3σ]: the float64 reference
	lut32  []float32 // the same table rounded to float32: the fast path
	step   float64   // LUT sample spacing in nm
}

// Model is a fixed-dose e-beam proximity model: a weighted sum of
// Gaussian components (one for the paper's model, two with backscatter).
type Model struct {
	comps   []component
	support float64 // 3 × the largest component sigma
}

// NewModel returns the paper's proximity model with forward-scattering
// range σ in nanometers (σ = 6.25 nm in the experiments).
func NewModel(sigma float64) *Model {
	if sigma <= 0 {
		panic("ebeam: sigma must be positive")
	}
	return &Model{
		comps:   []component{newComponent(sigma, 1)},
		support: 3 * sigma,
	}
}

// NewDoubleGaussian returns the two-Gaussian proximity model with
// forward range alpha, backscatter range beta and backscatter ratio
// eta. alpha < beta is expected; eta = 0 degenerates to NewModel(alpha).
func NewDoubleGaussian(alpha, beta, eta float64) *Model {
	if alpha <= 0 || beta <= 0 {
		panic("ebeam: ranges must be positive")
	}
	if eta < 0 {
		panic("ebeam: eta must be non-negative")
	}
	if eta == 0 {
		return NewModel(alpha)
	}
	norm := 1 + eta
	m := &Model{
		comps: []component{
			newComponent(alpha, 1/norm),
			newComponent(beta, eta/norm),
		},
	}
	m.support = 3 * math.Max(alpha, beta)
	return m
}

// newComponent builds one Gaussian term with its LUTs: the float64
// reference table and its float32 rounding used by the strip kernels.
func newComponent(sigma, weight float64) component {
	c := component{sigma: sigma, weight: weight, step: 6 * sigma / lutCells}
	c.lut = make([]float64, lutCells+1)
	c.lut32 = make([]float32, lutCells+1)
	for i := range c.lut {
		d := -3*sigma + float64(i)*c.step
		c.lut[i] = 0.5 * (1 + math.Erf(d/sigma))
		c.lut32[i] = float32(c.lut[i])
	}
	return c
}

// Sigma returns the forward-scattering range (the first component's σ).
func (m *Model) Sigma() float64 { return m.comps[0].sigma }

// Components returns the number of Gaussian terms (1 or 2).
func (m *Model) Components() int { return len(m.comps) }

// Weight returns the dose weight of component c.
func (m *Model) Weight(c int) float64 { return m.comps[c].weight }

// Support returns the truncation radius (3× the widest component's σ):
// a shot's intensity is treated as zero farther than this from the shot.
func (m *Model) Support() float64 { return m.support }

// profile evaluates one component's edge profile from its LUT with
// linear interpolation, clamped to {0, 1} beyond 3σ.
func (c *component) profile(d float64) float64 {
	if d <= -3*c.sigma {
		return 0
	}
	if d >= 3*c.sigma {
		return 1
	}
	u := (d + 3*c.sigma) / c.step
	i := int(u)
	if i >= lutCells {
		i = lutCells - 1
	}
	frac := u - float64(i)
	return c.lut[i]*(1-frac) + c.lut[i+1]*frac
}

// EdgeProfileExact returns the combined profile without LUTs, for
// reference and tests.
func (m *Model) EdgeProfileExact(d float64) float64 {
	total := 0.0
	for _, c := range m.comps {
		total += c.weight * 0.5 * (1 + math.Erf(d/c.sigma))
	}
	return total
}

// EdgeProfile returns the combined 1D edge profile P(d): the intensity
// at signed distance d from an isolated straight shot edge (positive d
// inside the shot).
func (m *Model) EdgeProfile(d float64) float64 {
	total := 0.0
	for i := range m.comps {
		total += m.comps[i].weight * m.comps[i].profile(d)
	}
	return total
}

// ProfileInv returns the signed distance d such that EdgeProfile(d) = v,
// for v in (0, 1), by bisection on the monotone combined profile.
// Values at or beyond the clamp return ±Support.
func (m *Model) ProfileInv(v float64) float64 {
	lo, hi := -m.support, m.support
	if v <= m.EdgeProfile(lo) {
		return lo
	}
	if v >= m.EdgeProfile(hi) {
		return hi
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if m.EdgeProfile(mid) <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Edge returns the combined E(t; a, b) = P(t−a) − P(t−b): the 1D
// intensity cross section of an infinitely tall shot spanning [a, b].
// NOTE: for multi-component models the 2D shot intensity is NOT
// Edge(x)·Edge(y); use ShotIntensity or EdgeComponent per component.
func (m *Model) Edge(t, a, b float64) float64 {
	return m.EdgeProfile(t-a) - m.EdgeProfile(t-b)
}

// EdgeComponent returns component c's E_c(t; a, b) = P_c(t−a) − P_c(t−b).
func (m *Model) EdgeComponent(c int, t, a, b float64) float64 {
	return m.comps[c].profile(t-a) - m.comps[c].profile(t-b)
}

// ShotIntensity returns Is(x, y) for shot rectangle s at point p:
// Σ_c w_c · E_c(x)·E_c(y).
func (m *Model) ShotIntensity(s geom.Rect, p geom.Point) float64 {
	total := 0.0
	for c := range m.comps {
		ex := m.EdgeComponent(c, p.X, s.X0, s.X1)
		if ex == 0 {
			continue
		}
		ey := m.EdgeComponent(c, p.Y, s.Y0, s.Y1)
		total += m.comps[c].weight * ex * ey
	}
	return total
}

// EdgeProfiles fills dst[i] with component c's edge factor
// E_c(t; a, b) = P_c(t−a) − P_c(t−b) sampled at the centers of pixel
// indices i0, i0+1, … along one grid axis with origin t0 and the given
// pitch (dst[i] is the value at pixel index i0+i).
//
// This is the float64 REFERENCE path: the production strip kernels are
// EdgeProfiles32, and this table is what the MASKFRAC_EVAL_CHECK strip
// cross-check re-derives them against. The sample position depends only
// on the absolute pixel index i0+i, so overlapping fills (a shot's
// support box vs a move's union box) produce bit-identical values.
func (m *Model) EdgeProfiles(dst []float64, c int, t0, pitch float64, i0 int, a, b float64) {
	comp := &m.comps[c]
	for i := range dst {
		t := t0 + (float64(i0+i)+0.5)*pitch
		dst[i] = comp.profile(t-a) - comp.profile(t-b)
	}
}

// EdgeProfiles32 is the float32 strip kernel behind the evaluator hot
// path: it fills dst[i] with component c's edge factor
// E_c(t; a, b) = P_c(t−a) − P_c(t−b), like EdgeProfiles, but reads the
// float32 LUT and runs strip-mined inner loops. Because the edge
// profile is a clamped ramp, each edge splits the strip into three
// contiguous segments — a constant prefix, a short LUT-interpolated
// ramp (~6σ/pitch samples), and a constant suffix — so the bulk of a
// wide strip is a branch-free constant fill and only the ramp pays for
// interpolation, with no per-sample clamp tests in either loop.
//
// Exactness contract: dst[i] is a deterministic function of the
// absolute pixel index i0+i and the edge pair (a, b) alone — the same
// sample filled through any (i0, len) window yields the identical
// float32 bits, which is what lets the incremental evaluator's strip
// updates cancel a shot's accumulated dose exactly. Values agree with
// the float64 reference within ProfileTol32; when SetProfileCheck (or
// MASKFRAC_EVAL_CHECK) is on, every fill is verified against it and
// panics with the first diverging strip coordinate.
func (m *Model) EdgeProfiles32(dst []float32, c int, t0, pitch float64, i0 int, a, b float64) {
	comp := &m.comps[c]
	comp.applyProfile32(dst, t0, pitch, i0, a, +1)
	comp.applyProfile32(dst, t0, pitch, i0, b, -1)
	if profileCheck.Load() {
		m.checkStrip32(dst, c, t0, pitch, i0, a, b)
	}
}

// applyProfile32 adds sign × P_c(t−e) to dst over the strip, with
// t = t0 + (i0+i+0.5)·pitch. sign=+1 lays down the leading edge
// (overwriting dst), sign=−1 subtracts the trailing edge.
func (c *component) applyProfile32(dst []float32, t0, pitch float64, i0 int, e float64, sign int) {
	n := len(dst)
	s3 := 3 * c.sigma
	step := c.step
	// The LUT coordinate of sample m (absolute index) is
	//	u(m) = (t0 + (m+0.5)·pitch − e + 3σ) / step,
	// increasing in m (pitch > 0). Samples with u ∈ [1, lutCells−1]
	// interpolate without clamp tests; the conservative one-cell margin
	// keeps k and k+1 in range even at the rounded boundaries.
	mLo := int(math.Ceil((1*step-s3+e-t0)/pitch - 0.5))
	mHi := int(math.Floor((float64(lutCells-1)*step-s3+e-t0)/pitch - 0.5))
	lo := min(max(mLo-i0, 0), n)
	hi := min(max(mHi-i0+1, lo), n)

	lut := c.lut32
	// Every rounding step of u is monotone, so u is non-decreasing in
	// the sample index and the clamped samples form a run below the
	// ramp (u ≤ 0, profile 0) and a run above it (u ≥ lutCells,
	// profile 1). Only the few samples between a run and the ramp take
	// the full formula; the runs are constant fills.
	z := lo
	for z > 0 && sampleU(t0, pitch, i0, z-1, e, s3, step) > 0 {
		z--
		applySample32(dst, lut, z, t0, pitch, i0, e, s3, step, sign)
	}
	o := hi
	for o < n && sampleU(t0, pitch, i0, o, e, s3, step) < lutCells {
		applySample32(dst, lut, o, t0, pitch, i0, e, s3, step, sign)
		o++
	}
	if sign > 0 {
		clear(dst[:z])
		for i := o; i < n; i++ {
			dst[i] = 1
		}
	} else {
		// subtracting 0 below the ramp leaves those samples as they are
		for i := o; i < n; i++ {
			dst[i] -= 1
		}
	}
	// the ramp: branch-free interpolation, k ∈ [0, lutCells−1] by the
	// margin above so only the slice bounds checks remain
	ramp := dst[lo:hi]
	if sign > 0 {
		for i := range ramp {
			u := sampleU(t0, pitch, i0, lo+i, e, s3, step)
			k := int(u)
			f := float32(u - float64(k))
			ramp[i] = lut[k] + f*(lut[k+1]-lut[k])
		}
	} else {
		for i := range ramp {
			u := sampleU(t0, pitch, i0, lo+i, e, s3, step)
			k := int(u)
			f := float32(u - float64(k))
			ramp[i] -= lut[k] + f*(lut[k+1]-lut[k])
		}
	}
}

// sampleU returns the LUT coordinate of strip sample i: the one
// expression behind every sample of applyProfile32.
func sampleU(t0, pitch float64, i0, i int, e, s3, step float64) float64 {
	return (t0 + (float64(i0+i)+0.5)*pitch - e + s3) / step
}

// applySample32 evaluates one sample of applyProfile32 with the full
// branchy profile formula, clamps included; it computes the identical
// formula as the ramp loop when u lands in range, and the constant
// runs' values when it does not, so segment boundaries never change a
// sample's value.
func applySample32(dst []float32, lut []float32, i int, t0, pitch float64, i0 int, e, s3, step float64, sign int) {
	u := sampleU(t0, pitch, i0, i, e, s3, step)
	var v float32
	switch {
	case u <= 0:
		v = 0
	case u >= lutCells:
		v = 1
	default:
		k := int(u)
		if k >= lutCells {
			k = lutCells - 1
		}
		f := float32(u - float64(k))
		v = lut[k] + f*(lut[k+1]-lut[k])
	}
	if sign > 0 {
		dst[i] = v
	} else {
		dst[i] -= v
	}
}

// checkStrip32 re-derives a float32 strip on the float64 reference path
// and panics with the first diverging sample's strip coordinates.
func (m *Model) checkStrip32(dst []float32, c int, t0, pitch float64, i0 int, a, b float64) {
	comp := &m.comps[c]
	for i, got := range dst {
		t := t0 + (float64(i0+i)+0.5)*pitch
		want := comp.profile(t-a) - comp.profile(t-b)
		if math.Abs(float64(got)-want) > ProfileTol32 {
			panic(fmt.Sprintf(
				"ebeam: float32 strip kernel diverged from float64 reference: "+
					"component %d (σ=%g) pixel %d (t=%g, edges a=%g b=%g): got %v want %v (|Δ|=%.3g > %g)",
				c, comp.sigma, i0+i, t, a, b, got, want,
				math.Abs(float64(got)-want), ProfileTol32))
		}
	}
}

// SupportBox returns the pixel-coordinate box (inclusive) of grid g that
// a shot s can influence: s expanded by the support radius, clamped to
// the grid.
func (m *Model) SupportBox(g raster.Grid, s geom.Rect) (i0, j0, i1, j1 int) {
	w := g.Cover(s.Inset(-m.Support()))
	return w.I0, w.J0, w.I0 + w.W - 1, w.J0 + w.H - 1
}

// AccumulateShot adds sign × Is to the field f over the shot's support
// box. sign is +1 to add a shot and −1 to remove it (fractional values
// express variable dose). The separable form makes each component
// O(W + H + box area) with two 1D profile passes. Allocates the 1D
// tables per call; hot paths should use AccumulateShotBuf with a reused
// scratch buffer.
func (m *Model) AccumulateShot(f *raster.Field, s geom.Rect, sign float64) {
	m.AccumulateShotBuf(f, s, sign, nil)
}

// AccumulateShotBuf is AccumulateShot drawing its per-axis edge tables
// from scratch (grown as needed) instead of allocating; it returns the
// possibly-grown buffer for reuse. The dose added for a given shot is a
// deterministic function of the shot and the grid — independent of the
// buffer passed — so an add followed by a remove cancels to float64
// rounding exactly as with fresh allocations.
//
// The edge tables are the float32 strip kernels (EdgeProfiles32); the
// per-row accumulation widens each product to float64 before adding to
// the field, so the float32 rounding lives only in the table values,
// shared by every path that scores or commits the same shot.
func (m *Model) AccumulateShotBuf(f *raster.Field, s geom.Rect, sign float64, scratch []float32) []float32 {
	return m.AccumulateShotWindow(f.V, f.Grid, f.Grid.Whole(), s, sign, scratch)
}

// AccumulateShotWindow is AccumulateShotBuf over window w of grid g,
// whose buffer is dst: it adds sign × Is to the pixels of the shot's
// support box that lie in the window. The strip kernels sample by grid
// index, so each of those pixels gains exactly what it gains on the
// whole grid.
func (m *Model) AccumulateShotWindow(dst []float64, g raster.Grid, w raster.Window, s geom.Rect, sign float64, scratch []float32) []float32 {
	i0, j0, i1, j1 := m.SupportBox(g, s)
	i0, j0 = max(i0, w.I0), max(j0, w.J0)
	i1, j1 = min(i1, w.I0+w.W-1), min(j1, w.J0+w.H-1)
	if i1 < i0 || j1 < j0 {
		return scratch
	}
	width := i1 - i0 + 1
	height := j1 - j0 + 1
	if cap(scratch) < width+height {
		scratch = make([]float32, width+height)
	}
	ex := scratch[:width]
	ey := scratch[width : width+height]
	for c := range m.comps {
		m.EdgeProfiles32(ex, c, g.X0, g.Pitch, i0, s.X0, s.X1)
		m.EdgeProfiles32(ey, c, g.Y0, g.Pitch, j0, s.Y0, s.Y1)
		wc := sign * m.comps[c].weight
		for j := j0; j <= j1; j++ {
			rowW := wc * float64(ey[j-j0])
			if rowW == 0 {
				continue
			}
			k := w.Index(i0, j)
			row := dst[k : k+width]
			exr := ex[:len(row)]
			for i := range row {
				row[i] += rowW * float64(exr[i])
			}
		}
	}
	return scratch
}

// DoseMap returns the total intensity field Itot = Σ Is over grid g for
// the given shots.
func (m *Model) DoseMap(g raster.Grid, shots []geom.Rect) *raster.Field {
	f := raster.NewField(g)
	var scratch []float32
	for _, s := range shots {
		scratch = m.AccumulateShotBuf(f, s, 1, scratch)
	}
	return f
}
