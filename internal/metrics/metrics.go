// Package metrics computes mask-quality metrics for fracturing
// solutions beyond the pass/fail pixel counts of the core problem:
//
//   - Edge placement error (EPE): the signed distance between the
//     printed ρ-contour and the target boundary, sampled along the
//     boundary. Mask makers track its distribution, not just the
//     worst case.
//   - Dose slope: the dose gradient magnitude at boundary samples —
//     a proxy for exposure latitude (image log-slope); steeper is more
//     robust to dose fluctuation.
//   - Sliver statistics: counts of shots thinner than a threshold.
//     Slivers print unreliably on VSB tools, which is why conventional
//     fracturing minimizes them (Kahng et al., the paper's refs [6,7]).
package metrics

import (
	"math"
	"sort"

	"maskfrac/internal/cover"
	"maskfrac/internal/ebeam"
	"maskfrac/internal/geom"
)

// EPEStats summarizes the edge placement error distribution, in nm.
// Positive EPE means the printed contour bulges outside the target.
type EPEStats struct {
	Samples int
	Mean    float64
	RMS     float64
	Max     float64 // worst absolute EPE
	P95     float64 // 95th percentile of |EPE|
}

// EPE samples the targets' boundaries every step nanometers and
// measures, for each sample, how far along the outward normal the dose
// of model m crosses the threshold rho (searched within ±window nm,
// resolution res nm). It reads the model at points, so it needs no
// sampled grid.
func EPE(m *ebeam.Model, rho float64, targets []geom.Polygon, shots []geom.Rect, step float64) EPEStats {
	if step <= 0 {
		step = 2
	}
	var epes []float64
	doseAt := func(pt geom.Point) float64 {
		total := 0.0
		for _, s := range shots {
			total += m.ShotIntensity(s, pt)
		}
		return total
	}
	for _, t := range targets {
		target := t.EnsureCCW()
		epes = append(epes, epeAlong(target, doseAt, rho, step)...)
	}
	return summarizeEPE(epes)
}

// epeAlong samples one boundary and returns its raw EPE values.
func epeAlong(target geom.Polygon, doseAt func(geom.Point) float64, rho, step float64) []float64 {
	const window = 6.0
	const res = 0.25
	var epes []float64
	for i := range target {
		a, b := target.Edge(i)
		d := b.Sub(a)
		length := d.Norm()
		if length == 0 {
			continue
		}
		dir := d.Scale(1 / length)
		outward := geom.Pt(dir.Y, -dir.X)
		for t := step / 2; t < length; t += step {
			base := a.Add(dir.Scale(t))
			// find the dose crossing along the normal
			prevU := -window
			prevD := doseAt(base.Add(outward.Scale(prevU)))
			found := false
			for u := -window + res; u <= window; u += res {
				dd := doseAt(base.Add(outward.Scale(u)))
				if (prevD >= rho) != (dd >= rho) {
					// linear interpolation of the crossing
					frac := (rho - prevD) / (dd - prevD)
					epes = append(epes, prevU+frac*res)
					found = true
					break
				}
				prevU, prevD = u, dd
			}
			if !found {
				// no crossing in the window: clamp to the window edge
				// with the sign of the failure
				if prevD >= rho {
					epes = append(epes, window)
				} else {
					epes = append(epes, -window)
				}
			}
		}
	}
	return epes
}

// summarizeEPE folds raw EPE samples into distribution statistics.
func summarizeEPE(epes []float64) EPEStats {
	st := EPEStats{Samples: len(epes)}
	if len(epes) == 0 {
		return st
	}
	sum, sq := 0.0, 0.0
	abs := make([]float64, len(epes))
	for i, e := range epes {
		sum += e
		sq += e * e
		abs[i] = math.Abs(e)
		if abs[i] > st.Max {
			st.Max = abs[i]
		}
	}
	st.Mean = sum / float64(len(epes))
	st.RMS = math.Sqrt(sq / float64(len(epes)))
	sort.Float64s(abs)
	st.P95 = abs[int(0.95*float64(len(abs)-1))]
	return st
}

// DoseSlope returns the mean and minimum dose gradient magnitude
// (per nm) at samples along the target boundary — the exposure
// latitude proxy. Higher is better.
func DoseSlope(p *cover.Problem, shots []geom.Rect, step float64) (mean, min float64) {
	if step <= 0 {
		step = 4
	}
	const h = 0.5
	doseAt := func(pt geom.Point) float64 {
		total := 0.0
		for _, s := range shots {
			total += p.Model.ShotIntensity(s, pt)
		}
		return total
	}
	min = math.Inf(1)
	n := 0
	sum := 0.0
	for _, target := range p.Targets {
		for i := range target {
			a, b := target.Edge(i)
			d := b.Sub(a)
			length := d.Norm()
			if length == 0 {
				continue
			}
			dir := d.Scale(1 / length)
			for t := step / 2; t < length; t += step {
				pt := a.Add(dir.Scale(t))
				gx := (doseAt(geom.Pt(pt.X+h, pt.Y)) - doseAt(geom.Pt(pt.X-h, pt.Y))) / (2 * h)
				gy := (doseAt(geom.Pt(pt.X, pt.Y+h)) - doseAt(geom.Pt(pt.X, pt.Y-h))) / (2 * h)
				g := math.Hypot(gx, gy)
				sum += g
				n++
				if g < min {
					min = g
				}
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), min
}

// SliverStats summarizes shot aspect quality.
type SliverStats struct {
	Shots      int
	Slivers    int     // shots with min dimension below the threshold
	MinDim     float64 // smallest shot dimension in the set
	MeanAspect float64 // mean of max(w,h)/min(w,h)
}

// Slivers analyzes shot dimensions against a sliver threshold in nm.
func Slivers(shots []geom.Rect, threshold float64) SliverStats {
	st := SliverStats{Shots: len(shots), MinDim: math.Inf(1)}
	if len(shots) == 0 {
		st.MinDim = 0
		return st
	}
	aspectSum := 0.0
	for _, s := range shots {
		w, h := s.W(), s.H()
		minD, maxD := w, h
		if minD > maxD {
			minD, maxD = maxD, minD
		}
		if minD < st.MinDim {
			st.MinDim = minD
		}
		if minD < threshold {
			st.Slivers++
		}
		if minD > 0 {
			aspectSum += maxD / minD
		}
	}
	st.MeanAspect = aspectSum / float64(len(shots))
	return st
}

// WriteTimeProxy returns the sum of per-shot overheads plus a small
// area-dependent term: a finer write-time proxy than raw shot count,
// used to compare solutions with equal counts. Units are arbitrary.
func WriteTimeProxy(shots []geom.Rect) float64 {
	const perShot = 1.0
	const perArea = 1e-4
	total := 0.0
	for _, s := range shots {
		total += perShot + perArea*s.Area()
	}
	return total
}
