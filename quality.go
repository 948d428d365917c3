package maskfrac

import "maskfrac/internal/metrics"

// EPEStats summarizes the edge placement error distribution of a shot
// configuration, in nm: the signed distance between the printed
// ρ-contour and the target boundary, sampled along the boundary.
type EPEStats = metrics.EPEStats

// SliverStats counts shots thinner than a sliver threshold. Slivers
// print unreliably on VSB tools, which is why conventional fracturing
// minimizes them.
type SliverStats = metrics.SliverStats

// EPE samples the problem's target boundaries every step nanometers
// (step <= 0 selects 2 nm) and measures the edge placement error the
// shot list produces at each sample.
func (pr *Problem) EPE(shots []Shot, step float64) EPEStats {
	return metrics.EPE(pr.in.Model, pr.in.Params.Rho, pr.in.Targets, shots, step)
}

// Slivers analyzes the shot dimensions against a sliver threshold in
// nm; threshold <= 0 selects the problem's minimum shot size Lmin.
func (pr *Problem) Slivers(shots []Shot, threshold float64) SliverStats {
	if threshold <= 0 {
		threshold = pr.in.Params.Lmin
	}
	return metrics.Slivers(shots, threshold)
}
