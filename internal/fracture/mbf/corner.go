package mbf

import (
	"math"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

// CornerType identifies which corner of a rectangular shot a corner
// point represents (paper §3).
type CornerType uint8

const (
	// BL is the bottom-left shot corner.
	BL CornerType = iota
	// BR is the bottom-right shot corner.
	BR
	// TL is the top-left shot corner.
	TL
	// TR is the top-right shot corner.
	TR
)

// String returns a short name for the corner type.
func (c CornerType) String() string {
	switch c {
	case BL:
		return "BL"
	case BR:
		return "BR"
	case TL:
		return "TL"
	case TR:
		return "TR"
	}
	return "?"
}

// cornerTypeFacing returns the corner type whose outward diagonal points
// in the direction with the given component signs: a shot's bottom-left
// corner "faces" (−,−), its top-right corner faces (+,+), and so on.
func cornerTypeFacing(nx, ny float64) CornerType {
	switch {
	case nx < 0 && ny < 0:
		return BL
	case nx > 0 && ny < 0:
		return BR
	case nx < 0 && ny > 0:
		return TL
	default:
		return TR
	}
}

// CornerPoint is a typed shot corner point extracted from the target
// boundary.
type CornerPoint struct {
	P    geom.Point
	Type CornerType
}

// extractCorners simplifies the target boundary and traverses it,
// emitting typed shot corner points per the paper's three rules (§3):
// axis-parallel segments contribute their two endpoints (shifted along
// the segment by Lth/√2 to pre-compensate corner rounding), diagonal
// segments contribute points every Lth along the segment (shifted
// outward perpendicular by Lth/√2), and segments shorter than Lth are
// skipped.
func extractCorners(p *cover.Problem, opt Options) (pts []CornerPoint, simplified geom.Polygon, lth float64) {
	lth = p.Model.Lth(p.Params.Rho, p.Params.Gamma)
	for ti, target := range p.Targets {
		s := target.EnsureCCW()
		if !opt.DisableRDP {
			s = geom.SimplifyPolygon(s, p.Params.Gamma).EnsureCCW()
		}
		if ti == 0 {
			simplified = s
		}
		pts = append(pts, boundaryCorners(s, lth)...)
	}
	return pts, simplified, lth
}

// boundaryCorners walks one simplified boundary and emits its typed
// shot corner points.
func boundaryCorners(simplified geom.Polygon, lth float64) []CornerPoint {
	var pts []CornerPoint
	shift := lth / math.Sqrt2
	for i := range simplified {
		a, b := simplified.Edge(i)
		d := b.Sub(a)
		length := d.Norm()
		dir := d.Scale(1 / length)
		// CCW boundary: interior on the left, outward normal on the right
		outward := geom.Pt(dir.Y, -dir.X)
		if length < lth {
			// The paper skips segments shorter than Lth, assuming the
			// neighbors' corner points cover them. On dense curvilinear
			// boundaries (ILT blobs) nearly every RDP segment is short;
			// skipping all of them leaves the boundary unsampled, so we
			// emit midpoint corner points instead and let clustering
			// collapse redundant ones.
			mid := a.Add(d.Scale(0.5))
			if d.X == 0 || d.Y == 0 {
				ta := cornerTypeFacing(signOr(outward.X, -dir.X), signOr(outward.Y, -dir.Y))
				tb := cornerTypeFacing(signOr(outward.X, dir.X), signOr(outward.Y, dir.Y))
				pts = append(pts, CornerPoint{P: mid, Type: ta}, CornerPoint{P: mid, Type: tb})
			} else {
				pts = append(pts, CornerPoint{
					P:    mid.Add(outward.Scale(shift)),
					Type: cornerTypeFacing(outward.X, outward.Y),
				})
			}
			continue
		}
		if d.X == 0 || d.Y == 0 {
			// axis-parallel: one shot edge writes the segment; shift the
			// endpoints apart along the segment axis to absorb rounding
			ta := cornerTypeFacing(signOr(outward.X, -dir.X), signOr(outward.Y, -dir.Y))
			tb := cornerTypeFacing(signOr(outward.X, dir.X), signOr(outward.Y, dir.Y))
			pts = append(pts,
				CornerPoint{P: a.Sub(dir.Scale(shift)), Type: ta},
				CornerPoint{P: b.Add(dir.Scale(shift)), Type: tb},
			)
			continue
		}
		// diagonal: written by corner rounding; place points spaced at
		// least Lth apart (so clustering keeps them distinct), pushed
		// outside the shape by Lth/√2
		typ := cornerTypeFacing(outward.X, outward.Y)
		n := int(math.Floor(length / lth))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			t := (float64(k) + 0.5) / float64(n)
			pos := a.Add(d.Scale(t)).Add(outward.Scale(shift))
			pts = append(pts, CornerPoint{P: pos, Type: typ})
		}
	}
	return pts
}

// signOr returns primary if non-zero, otherwise fallback. Used to type
// the endpoints of axis-parallel segments: one sign component comes
// from the outward normal (which side of the shot the segment is), the
// other from the traversal direction (which end of the edge the point
// is).
func signOr(primary, fallback float64) float64 {
	if primary != 0 {
		return primary
	}
	return fallback
}

// clusterCorners merges nearby corner points of the same type by
// agglomerative clustering: the closest same-type pair of clusters
// within Lth (weighted centroids) merges first, repeating until no pair
// is closer than Lth. Dense runs of points along a curved boundary
// collapse to centroids spaced roughly Lth apart — the density at which
// shot corner rounding can write the curve — while the two points a
// convex 90° corner produces (exactly Lth apart) merge into one.
func clusterCorners(pts []CornerPoint, lth float64) []CornerPoint {
	type cluster struct {
		sum   geom.Point
		count int
		typ   CornerType
	}
	clusters := make([]cluster, len(pts))
	for i, p := range pts {
		clusters[i] = cluster{sum: p.P, count: 1, typ: p.Type}
	}
	centroid := func(c cluster) geom.Point { return c.sum.Scale(1 / float64(c.count)) }
	for {
		bi, bj, bd := -1, -1, lth+1e-6
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if clusters[i].typ != clusters[j].typ {
					continue
				}
				if d := centroid(clusters[i]).Dist(centroid(clusters[j])); d <= bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bi < 0 {
			break
		}
		clusters[bi].sum = clusters[bi].sum.Add(clusters[bj].sum)
		clusters[bi].count += clusters[bj].count
		clusters[bj] = clusters[len(clusters)-1]
		clusters = clusters[:len(clusters)-1]
	}
	out := make([]CornerPoint, len(clusters))
	for i, c := range clusters {
		out[i] = CornerPoint{P: centroid(c), Type: c.typ}
	}
	return out
}

// ExtractCorners runs boundary approximation and corner point
// extraction with the given options, returning the clustered corner
// points, the simplified boundary, and Lth. Exported for visualization
// (paper Fig 1).
func ExtractCorners(p *cover.Problem, opt Options) ([]CornerPoint, geom.Polygon, float64) {
	opt = opt.withDefaults()
	raw, simplified, lth := extractCorners(p, opt)
	pts := raw
	if !opt.DisableClustering {
		pts = clusterCorners(raw, lth)
	}
	return pts, simplified, lth
}
