package main

import (
	"math"
	"math/rand"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapegen"
)

// DefaultSeed reproduces the committed Table 2 clips exactly: no offset,
// identity orientations.
const DefaultSeed = 0

// Clip is one named target polygon.
type Clip struct {
	Name   string
	Target geom.Polygon
}

// tableClips are the Table 2 clips the solver workloads run: ILT-1, -2,
// -3, -6 and -7, as shapegen.ILTSuite builds them (seed 100+i).
var tableClips = []struct {
	name  string
	seed  int64
	blobs int
}{
	{"ILT-1", 101, 2}, {"ILT-2", 102, 3}, {"ILT-3", 103, 2}, {"ILT-6", 106, 2}, {"ILT-7", 107, 3},
}

// clipOffsetRange bounds the seeded on-grid offset of a clip, in nm.
const clipOffsetRange = 20000

// ILTClips returns the ilt-mbf clip set for a seed. Every seed runs the
// same five Table 2 shapes; a seed other than DefaultSeed moves each one
// by its own whole-nanometre offset. Integer offsets keep every vertex
// exact, so the solver does identical work and returns identical shot
// counts for every seed while the bytes it receives differ. Fresh
// shapes per seed would not: one MBF pass over five fresh clips took
// 6.0–16.5 s across twelve seeds, which no usable bound can absorb (see
// README.md).
func ILTClips(seed int64) []Clip {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Clip, len(tableClips))
	for i, tc := range tableClips {
		pg := shapegen.ILTShape(tc.seed, tc.blobs).Target
		if seed != DefaultSeed {
			off := geom.Pt(float64(rng.Intn(clipOffsetRange)), float64(rng.Intn(clipOffsetRange)))
			pg = pg.Translate(off)
		}
		out[i] = Clip{Name: tc.name, Target: pg}
	}
	return out
}

// d4 lists the eight axis-aligned placement orientations.
var d4 = []maskio.Orient{
	maskio.OrientIdentity, maskio.OrientRot90, maskio.OrientRot180,
	maskio.OrientRot270, maskio.OrientMirrorX, maskio.OrientMirrorY,
	maskio.OrientTranspose, maskio.OrientAntiTranspose,
}

// replayCols × replayRows tiles of five clips give a 640-placement mask,
// the size of the committed full-mask benchmark. One walk takes a
// fraction of a second on the hit path, so a run replays it many times.
const (
	replayCols = 16
	replayRows = 8
)

// ReplayLibrary builds the mask-replay layout for a seed: each clip of
// ILTClips becomes a cell, a tile cell places every clip once under its
// own seeded D4 orientation (as shapegen.DemoLibrary does, but drawn
// from the seed), and the top cell arrays the tile replayCols ×
// replayRows from a seeded origin. Orientation and translation do not
// change a clip's congruence class, so every seed replays the same five
// classes.
func ReplayLibrary(seed int64) *maskio.Library {
	clips := ILTClips(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	lib := &maskio.Library{Name: "perfbench-replay"}
	pitch := 0.0
	for _, c := range clips {
		bb := c.Target.Bounds()
		pitch = math.Max(pitch, math.Max(bb.W(), bb.H()))
	}
	pitch = math.Ceil(pitch) + 80
	tile := &maskio.Cell{Name: "tile"}
	for i, c := range clips {
		bb := c.Target.Bounds()
		orient := maskio.OrientIdentity
		if seed != DefaultSeed {
			orient = d4[rng.Intn(len(d4))]
		}
		lib.Cells = append(lib.Cells, &maskio.Cell{
			Name:       c.Name,
			Boundaries: []geom.Polygon{c.Target.Translate(geom.Pt(-bb.X0, -bb.Y0))},
		})
		// a rotated cell extends to negative coordinates of its frame;
		// centring each slot keeps neighbours apart for every orientation
		tile.Refs = append(tile.Refs, maskio.Ref{
			Cell: c.Name, Cols: 1, Rows: 1, Orient: orient,
			Origin: geom.Pt(float64(i)*2*pitch+pitch, pitch),
		})
	}
	lib.Cells = append(lib.Cells, tile)
	origin := geom.Pt(0, 0)
	if seed != DefaultSeed {
		origin = geom.Pt(float64(rng.Intn(clipOffsetRange)), float64(rng.Intn(clipOffsetRange)))
	}
	lib.Cells = append(lib.Cells, &maskio.Cell{Name: "top", Refs: []maskio.Ref{{
		Cell: "tile", Cols: replayCols, Rows: replayRows, Origin: origin,
		ColStep: geom.Pt(float64(2*len(clips))*pitch, 0), RowStep: geom.Pt(0, 2*pitch),
	}}})
	return lib
}

// Manhattan tile layout: manhattanSide × manhattanSide slots on a
// square grid, each holding one group that the engine solves as one
// region.
const (
	manhattanSide = 4
	// manhattanPitch is the slot pitch in nm. The widest group spans
	// about 200 nm, so neighbours sit over 100 nm apart — far beyond the
	// 2·(3σ+γ) = 41.5 nm interaction range that would merge regions.
	manhattanPitch = 320
	// every fourth group is an SRAF cluster: a main feature plus two bars
	srafEvery = 4
	// manhattanShapeSeed draws the groups' arm lengths and SRAF sizes.
	// It is fixed: arm lengths drawn per workload seed moved one op
	// between 1.8 and 5.1 s and the CD violations between 11 and 94
	// pixels across six seeds (see README.md).
	manhattanShapeSeed = 1
)

// ManhattanGroup is one region of the manhattan-mbfl tile.
type ManhattanGroup struct {
	Kind   string
	Shapes []geom.Polygon
}

// ManhattanTile returns the manhattan-mbfl instance for a seed:
// manhattanSide² groups on a square grid of slots, each either one
// rectilinear L, T, U, staircase or cross, or a maskfrac.SRAFCluster
// group (a main feature and two bars). Rectilinear shapes are built
// directly as vertex lists. The seed shuffles the order of the groups
// in the target list, which changes the instance the program receives,
// the engine's region numbering and the order of the stitched shot
// list, but not where any shape is: moving a group, even by whole
// nanometres, changed its region's solution (a tile moved to seeded
// offsets read 52–54 shots), so positions are fixed.
func ManhattanTile(seed int64) []ManhattanGroup {
	shapes := rand.New(rand.NewSource(manhattanShapeSeed))
	kinds := []string{"L", "T", "U", "stair", "cross"}
	n := manhattanSide * manhattanSide
	groups := make([]ManhattanGroup, n)
	for i := range groups {
		slot := geom.Pt(float64(i%manhattanSide*manhattanPitch), float64(i/manhattanSide*manhattanPitch))
		if i%srafEvery == srafEvery-1 {
			// SRAFCluster centres its group at (120, 120)
			var pgs []geom.Polygon
			for _, pg := range shapegen.SRAFCluster(shapes.Int63(), 2) {
				pgs = append(pgs, pg.Translate(slot))
			}
			groups[i] = ManhattanGroup{Kind: "sraf", Shapes: pgs}
			continue
		}
		kind := kinds[(i-i/srafEvery)%len(kinds)]
		groups[i] = ManhattanGroup{Kind: kind, Shapes: []geom.Polygon{rectilinear(kind, shapes).Translate(slot.Add(geom.Pt(40, 40)))}}
	}
	if seed != DefaultSeed {
		rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	}
	return groups
}

// ManhattanTargets flattens a tile into the NewMultiProblem target list.
func ManhattanTargets(groups []ManhattanGroup) []geom.Polygon {
	var out []geom.Polygon
	for _, g := range groups {
		out = append(out, g.Shapes...)
	}
	return out
}

// rectilinear builds one counterclockwise rectilinear polygon of the
// given kind with its bounding box at the origin. Arm lengths and
// widths are whole nanometres drawn from rng.
func rectilinear(kind string, rng *rand.Rand) geom.Polygon {
	n := func(lo, hi int) float64 { return float64(lo + rng.Intn(hi-lo+1)) }
	w := n(18, 28) // arm width
	switch kind {
	case "L":
		a, b := n(70, 130), n(70, 130)
		return poly(0, 0, a, 0, a, w, w, w, w, b, 0, b)
	case "T":
		a, b := n(90, 150), n(60, 110)
		x0 := math.Floor((a - w) / 2)
		return poly(x0, 0, x0+w, 0, x0+w, b-w, a, b-w, a, b, 0, b, 0, b-w, x0, b-w)
	case "U":
		a, b := n(90, 140), n(70, 120)
		return poly(0, 0, a, 0, a, b, a-w, b, a-w, w, w, w, w, b, 0, b)
	case "stair":
		steps := 3 + rng.Intn(2)
		sx, sy := n(24, 40), n(24, 40)
		// column s (from the left) is steps-s treads tall, so the
		// outline descends sx right and sy down per step
		pts := []float64{0, 0, float64(steps) * sx, 0}
		for s := steps; s >= 1; s-- {
			pts = append(pts, float64(s)*sx, float64(steps-s+1)*sy, float64(s-1)*sx, float64(steps-s+1)*sy)
		}
		return poly(pts...)
	default: // cross
		a := n(90, 140)
		c := math.Floor((a - w) / 2)
		return poly(c, 0, c+w, 0, c+w, c, a, c, a, c+w, c+w, c+w, c+w, a, c, a, c, c+w, 0, c+w, 0, c, c, c)
	}
}

// poly builds a polygon from flat x, y pairs.
func poly(xy ...float64) geom.Polygon {
	pg := make(geom.Polygon, 0, len(xy)/2)
	for i := 0; i+1 < len(xy); i += 2 {
		pg = append(pg, geom.Pt(xy[i], xy[i+1]))
	}
	return pg
}
