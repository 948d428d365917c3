// Command maskviz renders the stages of model-based mask fracturing to
// SVG, reproducing the paper's illustrations:
//
//	-stage rdp       boundary approximation + shot corner points (Fig 1)
//	-stage corner    iso-dose contour of a shot corner and Lth (Fig 2)
//	-stage coloring  corner points colored by shot assignment (Fig 3)
//	-stage final     target + final shot set
//
// Usage:
//
//	maskviz [-in shapes.msk] [-shape NAME] -stage final -out out.svg
package main

import (
	"flag"
	"fmt"
	"os"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/ebeam"
	"maskfrac/internal/fracture/mbf"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/svg"
)

// palette colors shot classes in the coloring stage.
var palette = []string{
	"#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
	"#46f0f0", "#f032e6", "#bcf60c", "#008080", "#9a6324",
}

func main() {
	var (
		in    = flag.String("in", "", "input .msk shape file (default: built-in ILT-1)")
		shape = flag.String("shape", "", "shape name (default: first)")
		stage = flag.String("stage", "final", "rdp, corner, coloring or final")
		out   = flag.String("out", "maskviz.svg", "output SVG file")
	)
	flag.Parse()
	var target maskfrac.Polygon
	if *in == "" {
		target = maskfrac.ILTSuite()[0].Target
	} else {
		s, err := maskio.LoadShape(*in, *shape)
		if err != nil {
			fatal(err)
		}
		target = s.Polygon
	}
	params := maskfrac.DefaultParams()
	p, err := cover.NewProblem(target, params)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	switch *stage {
	case "rdp":
		err = renderRDP(f, p)
	case "corner":
		err = renderCorner(f, params)
	case "coloring":
		err = renderColoring(f, p)
	case "final":
		err = renderFinal(f, p)
	default:
		err = fmt.Errorf("unknown stage %q", *stage)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

// renderRDP draws the original boundary, the simplified boundary and
// the extracted shot corner points (Fig 1).
func renderRDP(f *os.File, p *cover.Problem) error {
	pts, simplified, _ := mbf.ExtractCorners(p, mbf.Options{})
	c := svg.NewCanvas(p.Target.Bounds(), 4)
	c.Polygon(p.Target, "#eeeeee", "#aaaaaa", 0.3)
	c.Polygon(simplified, "none", "#d62728", 0.5)
	for _, cp := range pts {
		c.Circle(cp.P, 1.2, typeColor(cp.Type))
		c.Text(cp.P.Add(geom.Pt(1.5, 1.5)), 3, cp.Type.String())
	}
	_, err := c.WriteTo(f)
	return err
}

// renderCorner draws the rounded iso-dose contour at a shot corner and
// the 45° chord of length Lth it can write (Fig 2).
func renderCorner(f *os.File, params maskfrac.Params) error {
	model := ebeam.NewModel(params.Sigma)
	contour := model.CornerContour(params.Rho, 200)
	lth := model.Lth(params.Rho, params.Gamma)
	depth := model.CornerDepth(params.Rho)
	view := geom.Rect{X0: -3 * params.Sigma, Y0: -3 * params.Sigma, X1: params.Sigma, Y1: params.Sigma}
	c := svg.NewCanvas(view, 12)
	// the ideal sharp corner of the quarter-plane shot {x<=0, y<=0}
	c.Line(geom.Pt(view.X0, 0), geom.Pt(0, 0), "#333333", 0.12)
	c.Line(geom.Pt(0, view.Y0), geom.Pt(0, 0), "#333333", 0.12)
	c.Polyline(contour, "#1a5ac8", 0.15)
	// 45° chord at offset depth+gamma along the inward diagonal
	off := (depth + params.Gamma) / 2 // per-axis offset of the chord line
	half := lth / (2 * 1.4142135)
	a := geom.Pt(-off-half, -off+half)
	b := geom.Pt(-off+half, -off-half)
	c.Line(a, b, "#d62728", 0.15)
	c.Text(geom.Pt(view.X0+1, view.Y1-1.5), 1.4,
		fmt.Sprintf("Lth = %.1f nm, corner depth = %.1f nm", lth, depth))
	_, err := c.WriteTo(f)
	return err
}

// renderColoring draws corner points colored by their assigned shot
// plus the initial shots (Fig 3).
func renderColoring(f *os.File, p *cover.Problem) error {
	res := mbf.Fracture(p, mbf.Options{SkipRefinement: true})
	pts, _, _ := mbf.ExtractCorners(p, mbf.Options{})
	c := svg.NewCanvas(p.Target.Bounds(), 4)
	c.Polygon(p.Target, "#eeeeee", "#aaaaaa", 0.3)
	for i, s := range res.Shots {
		col := palette[i%len(palette)]
		c.Rect(s, "none", col, 0.4)
	}
	for _, cp := range pts {
		c.Circle(cp.P, 1.2, typeColor(cp.Type))
	}
	_, err := c.WriteTo(f)
	return err
}

// renderFinal draws the target and the refined shot set.
func renderFinal(f *os.File, p *cover.Problem) error {
	res := mbf.Fracture(p, mbf.Options{})
	view := p.Target.Bounds()
	for _, s := range res.Shots {
		view = view.Union(s)
	}
	c := svg.NewCanvas(view, 4)
	c.Polygon(p.Target, "#dddddd", "#333333", 0.4)
	for _, s := range res.Shots {
		c.Rect(s, "rgba(30,90,200,0.25)", "#1a5ac8", 0.3)
	}
	c.Text(geom.Pt(view.X0+2, view.Y1-3), 4,
		fmt.Sprintf("%d shots, %d failing pixels", len(res.Shots), res.Stats.Fail()))
	_, err := c.WriteTo(f)
	return err
}

func typeColor(t mbf.CornerType) string {
	switch t {
	case mbf.BL:
		return "#d62728"
	case mbf.BR:
		return "#2ca02c"
	case mbf.TL:
		return "#9467bd"
	default:
		return "#1f77b4"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maskviz:", err)
	os.Exit(1)
}
