// Package maskio reads and writes mask shapes and shot lists in small
// text formats, replacing the OpenAccess API the paper's implementation
// uses for layout I/O.
//
// Shape format (.msk): one shape per block.
//
//	shape <name>
//	v <x> <y>        # one vertex per line, in order
//	end
//
// Lines starting with '#' and blank lines are ignored. Shot list format
// (.shots): one shot per line, "x0 y0 x1 y1".
package maskio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"maskfrac/internal/geom"
)

// NamedShape couples a polygon with its benchmark name.
type NamedShape struct {
	Name    string
	Polygon geom.Polygon
}

// WriteShapes writes shapes in .msk format.
func WriteShapes(w io.Writer, shapes []NamedShape) error {
	bw := bufio.NewWriter(w)
	for _, s := range shapes {
		if _, err := fmt.Fprintf(bw, "shape %s\n", s.Name); err != nil {
			return err
		}
		for _, p := range s.Polygon {
			if _, err := fmt.Fprintf(bw, "v %g %g\n", p.X, p.Y); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "end"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadShape opens the .msk file at path and returns the shape called
// name, or the file's first shape when name is "".
func LoadShape(path, name string) (NamedShape, error) {
	f, err := os.Open(path)
	if err != nil {
		return NamedShape{}, err
	}
	defer f.Close()
	shapes, err := ReadShapes(f)
	if err != nil {
		return NamedShape{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(shapes) == 0 {
		return NamedShape{}, fmt.Errorf("no shapes in %s", path)
	}
	if name == "" {
		return shapes[0], nil
	}
	for _, s := range shapes {
		if s.Name == name {
			return s, nil
		}
	}
	return NamedShape{}, fmt.Errorf("shape %q not found in %s", name, path)
}

// ReadShapes parses .msk-format shapes.
func ReadShapes(r io.Reader) ([]NamedShape, error) {
	sc := bufio.NewScanner(r)
	var shapes []NamedShape
	var cur *NamedShape
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "shape":
			if cur != nil {
				return nil, fmt.Errorf("maskio: line %d: nested shape", line)
			}
			name := "unnamed"
			if len(fields) > 1 {
				name = fields[1]
			}
			cur = &NamedShape{Name: name}
		case "v":
			if cur == nil {
				return nil, fmt.Errorf("maskio: line %d: vertex outside shape", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("maskio: line %d: want 'v x y'", line)
			}
			x, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("maskio: line %d: %v", line, err)
			}
			y, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("maskio: line %d: %v", line, err)
			}
			cur.Polygon = append(cur.Polygon, geom.Pt(x, y))
		case "end":
			if cur == nil {
				return nil, fmt.Errorf("maskio: line %d: end outside shape", line)
			}
			if err := cur.Polygon.Validate(); err != nil {
				return nil, fmt.Errorf("maskio: shape %q: %w", cur.Name, err)
			}
			shapes = append(shapes, *cur)
			cur = nil
		default:
			return nil, fmt.Errorf("maskio: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("maskio: unterminated shape %q", cur.Name)
	}
	return shapes, nil
}

// WriteShots writes a shot list, one "x0 y0 x1 y1" per line.
func WriteShots(w io.Writer, shots []geom.Rect) error {
	bw := bufio.NewWriter(w)
	for _, s := range shots {
		if _, err := fmt.Fprintf(bw, "%g %g %g %g\n", s.X0, s.Y0, s.X1, s.Y1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadShots parses a shot list written by WriteShots.
func ReadShots(r io.Reader) ([]geom.Rect, error) {
	sc := bufio.NewScanner(r)
	var shots []geom.Rect
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("maskio: line %d: want 'x0 y0 x1 y1'", line)
		}
		var v [4]float64
		for i, f := range fields {
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("maskio: line %d: %v", line, err)
			}
			v[i] = x
		}
		r := geom.Rect{X0: v[0], Y0: v[1], X1: v[2], Y1: v[3]}
		if !r.Valid() || r.Empty() {
			return nil, fmt.Errorf("maskio: line %d: invalid shot %v", line, r)
		}
		shots = append(shots, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return shots, nil
}
