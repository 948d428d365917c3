package maskio_test

import (
	"bytes"
	"reflect"
	"testing"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapegen"
)

// maxFuzzGDSBytes bounds the stream FuzzReadGDSLib reads: the fuzzer
// shrinks every input it finds interesting by trying to delete each run
// of its bytes, a number of calls quadratic in the input's length. One
// ILT clip written alone fits.
const maxFuzzGDSBytes = 2048

// seedLibraries are the libraries whose WriteGDSLib streams seed
// FuzzReadGDSLib: a hierarchy whose references take every orientation,
// SREFs and AREFs, and each Table 2 ILT clip alone in a library.
func seedLibraries() []*maskio.Library {
	leaf := &maskio.Cell{Name: "leaf", Boundaries: []geom.Polygon{
		{geom.Pt(0, 0), geom.Pt(60, 0), geom.Pt(60, 20), geom.Pt(20, 20), geom.Pt(20, 80), geom.Pt(0, 80)},
		{geom.Pt(100, 0), geom.Pt(130.5, 0), geom.Pt(130.5, 10.25), geom.Pt(100, 10.25)},
	}}
	orients := &maskio.Cell{Name: "orients"}
	for o := maskio.OrientIdentity; o <= maskio.OrientAntiTranspose; o++ {
		orients.Refs = append(orients.Refs, maskio.Ref{Cell: "leaf", Orient: o, Origin: geom.Pt(300*float64(o), -150), Cols: 1, Rows: 1})
	}
	top := &maskio.Cell{Name: "top", Refs: []maskio.Ref{
		{Cell: "orients", Origin: geom.Pt(0, 0), Cols: 3, Rows: 2, ColStep: geom.Pt(2500, 0), RowStep: geom.Pt(0, 400)},
		{Cell: "leaf", Orient: maskio.OrientRot270, Origin: geom.Pt(-500, 7.5), Cols: 1, Rows: 4, RowStep: geom.Pt(-3, 200)},
		{Cell: "leaf", Orient: maskio.OrientMirrorY, Origin: geom.Pt(1e4, -1e4), Cols: 1, Rows: 1},
	}}
	libs := []*maskio.Library{{Name: "hierarchy", Cells: []*maskio.Cell{leaf, orients, top}}}
	for _, s := range shapegen.ILTSuite() {
		libs = append(libs, &maskio.Library{Name: s.Name, Cells: []*maskio.Cell{
			{Name: s.Name, Boundaries: []geom.Polygon{s.Target}},
		}})
	}
	return libs
}

// FuzzReadGDSLib checks ReadGDSLib on any stream of at most
// maxFuzzGDSBytes bytes: it returns a library or an error and never
// panics, and a library it returns writes with WriteGDSLib and reads
// back equal. The seeds are the WriteGDSLib streams of seedLibraries;
// testdata/fuzz/FuzzReadGDSLib adds two streams that once read back
// changed: a library name padded with two NULs and a one-by-one AREF
// with step vectors.
func FuzzReadGDSLib(f *testing.F) {
	for _, lib := range seedLibraries() {
		var buf bytes.Buffer
		if err := maskio.WriteGDSLib(&buf, lib); err != nil {
			f.Fatal(err)
		}
		if buf.Len() > maxFuzzGDSBytes {
			f.Fatalf("seed %s: %d bytes, more than the fuzzer reads", lib.Name, buf.Len())
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxFuzzGDSBytes)]
		lib, err := maskio.ReadGDSLib(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := maskio.WriteGDSLib(&buf, lib); err != nil {
			t.Fatalf("the library read from %q does not write: %v", data, err)
		}
		back, err := maskio.ReadGDSLib(&buf)
		if err != nil {
			t.Fatalf("the library read from %q does not read back: %v", data, err)
		}
		if !reflect.DeepEqual(back, lib) {
			t.Fatalf("the library read from %q reads back changed:\n got %+v\nwant %+v", data, back, lib)
		}
	})
}
