package fracserve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"maskfrac/internal/telemetry"
)

// The /fracture wire codec. encoding/json is the reference for both
// wire types, Request and Response: the encoder writes exactly the
// bytes json.Marshal writes (json.Encoder's for a reply, trailing
// newline included), and the decoder is a strict one-pass reader of
// the JSON that encoding/json itself writes. Anything else — an
// unknown, case-variant or repeated member, null, an escaped string, a
// number out of range or of the wrong kind, a vertex of other than two
// coordinates, bytes after the value — is decoded from the same bytes
// by json.Decoder, so every decoded value and every error text is
// encoding/json's. DESIGN.md ("Appendix: the /fracture wire codec")
// lists the rules.

// encodeRequest returns the bytes json.Marshal(req) returns.
func encodeRequest(req *Request) ([]byte, error) {
	n := 64
	for _, s := range req.Shapes {
		n += 16 * len(s)
	}
	e := encoder{b: make([]byte, 0, n+16*len(req.Shape))}
	e.request(req)
	if e.bad {
		return json.Marshal(req)
	}
	return e.b, nil
}

// encodeResponse writes into dst's backing array, growing it as
// needed, the bytes json.NewEncoder(w).Encode(resp) writes, its
// trailing newline included, and returns them.
func encodeResponse(dst []byte, resp *Response) ([]byte, error) {
	n := 256
	for i := range resp.Results {
		it := &resp.Results[i]
		n += 256 + 100*len(it.Shots) + 16*len(it.LPairs) + len(it.Error)
	}
	e := encoder{b: slices.Grow(dst[:0], n)}
	e.response(resp)
	if e.bad {
		buf := bytes.NewBuffer(e.b[:0])
		err := json.NewEncoder(buf).Encode(resp)
		return buf.Bytes(), err
	}
	return e.b, nil
}

// decodeRequest decodes body into req, which must be zero: the value
// and error json.NewDecoder(bytes.NewReader(body)).Decode(req) gives.
func decodeRequest(body []byte, req *Request) error {
	d := decoder{b: body}
	if d.request(req) && d.end() {
		return nil
	}
	*req = Request{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeResponse decodes body into resp, which must be zero: the value
// and error json.NewDecoder(bytes.NewReader(body)).Decode(resp) gives.
func decodeResponse(body []byte, resp *Response) error {
	d := decoder{b: body}
	if d.response(resp) && d.end() {
		return nil
	}
	*resp = Response{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(resp)
}

// bodyPrealloc bounds the buffer readFrom sizes from a declared length
// before any byte arrives, so that a Content-Length header alone cannot
// claim memory; a longer body grows the buffer as it is read.
const bodyPrealloc = 1 << 20

// wireBuf holds one /fracture wire body: the node's request body and
// its reply's encoding, and the client's reply body. Each comes from
// wireBufs and goes back with free once the body has been decoded or
// written. Nothing a decoder returns aliases the buffer (it copies
// every string and number it reads), and a writer has copied the bytes
// or sent them by the time Write returns, so nothing reads a buffer
// after free. A request body the client sends is never one of them:
// net/http may read it again through GetBody after the round trip.
type wireBuf struct{ b []byte }

// wireBufs holds the free wire buffers. A *wireBuf is a pointer, so
// putting one back allocates nothing.
var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledBuf is the largest buffer free keeps: 64 KiB holds a
// request of thousands of vertices or a reply of hundreds of shots,
// while a larger batch body, rarer and up to maxSolveBody long, is left
// to the GC rather than pinned in the pool.
const maxPooledBuf = 64 << 10

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

// free returns buf to the pool, or drops it when it outgrew
// maxPooledBuf. buf and every slice of its bytes are dead after free.
func (buf *wireBuf) free() {
	if cap(buf.b) <= maxPooledBuf {
		buf.b = buf.b[:0]
		wireBufs.Put(buf)
	}
}

// readFrom reads r to its end into buf, sized first from the declared
// length n (-1 when unknown). bytes.Buffer.ReadFrom keeps
// bytes.MinRead bytes free before each read, so a body of its declared
// length, up to bodyPrealloc, is read without growing the buffer.
func (buf *wireBuf) readFrom(r io.Reader, n int64) error {
	bb := bytes.NewBuffer(buf.b[:0])
	bb.Grow(int(min(max(n, 0), bodyPrealloc)) + bytes.MinRead)
	_, err := bb.ReadFrom(r)
	buf.b = bb.Bytes()
	return err
}

// encoder appends the JSON of the wire types to b.
type encoder struct {
	b []byte
	// bad records a NaN or an infinity, which JSON cannot carry; the
	// caller then encodes with encoding/json for its error
	bad bool
}

// member starts a member of the object whose '{' ends at b[:o]: a
// comma unless it is the object's first, then the quoted name and
// colon, given in name.
func (e *encoder) member(o int, name string) {
	if len(e.b) > o {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, name...)
}

func (e *encoder) request(r *Request) {
	e.b = append(e.b, '{')
	o := len(e.b)
	if len(r.Shape) > 0 {
		e.member(o, `"shape":`)
		e.points(r.Shape)
	}
	if len(r.Shapes) > 0 {
		e.member(o, `"shapes":[`)
		for i, s := range r.Shapes {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.points(s)
		}
		e.b = append(e.b, ']')
	}
	if r.Method != "" {
		e.member(o, `"method":`)
		e.str(r.Method)
	}
	if p := r.Params; p != nil {
		e.member(o, `"params":{`)
		po := len(e.b)
		for _, f := range []struct {
			name string
			v    float64
		}{
			{`"sigma":`, p.Sigma}, {`"gamma":`, p.Gamma}, {`"rho":`, p.Rho}, {`"pitch":`, p.Pitch},
			{`"lmin":`, p.Lmin}, {`"beta":`, p.Beta}, {`"eta":`, p.Eta},
		} {
			if f.v != 0 {
				e.member(po, f.name)
				e.float(f.v)
			}
		}
		e.b = append(e.b, '}')
	}
	if opt := r.Options; opt != nil {
		e.member(o, `"options":{`)
		oo := len(e.b)
		if opt.MaxIterations != 0 {
			e.member(oo, `"max_iterations":`)
			e.int(opt.MaxIterations)
		}
		if opt.ColoringOrder != "" {
			e.member(oo, `"coloring_order":`)
			e.str(opt.ColoringOrder)
		}
		if opt.SkipRefinement {
			e.member(oo, `"skip_refinement":true`)
		}
		e.b = append(e.b, '}')
	}
	if r.TimeoutMS != 0 {
		e.member(o, `"timeout_ms":`)
		e.int(r.TimeoutMS)
	}
	if r.OmitShots {
		e.member(o, `"omit_shots":true`)
	}
	if r.ReturnTrace {
		e.member(o, `"return_trace":true`)
	}
	e.b = append(e.b, '}')
}

func (e *encoder) response(r *Response) {
	e.b = append(e.b, `{"results":`...)
	if r.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.item(&r.Results[i])
		}
		e.b = append(e.b, ']')
	}
	s := &r.Summary
	e.b = append(e.b, `,"summary":{"shapes":`...)
	e.int(s.Shapes)
	e.b = append(e.b, `,"errors":`...)
	e.int(s.Errors)
	e.b = append(e.b, `,"shots":`...)
	e.int(s.Shots)
	if s.Flashes != 0 {
		e.b = append(e.b, `,"flashes":`...)
		e.int(s.Flashes)
	}
	e.b = append(e.b, `,"feasible":`...)
	e.int(s.Feasible)
	e.b = append(e.b, `,"cache_hits":`...)
	e.int(s.CacheHits)
	e.b = append(e.b, '}')
	if r.TraceID != "" {
		e.b = append(e.b, `,"trace_id":`...)
		e.str(r.TraceID)
	}
	if r.Trace != nil {
		t, err := json.Marshal(r.Trace)
		e.bad = e.bad || err != nil
		e.b = append(e.b, `,"trace":`...)
		e.b = append(e.b, t...)
	}
	e.b = append(e.b, "}\n"...)
}

func (e *encoder) item(it *ItemResult) {
	e.b = append(e.b, `{"index":`...)
	e.int(it.Index)
	if it.Error != "" {
		e.b = append(e.b, `,"error":`...)
		e.str(it.Error)
	}
	if len(it.Shots) > 0 {
		e.b = append(e.b, `,"shots":[`...)
		for i, s := range it.Shots {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '[')
			e.float(s[0])
			e.b = append(e.b, ',')
			e.float(s[1])
			e.b = append(e.b, ',')
			e.float(s[2])
			e.b = append(e.b, ',')
			e.float(s[3])
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, ']')
	}
	if len(it.LPairs) > 0 {
		e.b = append(e.b, `,"l_pairs":[`...)
		for i, p := range it.LPairs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, '[')
			e.int(p[0])
			e.b = append(e.b, ',')
			e.int(p[1])
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"shot_count":`...)
	e.int(it.ShotCount)
	if it.FlashCount != 0 {
		e.b = append(e.b, `,"flash_count":`...)
		e.int(it.FlashCount)
	}
	e.b = append(e.b, `,"fail_on":`...)
	e.int(it.FailOn)
	e.b = append(e.b, `,"fail_off":`...)
	e.int(it.FailOff)
	e.b = append(e.b, `,"cost":`...)
	e.float(it.Cost)
	e.b = append(e.b, `,"feasible":`...)
	e.bool(it.Feasible)
	e.b = append(e.b, `,"cache_hit":`...)
	e.bool(it.CacheHit)
	e.b = append(e.b, `,"solve_ms":`...)
	e.float(it.SolveMS)
	e.b = append(e.b, `,"eval_ms":`...)
	e.float(it.EvalMS)
	e.b = append(e.b, '}')
}

// points writes a vertex list; nil is null, as encoding/json writes it.
func (e *encoder) points(ps [][2]float64) {
	if ps == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, p := range ps {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, '[')
		e.float(p[0])
		e.b = append(e.b, ',')
		e.float(p[1])
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, ']')
}

// float writes f as encoding/json does: 'f' format, or 'e' format
// below 1e-6 or from 1e21 on in magnitude with a one-digit negative
// exponent unpadded. An integer below 2^53 in magnitude has the same
// digits in 'f' format as in decimal, so it is written as an integer.
func (e *encoder) float(f float64) {
	// int64(f) is implementation-defined out of int64's range, where the
	// round trip or the bounds fail whatever it gives
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 {
		if i == 0 && math.Signbit(f) {
			e.b = append(e.b, "-0"...)
			return
		}
		e.b = strconv.AppendInt(e.b, i, 10)
		return
	}
	switch a := math.Abs(f); {
	case a != a || a > math.MaxFloat64:
		e.bad = true
	case a < 1e-6 || a >= 1e21:
		e.b = strconv.AppendFloat(e.b, f, 'e', -1, 64)
		if n := len(e.b); e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	default:
		e.b = strconv.AppendFloat(e.b, f, 'f', -1, 64)
	}
}

func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, "true"...)
	} else {
		e.b = append(e.b, "false"...)
	}
}

// str writes s quoted. A string holding any byte that encoding/json
// escapes (control bytes, '"', '\\', the HTML-sensitive '<', '>' and
// '&', and every non-ASCII byte, whose UTF-8 it checks) is written by
// json.Marshal itself.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// decoder is the fast path: a cursor over one body that accepts only
// what it can decode exactly as encoding/json does. Each method
// returns false on anything else, leaving the cursor anywhere.
type decoder struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// tok consumes the byte c after any whitespace.
func (d *decoder) tok(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// object reads an object whose member names are all in names, each at
// most once, calling member with the name at each member's value,
// which member consumes. encoding/json would also match a name that
// differs in case; the fast path leaves that to it.
func (d *decoder) object(names []string, member func(name string) bool) bool {
	if !d.tok('{') {
		return false
	}
	if d.tok('}') {
		return true
	}
	var seen uint32
	for {
		raw, ok := d.plain()
		if !ok || !d.tok(':') {
			return false
		}
		k := 0
		for k < len(names) && names[k] != string(raw) {
			k++
		}
		if k == len(names) || seen&(1<<k) != 0 || !member(names[k]) {
			return false
		}
		seen |= 1 << k
		if !d.tok(',') {
			return d.tok('}')
		}
	}
}

// list reads an array into a slice of capacity n, calling elem on each
// appended zero element. An empty array gives an empty non-nil slice,
// as in encoding/json.
func list[T any](d *decoder, n int, elem func(*T) bool) ([]T, bool) {
	if !d.tok('[') {
		return nil, false
	}
	out := make([]T, 0, n)
	if d.tok(']') {
		return out, true
	}
	for {
		var zero T
		out = append(out, zero)
		if !elem(&out[len(out)-1]) {
			return nil, false
		}
		if !d.tok(',') {
			return out, d.tok(']')
		}
	}
}

// count returns the number of arrays nested one level inside the array
// at the cursor, reading ahead to its close without validating: the
// exact length of a well-formed vertex, shot or pair list, used as the
// capacity to decode it into.
func (d *decoder) count() int {
	n, depth := 0, 0
	for _, c := range d.b[d.i:] {
		if c < '[' {
			continue // digits, signs, points, commas and whitespace
		}
		switch c {
		case '[':
			if depth++; depth == 2 {
				n++
			}
		case ']':
			if depth--; depth <= 0 {
				return n
			}
		}
	}
	return n
}

// points reads a vertex list of exactly two numbers per vertex.
func (d *decoder) points() ([][2]float64, bool) {
	return list(d, d.count(), func(p *[2]float64) bool { return d.floats(p[:]) })
}

// floats reads an array of exactly len(dst) numbers into dst.
func (d *decoder) floats(dst []float64) bool {
	if !d.tok('[') {
		return false
	}
	for k := range dst {
		if k > 0 && !d.tok(',') {
			return false
		}
		f, ok := d.float()
		if !ok {
			return false
		}
		dst[k] = f
	}
	return d.tok(']')
}

// number scans the literal at the cursor if it follows JSON's number
// grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts
// one of at most 15 integer digits without fraction or exponent by
// hand: exact is then true and mag is its magnitude, exactly.
func (d *decoder) number() (lit []byte, mag int64, exact, ok bool) {
	d.ws()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		mag = mag*10 + int64(b[i]-'0') // wraps past 18 digits, unused then
	}
	if i == start || b[start] == '0' && i-start > 1 {
		return nil, 0, false, false
	}
	exact = i-start <= 15
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, 0, false, false
		}
		exact, i = false, digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, 0, false, false
		}
		exact, i = false, digits(b, i)
	}
	lit = b[d.i:i]
	d.i = i
	return lit, mag, exact, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number as encoding/json decodes it into a float64:
// strconv.ParseFloat, which an exact literal matches, -0 giving -0.
func (d *decoder) float() (float64, bool) {
	lit, mag, exact, ok := d.number()
	if !ok {
		return 0, false
	}
	if exact {
		f := float64(mag)
		if lit[0] == '-' {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int reads a number as encoding/json decodes it into an int: an
// integer literal that strconv.ParseInt reads and an int holds.
func (d *decoder) int() (int, bool) {
	lit, n, exact, ok := d.number()
	if !ok {
		return 0, false
	}
	if !exact {
		var err error
		if n, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
			return 0, false
		}
	} else if lit[0] == '-' {
		n = -n
	}
	return int(n), int64(int(n)) == n
}

// bool reads true or false.
func (d *decoder) bool() (bool, bool) {
	d.ws()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// plain returns the bytes of a string of printable ASCII without
// escapes, which decodes to itself.
func (d *decoder) plain() ([]byte, bool) {
	if !d.tok('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) str() (string, bool) {
	s, ok := d.plain()
	return string(s), ok
}

var (
	requestNames  = []string{"shape", "shapes", "method", "params", "options", "timeout_ms", "omit_shots", "return_trace"}
	paramsNames   = []string{"sigma", "gamma", "rho", "pitch", "lmin", "beta", "eta"}
	optionsNames  = []string{"max_iterations", "coloring_order", "skip_refinement"}
	responseNames = []string{"results", "summary", "trace_id", "trace"}
	itemNames     = []string{"index", "error", "shots", "l_pairs", "shot_count", "flash_count",
		"fail_on", "fail_off", "cost", "feasible", "cache_hit", "solve_ms", "eval_ms"}
	summaryNames = []string{"shapes", "errors", "shots", "flashes", "feasible", "cache_hits"}
)

func (d *decoder) request(r *Request) bool {
	return d.object(requestNames, func(name string) (ok bool) {
		switch name {
		case "shape":
			r.Shape, ok = d.points()
		case "shapes":
			r.Shapes, ok = list(d, 0, func(s *[][2]float64) (ok bool) {
				*s, ok = d.points()
				return ok
			})
		case "method":
			r.Method, ok = d.str()
		case "params":
			r.Params = new(ParamsWire)
			ok = d.params(r.Params)
		case "options":
			r.Options = new(OptionsWire)
			ok = d.options(r.Options)
		case "timeout_ms":
			r.TimeoutMS, ok = d.int()
		case "omit_shots":
			r.OmitShots, ok = d.bool()
		case "return_trace":
			r.ReturnTrace, ok = d.bool()
		}
		return ok
	})
}

func (d *decoder) params(p *ParamsWire) bool {
	return d.object(paramsNames, func(name string) (ok bool) {
		switch name {
		case "sigma":
			p.Sigma, ok = d.float()
		case "gamma":
			p.Gamma, ok = d.float()
		case "rho":
			p.Rho, ok = d.float()
		case "pitch":
			p.Pitch, ok = d.float()
		case "lmin":
			p.Lmin, ok = d.float()
		case "beta":
			p.Beta, ok = d.float()
		case "eta":
			p.Eta, ok = d.float()
		}
		return ok
	})
}

func (d *decoder) options(o *OptionsWire) bool {
	return d.object(optionsNames, func(name string) (ok bool) {
		switch name {
		case "max_iterations":
			o.MaxIterations, ok = d.int()
		case "coloring_order":
			o.ColoringOrder, ok = d.str()
		case "skip_refinement":
			o.SkipRefinement, ok = d.bool()
		}
		return ok
	})
}

func (d *decoder) response(r *Response) bool {
	return d.object(responseNames, func(name string) (ok bool) {
		switch name {
		case "results":
			r.Results, ok = list(d, 0, d.item)
		case "summary":
			ok = d.summary(&r.Summary)
		case "trace_id":
			r.TraceID, ok = d.str()
		case "trace":
			ok = d.trace(&r.Trace)
		}
		return ok
	})
}

func (d *decoder) item(it *ItemResult) bool {
	return d.object(itemNames, func(name string) (ok bool) {
		switch name {
		case "index":
			it.Index, ok = d.int()
		case "error":
			it.Error, ok = d.str()
		case "shots":
			it.Shots, ok = list(d, d.count(), func(s *[4]float64) bool { return d.floats(s[:]) })
		case "l_pairs":
			it.LPairs, ok = list(d, d.count(), func(p *[2]int) (ok bool) {
				if !d.tok('[') {
					return false
				}
				if p[0], ok = d.int(); !ok || !d.tok(',') {
					return false
				}
				if p[1], ok = d.int(); !ok {
					return false
				}
				return d.tok(']')
			})
		case "shot_count":
			it.ShotCount, ok = d.int()
		case "flash_count":
			it.FlashCount, ok = d.int()
		case "fail_on":
			it.FailOn, ok = d.int()
		case "fail_off":
			it.FailOff, ok = d.int()
		case "cost":
			it.Cost, ok = d.float()
		case "feasible":
			it.Feasible, ok = d.bool()
		case "cache_hit":
			it.CacheHit, ok = d.bool()
		case "solve_ms":
			it.SolveMS, ok = d.float()
		case "eval_ms":
			it.EvalMS, ok = d.float()
		}
		return ok
	})
}

func (d *decoder) summary(s *Summary) bool {
	return d.object(summaryNames, func(name string) (ok bool) {
		switch name {
		case "shapes":
			s.Shapes, ok = d.int()
		case "errors":
			s.Errors, ok = d.int()
		case "shots":
			s.Shots, ok = d.int()
		case "flashes":
			s.Flashes, ok = d.int()
		case "feasible":
			s.Feasible, ok = d.int()
		case "cache_hits":
			s.CacheHits, ok = d.int()
		}
		return ok
	})
}

// trace hands the span tree, an object, to json.Unmarshal, which
// validates and decodes it as the reply's decoder would.
func (d *decoder) trace(t **telemetry.SpanWire) bool {
	if !d.tok('{') {
		return false
	}
	start, depth := d.i-1, 1
	for depth > 0 && d.i < len(d.b) {
		switch d.b[d.i] {
		case '"':
			for d.i++; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
				if d.b[d.i] == '\\' {
					d.i++
				}
			}
		case '{':
			depth++
		case '}':
			depth--
		}
		d.i++
	}
	return depth == 0 && json.Unmarshal(d.b[start:d.i], t) == nil
}
