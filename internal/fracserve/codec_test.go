package fracserve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
)

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fastPathInput reports whether b holds no null, no escape and no
// non-ASCII byte: encoding/json output that the fast path must read on
// its own.
func fastPathInput(b []byte) bool {
	if bytes.Contains(b, []byte("null")) || bytes.IndexByte(b, '\\') >= 0 {
		return false
	}
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// sameValue reports whether two decoded values are DeepEqual and
// marshal to the same bytes, which also tells -0 from +0.
func sameValue[T any](got, want T) bool {
	a, errA := json.Marshal(got)
	b, errB := json.Marshal(want)
	return reflect.DeepEqual(got, want) && errA == nil && errB == nil && bytes.Equal(a, b)
}

// FuzzRequestCodec checks the request codec against encoding/json on
// any body: decodeRequest and json.Decoder give the same error text
// and, on success, DeepEqual values that marshal to the same bytes;
// encodeRequest writes json.Marshal's bytes for the value; and the
// fast path alone reads whatever encoding/json writes without nulls,
// escapes or non-ASCII bytes.
func FuzzRequestCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want Request
		gotErr := decodeRequest(body, &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("decode %q: error %q, encoding/json %q", body, errText(gotErr), errText(wantErr))
		}
		if wantErr != nil {
			return
		}
		if !sameValue(got, want) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", body, got, want)
		}
		ref, refErr := json.Marshal(&want)
		enc, err := encodeRequest(&got)
		if errText(err) != errText(refErr) || !bytes.Equal(enc, ref) {
			t.Fatalf("encode %+v:\n got %s (%v)\nwant %s (%v)", got, enc, err, ref, refErr)
		}
		if fastPathInput(ref) {
			var r Request
			if d := (decoder{b: ref}); !d.request(&r) || !d.end() {
				t.Fatalf("fast path declined %s", ref)
			}
		}
	})
}

// FuzzResponseCodec is FuzzRequestCodec for replies, whose reference
// encoding is json.Encoder's, trailing newline included.
func FuzzResponseCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want Response
		gotErr := decodeResponse(body, &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("decode %q: error %q, encoding/json %q", body, errText(gotErr), errText(wantErr))
		}
		if wantErr != nil {
			return
		}
		if !sameValue(got, want) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", body, got, want)
		}
		var ref bytes.Buffer
		refErr := json.NewEncoder(&ref).Encode(&want)
		enc, err := encodeResponse(nil, &got)
		if errText(err) != errText(refErr) || !bytes.Equal(enc, ref.Bytes()) {
			t.Fatalf("encode %+v:\n got %s (%v)\nwant %s (%v)", got, enc, err, ref.Bytes(), refErr)
		}
		if fastPathInput(ref.Bytes()) {
			var r Response
			if d := (decoder{b: ref.Bytes()}); !d.response(&r) || !d.end() {
				t.Fatalf("fast path declined %s", ref.Bytes())
			}
		}
	})
}

// seedBody reads one body of the committed fuzz seed corpus.
func seedBody(tb testing.TB, target, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		tb.Fatalf("%s/%s is not a one-value corpus file", target, name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(s)
}

// TestCodecFloatText compares the encoder's number text with
// json.Marshal's at the format cutoffs, around 2^53, on signed zeros and
// subnormals, and its NaN and infinity errors with json.Marshal's.
func TestCodecFloatText(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{
		0, negZero, 1, -1, 70, -70, 0.5, 0.1, 123.456, -2.25, 1e20, 123456789012345680,
		1e-6, -1e-6, 9.99e-7, -9.99e-7, 1e-7, 1.5e-10, 1e-100,
		1e21, -1e21, 9.99e20, 1.5e21, 1e300, math.MaxFloat64, -math.MaxFloat64,
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 1, 1<<53 + 2, 1<<53 - 0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.225073858507201e-308, 2.2250738585072014e-308,
		14.998567388628135, 3.0806209356369427,
	} {
		e := encoder{}
		e.float(f)
		want, err := json.Marshal(f)
		if err != nil || e.bad || string(e.b) != string(want) {
			t.Errorf("%v (bits %#x): codec %q, json.Marshal %q", f, math.Float64bits(f), e.b, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := &Request{Shape: [][2]float64{{0, 0}, {f, 1}}, Params: &ParamsWire{Gamma: f}}
		_, want := json.Marshal(req)
		if _, err := encodeRequest(req); want == nil || errText(err) != errText(want) {
			t.Errorf("request with %v: error %v, json.Marshal %v", f, err, want)
		}
		resp := &Response{Results: []ItemResult{{Cost: f}}}
		want = json.NewEncoder(new(bytes.Buffer)).Encode(resp)
		if b, err := encodeResponse(nil, resp); want == nil || errText(err) != errText(want) || len(b) != 0 {
			t.Errorf("reply with %v: %q, error %v, json.Encoder %v", f, b, err, want)
		}
	}
}

// randFloat draws a finite float64: a whole or dyadic number of
// nanometres, a decimal, a signed zero, or any finite bit pattern.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(20001) - 10000)
	case 1:
		return float64(rng.Intn(1<<20)-1<<19) / 8
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	case 3:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randText draws a method, error or trace ID: plain ASCII mostly, now
// and then with bytes encoding/json escapes.
func randText(rng *rand.Rand) string {
	const plain = "abcdefghijklmnopqrstuvwxyz0123456789-_ :.()"
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = plain[rng.Intn(len(plain))]
	}
	if len(b) > 0 && rng.Intn(8) == 0 {
		const escaped = "\"<>&\n\x7f\xc3\xff"
		b[rng.Intn(len(b))] = escaped[rng.Intn(len(escaped))]
	}
	return string(b)
}

func randPoints(rng *rand.Rand) [][2]float64 {
	if rng.Intn(10) == 0 {
		return nil
	}
	ps := make([][2]float64, rng.Intn(8))
	for i := range ps {
		ps[i] = [2]float64{randFloat(rng), randFloat(rng)}
	}
	return ps
}

// TestCodecRandomValues encodes random requests and replies, every
// optional member present or absent, and checks the bytes against
// encoding/json's and the decoded values against json.Decoder's.
func TestCodecRandomValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		req := Request{Shape: randPoints(rng), Method: randText(rng), TimeoutMS: rng.Intn(3) * (rng.Intn(200000) - 100000),
			OmitShots: rng.Intn(2) == 0, ReturnTrace: rng.Intn(2) == 0}
		for i := rng.Intn(3); i > 0; i-- {
			req.Shapes = append(req.Shapes, randPoints(rng))
		}
		if rng.Intn(2) == 0 {
			req.Params = &ParamsWire{Sigma: randFloat(rng), Gamma: randFloat(rng), Rho: randFloat(rng), Pitch: randFloat(rng)}
		}
		if rng.Intn(2) == 0 {
			req.Options = &OptionsWire{MaxIterations: rng.Intn(2) * rng.Intn(5000), ColoringOrder: randText(rng), SkipRefinement: rng.Intn(2) == 0}
		}
		want, _ := json.Marshal(&req)
		if got, err := encodeRequest(&req); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("request %+v:\n got %s (%v)\nwant %s", req, got, err, want)
		}
		var got, ref Request
		err := decodeRequest(want, &got)
		if err != nil || json.Unmarshal(want, &ref) != nil || !sameValue(got, ref) {
			t.Fatalf("decode %s: %+v (%v), want %+v", want, got, err, ref)
		}

		var resp Response
		for i := rng.Intn(3); i > 0; i-- {
			it := ItemResult{Index: i, ShotCount: rng.Intn(20), FlashCount: rng.Intn(2) * (rng.Intn(40) - 20),
				FailOn: rng.Intn(5), FailOff: rng.Intn(5), Cost: randFloat(rng), Feasible: rng.Intn(2) == 0,
				CacheHit: rng.Intn(2) == 0, SolveMS: randFloat(rng), EvalMS: randFloat(rng)}
			if rng.Intn(4) == 0 {
				it.Error = randText(rng)
			}
			for k := rng.Intn(10); k > 0; k-- {
				it.Shots = append(it.Shots, [4]float64{randFloat(rng), randFloat(rng), randFloat(rng), randFloat(rng)})
			}
			for k := rng.Intn(3); k > 0; k-- {
				it.LPairs = append(it.LPairs, [2]int{rng.Intn(10), rng.Intn(10)})
			}
			resp.Results = append(resp.Results, it)
		}
		resp.Summary = Summary{Shapes: rng.Intn(5), Errors: rng.Intn(2), Shots: rng.Intn(50), Flashes: rng.Intn(2) * rng.Intn(50),
			Feasible: rng.Intn(5), CacheHits: rng.Intn(5)}
		resp.TraceID = randText(rng)
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(&resp)
		if got, err := encodeResponse(nil, &resp); err != nil || !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("reply %+v:\n got %s (%v)\nwant %s", resp, got, err, buf.Bytes())
		}
		var gotResp, refResp Response
		err = decodeResponse(buf.Bytes(), &gotResp)
		if err != nil || json.Unmarshal(buf.Bytes(), &refResp) != nil || !sameValue(gotResp, refResp) {
			t.Fatalf("decode %s: %+v (%v), want %+v", buf.Bytes(), gotResp, err, refResp)
		}
	}
}

// ilt2Request is the request the cluster client sends for the ILT-2
// class of the mask-replay workload: its canonical polygon, 128 integer
// vertices, under mbf.
func ilt2Request() *Request {
	can := shapecache.Canonicalize(shapegen.ILTShape(102, 3).Target)
	return &Request{Shape: maskio.PolygonWire(can.Poly), Method: "mbf"}
}

// TestDecodeRequestAllocs pins the allocations of decoding the ILT-2
// request: the Request itself, which escapes into the fallback decoder
// as it does in the handler, the vertex list and the method string.
func TestDecodeRequestAllocs(t *testing.T) {
	body, err := json.Marshal(ilt2Request())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var req Request
		if err := decodeRequest(body, &req); err != nil || len(req.Shape) != 128 {
			t.Fatalf("decode: %d vertices, %v", len(req.Shape), err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding the ILT-2 request takes %v allocations, want at most 3", allocs)
	}
}

func BenchmarkRequestCodec(b *testing.B) {
	req := ilt2Request()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = encodeRequest(req)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = json.Marshal(req)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Request
			if err := decodeRequest(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Request
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResponseCodec runs on the ILT-3 class's reply, eight shots.
func BenchmarkResponseCodec(b *testing.B) {
	body := seedBody(b, "FuzzResponseCodec", "replay-ILT-3")
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results[0].Shots) != 8 {
		b.Fatalf("reply: %v", err)
	}
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBytes, _ = encodeResponse(nil, &resp)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			json.NewEncoder(&buf).Encode(&resp)
			benchBytes = buf.Bytes()
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Response
			if err := decodeResponse(body, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Response
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchBytes keeps the encoders' output live.
var benchBytes []byte
