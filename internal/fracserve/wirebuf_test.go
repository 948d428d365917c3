package fracserve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"maskfrac"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
)

// maskTraceID blanks the 32 hex digits of a reply's trace_id, the one
// field of a hit's reply that differs from request to request.
func maskTraceID(b []byte) []byte {
	b = bytes.Clone(b)
	key := []byte(`"trace_id":"`)
	if i := bytes.Index(b, key); i >= 0 && len(b) >= i+len(key)+32 {
		copy(b[i+len(key):], bytes.Repeat([]byte("x"), 32))
	}
	return b
}

// maxHitAllocs bounds TestFractureHitAllocs: the node's share of a
// cache-hit round trip read 88 allocations before the wire buffers were
// pooled, the vertices viewed in place and span attributes formatted
// without fmt, and 65 after; 11 of them are httptest's recorder and
// request.
const maxHitAllocs = 68

// TestFractureHitAllocs serves a cache hit through the handler alone,
// with an httptest recorder, and holds its allocations to maxHitAllocs.
// Each reply must be the first one but for its trace ID, however the
// pooled buffers behind it were used before.
func TestFractureHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	clip := shapegen.ILTSuite()[1].Target
	warm(t, s, clip, maskfrac.MethodProtoEDA)
	body, err := encodeRequest(&Request{Shape: maskio.PolygonWire(congruentCopy(clip, shapecache.MirrorY, geom.Pt(-0.625, 96.5))), Method: "proto-eda"})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fracture", bytes.NewReader(body)))
		return rec
	}
	first := serve()
	if first.Code != http.StatusOK || !bytes.Contains(first.Body.Bytes(), []byte(`"cache_hit":true`)) {
		t.Fatalf("not a cache hit: %d %s", first.Code, first.Body)
	}
	want := maskTraceID(first.Body.Bytes())
	var rec *httptest.ResponseRecorder
	n := testing.AllocsPerRun(200, func() { rec = serve() })
	if got := maskTraceID(rec.Body.Bytes()); !bytes.Equal(got, want) {
		t.Fatalf("reply changed:\n%s\nwant\n%s", got, want)
	}
	t.Logf("%v allocations per hit", n)
	// the race detector drops a share of sync.Pool puts on purpose
	if !raceEnabled && n > maxHitAllocs {
		t.Errorf("%v allocations per hit, want at most %d", n, maxHitAllocs)
	}
}

// TestWireBufReuse checks the pool's two rules: a buffer goes back
// without allocating and is reused, and one that outgrew maxPooledBuf
// is dropped.
func TestWireBufReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of sync.Pool puts on purpose")
	}
	n := testing.AllocsPerRun(100, func() {
		buf := getWireBuf()
		buf.b = append(buf.b, "{}"...)
		buf.free()
	})
	if n != 0 {
		t.Errorf("get, write and free: %v allocations, want 0", n)
	}
	big := getWireBuf()
	big.b = make([]byte, 0, maxPooledBuf+1)
	big.free()
	for range 100 {
		if buf := getWireBuf(); cap(buf.b) > maxPooledBuf {
			t.Fatalf("the pool kept a %d-byte buffer", cap(buf.b))
		}
	}
}

// TestPooledBuffersConcurrent drives one node from many goroutines with
// a mix that takes wire buffers from the pool and returns them on every
// path: hits of distinct classes, misses, malformed bodies and
// return_trace requests, sent raw and through Client.Do. Each reply
// must be its own request's expected reply, which a buffer returned
// while still in use, or held by two requests at once, would break.
func TestPooledBuffersConcurrent(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 256})
	ctx := context.Background()
	const m = "test-bounds"
	bases := []geom.Polygon{testL(), staircase(40), testShape(50), shapegen.ILTSuite()[1].Target}
	for _, pg := range bases {
		warm(t, s, pg, m)
	}
	post := func(body []byte) (int, []byte) {
		resp, err := http.Post(c.BaseURL+"/fracture", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// a raw request and the reply it must get, trace ID masked
	type exchange struct {
		body []byte
		code int
		want []byte
	}
	var raw []exchange
	hits := make([]*Request, 0, len(bases)*2)
	for k, pg := range bases {
		for _, tr := range []shapecache.Transform{shapecache.Rot90, shapecache.AntiTranspose} {
			req := &Request{Shape: maskio.PolygonWire(congruentCopy(pg, tr, geom.Pt(float64(k)*100.5, -64))), Method: m}
			hits = append(hits, req)
			body, err := encodeRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, exchange{body: body})
		}
	}
	for _, body := range []string{
		`{"shape":`, ``, `{"shape":[[0,0],[1,0]],"method":"test-bounds"}`, `{"shape":[[0,0],[9,0],[9,9]],"method":"nope"}`,
		// a congruent copy of the warmed 50 nm square, decoded by the
		// encoding/json fallback, and a batch of a bad shape and a copy
		"{ \"SHAPE\" : [[10,10],[60,10],[60,60],[10,60]], \"method\": \"test-bound\\u0073\" }\n",
		`{"shapes":[[[0,0],[1,1]],[[5,5],[55,5],[55,55],[5,55]]],"method":"test-bounds","omit_shots":true}`,
	} {
		raw = append(raw, exchange{body: []byte(body)})
	}
	for i := range raw {
		raw[i].code, raw[i].want = post(raw[i].body)
		raw[i].want = maskTraceID(raw[i].want)
	}
	wantHits := make([]*Response, len(hits))
	for i, req := range hits {
		resp, err := c.Do(ctx, req)
		if err != nil || !resp.Results[0].CacheHit {
			t.Fatalf("hit %d: err %v, %+v", i, err, resp)
		}
		wantHits[i] = resp
	}

	const goroutines, rounds = 8, 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := g*rounds + r
				switch i % 4 {
				case 0, 1: // raw hits and bad bodies, byte for byte
					x := raw[i%len(raw)]
					if code, got := post(x.body); code != x.code || !bytes.Equal(maskTraceID(got), x.want) {
						t.Errorf("%s: got %d %s, want %d %s", x.body, code, got, x.code, x.want)
					}
				case 2: // a hit with its trace, decoded by the client
					k := i % len(hits)
					req := *hits[k]
					req.ReturnTrace = true
					checkHit(t, c, &req, wantHits[k])
				case 3: // a miss: a square no request has sent before
					side := 60 + float64(i)/2
					resp, err := c.Do(ctx, &Request{Shape: maskio.PolygonWire(testShape(side)), Method: m})
					if err != nil {
						t.Errorf("miss %v: %v", side, err)
						continue
					}
					want := fmt.Sprintf("[[0 0 %v %v]]", side, side)
					if it := resp.Results[0]; it.CacheHit || it.Error != "" || fmt.Sprint(it.Shots) != want {
						t.Errorf("miss %v: got %+v, want shots %s", side, it, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// checkHit sends req and checks the reply against want: the same
// results and summary, and a trace of one fracd.shape span that
// carries the hit.
func checkHit(t *testing.T, c *Client, req *Request, want *Response) {
	t.Helper()
	resp, err := c.Do(context.Background(), req)
	if err != nil {
		t.Errorf("hit: %v", err)
		return
	}
	got, w := *resp, *want
	got.TraceID, got.Trace, w.TraceID, w.Trace = "", nil, "", nil
	if a, b := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", w); a != b {
		t.Errorf("hit reply %s, want %s", a, b)
	}
	tr := resp.Trace
	if tr == nil || tr.Name != "fracd.fracture" || len(tr.Children) != 1 || tr.Children[0].Name != "fracd.shape" {
		t.Errorf("hit trace %+v, want fracd.fracture over one fracd.shape", tr)
		return
	}
	shots := strconv.Itoa(want.Results[0].ShotCount)
	if sh := tr.Children[0]; attr(sh, "cache_hit") != "true" || attr(sh, "shots") != shots || attr(sh, "index") != "0" {
		t.Errorf("fracd.shape attrs %+v, want a hit of %s shots", sh.Attrs, shots)
	}
}
