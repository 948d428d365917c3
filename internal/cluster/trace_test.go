package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maskfrac/internal/geom"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/telemetry"
)

func attrValue(s *telemetry.Span, key string) (any, bool) {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestClusterTraceStitching is the cross-node waterfall: a traced
// SolveClass must yield one tree — cluster.class → cluster.attempt →
// the node's fracd.fracture (adopted from the wire) → fracd.shape →
// solver phases — every span sharing the caller's trace ID, with the
// remote root's parent pointing at the attempt span.
func TestClusterTraceStitching(t *testing.T) {
	c, _ := startCluster(t, 2, Config{})
	poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(75, 0), geom.Pt(75, 45), geom.Pt(0, 45)}
	can := shapecache.Canonicalize(poly)
	key := can.KeyWith([]byte("proto-eda"))

	ctx, root := telemetry.WithTrace(context.Background(), "test-solve")
	res, err := c.SolveClass(ctx, key, can.Poly)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	class := root.Find("cluster.class")
	if class == nil {
		t.Fatal("no cluster.class span")
	}
	att := class.Find("cluster.attempt")
	if att == nil {
		t.Fatal("no cluster.attempt span")
	}
	if kind, _ := attrValue(att, "kind"); kind != "primary" {
		t.Errorf("attempt kind = %v, want primary", kind)
	}
	node, _ := attrValue(att, "node")
	if node != res.Node {
		t.Errorf("attempt node = %v, winner = %s", node, res.Node)
	}
	// the request ID is derived from the trace so both sides grep alike
	rid, ok := attrValue(att, "request_id")
	if !ok {
		t.Fatal("attempt has no request_id attr")
	}
	wantPrefix := "t" + root.TraceID()[:16]
	if rid.(string) != wantPrefix {
		t.Errorf("request_id = %v, want %s", rid, wantPrefix)
	}

	remote := att.Find("fracd.fracture")
	if remote == nil {
		t.Fatal("remote fracd.fracture span not stitched in")
	}
	if remote.TraceID() != root.TraceID() {
		t.Errorf("remote span trace %q, want %q", remote.TraceID(), root.TraceID())
	}
	if p := remote.Wire().ParentID; p != att.ID() {
		t.Errorf("remote root parent %q, want attempt span %q", p, att.ID())
	}
	if remote.Find("fracd.shape") == nil {
		t.Error("remote tree has no fracd.shape span")
	}
	if remote.Find("solve") == nil {
		t.Error("remote tree has no solver phase span")
	}

	// the whole thing renders as one waterfall
	var sb strings.Builder
	root.WriteTree(&sb)
	for _, want := range []string{"cluster.class", "cluster.attempt", "fracd.fracture", "fracd.shape"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("waterfall missing %s:\n%s", want, sb.String())
		}
	}
}

// TestClusterTraceHedgeSiblings: a hedged solve shows both attempts as
// sibling spans, the hedge carrying its "-h" request-ID suffix.
func TestClusterTraceHedgeSiblings(t *testing.T) {
	c, nodes := startCluster(t, 2, Config{
		HedgeDelay: 30 * time.Millisecond,
		Fallbacks:  1,
	})
	poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(64, 0), geom.Pt(64, 48), geom.Pt(0, 48)}
	can := shapecache.Canonicalize(poly)
	key := can.KeyWith([]byte("proto-eda"))

	cands := c.ring.LookupN(key, 2)
	byID := map[string]*testNode{}
	for _, n := range nodes {
		byID[n.id] = n
	}
	byID[cands[0]].delay.Store(int64(2 * time.Second))

	ctx, root := telemetry.WithTrace(context.Background(), "test-hedge")
	if _, err := c.SolveClass(ctx, key, can.Poly); err != nil {
		t.Fatal(err)
	}
	root.End()

	class := root.Find("cluster.class")
	if class == nil {
		t.Fatal("no cluster.class span")
	}
	kinds := map[string]string{} // kind -> request_id
	for _, ch := range class.Children() {
		if ch.Name != "cluster.attempt" {
			continue
		}
		kind, _ := attrValue(ch, "kind")
		rid, _ := attrValue(ch, "request_id")
		kinds[fmt.Sprint(kind)] = fmt.Sprint(rid)
	}
	if len(kinds) != 2 {
		t.Fatalf("attempt kinds = %v, want primary + hedge siblings", kinds)
	}
	base := "t" + root.TraceID()[:16]
	if kinds["primary"] != base {
		t.Errorf("primary request_id = %q, want %q", kinds["primary"], base)
	}
	if kinds["hedge"] != base+"-h" {
		t.Errorf("hedge request_id = %q, want %q", kinds["hedge"], base+"-h")
	}
}

// TestClusterStatusView exercises the /clusterz aggregation: every node
// answers with stats, metrics-derived quantiles and its ring ownership
// share, and the HTTP handler serves both JSON and text.
func TestClusterStatusView(t *testing.T) {
	c, _ := startCluster(t, 3, Config{})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		w := float64(50 + 3*i)
		poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, 33), geom.Pt(0, 33)}
		can := shapecache.Canonicalize(poly)
		if _, err := c.SolveClass(ctx, can.KeyWith([]byte("proto-eda")), can.Poly); err != nil {
			t.Fatal(err)
		}
	}

	cs := c.ClusterStatus(ctx)
	if len(cs.Nodes) != 3 {
		t.Fatalf("rows = %d, want 3", len(cs.Nodes))
	}
	var share float64
	var reqs uint64
	for _, n := range cs.Nodes {
		if n.Err != "" {
			t.Errorf("node %s poll failed: %s", n.ID, n.Err)
		}
		if n.OwnershipShare <= 0 || n.OwnershipShare >= 1 {
			t.Errorf("node %s ownership share %v", n.ID, n.OwnershipShare)
		}
		share += n.OwnershipShare
		reqs += n.Requests
		if n.Workers <= 0 || n.QueueCapacity <= 0 {
			t.Errorf("node %s config row: %+v", n.ID, n)
		}
		if n.Requests > 0 && (n.P99MS <= 0 || n.P99MS < n.P50MS) {
			t.Errorf("node %s quantiles p50=%v p99=%v", n.ID, n.P50MS, n.P99MS)
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("ownership shares sum to %v, want 1", share)
	}
	if reqs < 6 {
		t.Errorf("cluster-wide requests = %d, want >= 6", reqs)
	}

	// HTTP handler: JSON
	h := StatusHandler(c)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/clusterz", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /clusterz: %d", rec.Code)
	}
	var decoded ClusterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("decode /clusterz: %v", err)
	}
	if len(decoded.Nodes) != 3 {
		t.Errorf("JSON rows = %d", len(decoded.Nodes))
	}
	// text
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/clusterz?format=text", nil))
	if !strings.Contains(rec.Body.String(), "node") || !strings.Contains(rec.Body.String(), "routing:") {
		t.Errorf("text view:\n%s", rec.Body.String())
	}
}
