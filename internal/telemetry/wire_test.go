package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWireRoundTrip(t *testing.T) {
	ctx, root := WithTrace(context.Background(), "root")
	root.Set("k", 7)
	cctx, child := StartSpan(ctx, "solve")
	_, grand := StartSpan(cctx, "refine")
	grand.Set("shots", 42)
	grand.End()
	child.End()
	root.End()

	w := root.Wire()
	buf, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanWire
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "root" || back.ID != root.ID() {
		t.Fatalf("root wire = %+v", back)
	}
	if back.Find("refine") == nil {
		t.Fatal("refine span lost on the wire")
	}
	if got := back.Find("refine").Attrs; len(got) != 1 || got[0].K != "shots" || got[0].V != "42" {
		t.Fatalf("refine attrs = %+v", got)
	}

	re := back.Span()
	if re.Find("refine") == nil || re.Find("solve") == nil {
		t.Fatal("reconstructed tree missing spans")
	}
	if re.Find("solve").Duration() != child.Duration() {
		t.Fatalf("reconstructed duration %v != %v", re.Find("solve").Duration(), child.Duration())
	}
	if re.Find("solve").ID() != child.ID() {
		t.Fatalf("reconstructed id %s != %s", re.Find("solve").ID(), child.ID())
	}
}

// TestWireAttrText checks that Wire writes every kind of attribute
// value Span.Set is given as fmt.Sprint writes it, through the strconv
// fast paths and the fmt fallback alike.
func TestWireAttrText(t *testing.T) {
	type named string
	values := []any{
		"", "mbf", "a b=c", "\x00\u00e9",
		0, 7, -42, math.MaxInt, math.MinInt,
		int64(0), int64(-1) << 40, int64(math.MaxInt64), int64(math.MinInt64),
		uint64(0), uint64(1) << 63, uint64(math.MaxUint64),
		true, false,
		0.0, math.Copysign(0, -1), 0.1, -2.5, 1e6, 1e21, 1e-7, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		float32(0.1), int32(-3), uint(9), named("x"), time.Millisecond, nil,
	}
	_, root := WithTrace(context.Background(), "root")
	for i, v := range values {
		root.Set(strconv.Itoa(i), v)
	}
	root.End()
	w := root.Wire()
	if len(w.Attrs) != len(values) {
		t.Fatalf("%d attrs on the wire, want %d", len(w.Attrs), len(values))
	}
	for i, v := range values {
		if a := w.Attrs[i]; a.K != strconv.Itoa(i) || a.V != fmt.Sprint(v) {
			t.Errorf("%T %v: wire attr %q=%q, want %q", v, v, a.K, a.V, fmt.Sprint(v))
		}
	}
}

func TestWireElidesLongSiblingRuns(t *testing.T) {
	_, root := WithTrace(context.Background(), "root")
	for i := 0; i < 100; i++ {
		it := root.Child("iter")
		time.Sleep(time.Microsecond)
		it.End()
	}
	root.End()
	w := root.Wire()
	if len(w.Children) != maxWireSiblings+1 {
		t.Fatalf("wire children = %d, want %d shown + 1 summary", len(w.Children), maxWireSiblings)
	}
	last := w.Children[len(w.Children)-1]
	if last.Elided != 100-maxWireSiblings || last.Name != "iter" {
		t.Fatalf("summary node = %+v", last)
	}
	if w.SpanCount() != maxWireSiblings+2 {
		t.Fatalf("span count = %d", w.SpanCount())
	}
}

func TestAdoptWireStitches(t *testing.T) {
	// remote process: adopted trace, phase spans
	_, caller := WithTrace(context.Background(), "caller")
	attempt := caller.Child("cluster.attempt")
	rctx, remoteRoot := WithRemoteTrace(context.Background(), "fracd.fracture", attempt.SpanContext())
	_, phase := StartSpan(rctx, "mbf.approximate")
	phase.End()
	remoteRoot.End()

	attempt.AdoptWire(remoteRoot.Wire())
	attempt.End()
	caller.End()

	got := caller.Find("mbf.approximate")
	if got == nil {
		t.Fatal("stitched tree missing remote phase span")
	}
	if got.TraceID() != caller.TraceID() {
		t.Fatalf("stitched span trace %s, want %s", got.TraceID(), caller.TraceID())
	}
	var sb strings.Builder
	caller.WriteTree(&sb)
	for _, name := range []string{"caller", "cluster.attempt", "fracd.fracture", "mbf.approximate"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("rendered waterfall missing %q:\n%s", name, sb.String())
		}
	}
}
