package telemetry

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	ctx, root := WithTrace(context.Background(), "root")
	sc := SpanContextOf(ctx)
	if !sc.Valid() {
		t.Fatalf("span context %+v not valid", sc)
	}
	if sc.TraceID != root.TraceID() || sc.SpanID != root.ID() {
		t.Fatalf("context %+v does not match root trace=%s id=%s", sc, root.TraceID(), root.ID())
	}
	h := sc.Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q not W3C shaped", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", h, got, ok, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-xyz-abc-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // all-zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"00-" + strings.Repeat("a", 31) + "-" + strings.Repeat("b", 16) + "-01", // short trace
		"0-abc",
	}
	for _, h := range bad {
		if sc, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v", h, sc)
		}
	}
	// uppercase hex is normalized, not rejected
	h := "00-" + strings.Repeat("AB", 16) + "-" + strings.Repeat("CD", 8) + "-01"
	sc, ok := ParseTraceparent(h)
	if !ok || sc.TraceID != strings.Repeat("ab", 16) {
		t.Errorf("uppercase traceparent: got %+v, %v", sc, ok)
	}
}

func TestChildInheritsTraceID(t *testing.T) {
	ctx, root := WithTrace(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	if child.ID() == root.ID() || child.ID() == "" {
		t.Fatalf("child id %q must be fresh (root %q)", child.ID(), root.ID())
	}
}

func TestWithRemoteTraceAdoptsCallerContext(t *testing.T) {
	_, caller := WithTrace(context.Background(), "caller")
	sc := caller.SpanContext()
	ctx, root := WithRemoteTrace(context.Background(), "server", sc)
	if root.TraceID() != caller.TraceID() {
		t.Fatalf("server root trace %s, want caller's %s", root.TraceID(), caller.TraceID())
	}
	if p := root.Wire().ParentID; p != caller.ID() {
		t.Fatalf("server root parent %s, want caller span %s", p, caller.ID())
	}
	_, phase := StartSpan(ctx, "phase")
	if phase.TraceID() != caller.TraceID() {
		t.Fatalf("phase span trace %s, want caller's %s", phase.TraceID(), caller.TraceID())
	}
}

func TestContextWithSpan(t *testing.T) {
	_, root := WithTrace(context.Background(), "root")
	attempt := root.Child("attempt")
	ctx := ContextWithSpan(context.Background(), attempt)
	if ActiveSpan(ctx) != attempt {
		t.Fatal("ContextWithSpan did not install the span")
	}
	_, sub := StartSpan(ctx, "sub")
	if sub.TraceID() != root.TraceID() {
		t.Fatalf("sub trace %s, want %s", sub.TraceID(), root.TraceID())
	}
}

func TestIDUniqueness(t *testing.T) {
	seen := make(map[string]struct{})
	for i := 0; i < 10000; i++ {
		id := newSpanID()
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate span id %s after %d draws", id, i)
		}
		seen[id] = struct{}{}
	}
}
