package telemetry

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span records one named phase of a computation: its wall time, ordered
// key-value attributes, and child phases. Spans form a tree rooted at
// the span installed by WithTrace. A nil *Span is a valid no-op span,
// which is what instrumented code receives when tracing is disabled —
// the instrumentation then costs one context lookup and nil checks.
type Span struct {
	Name  string
	Start time.Time

	// trace/id/parent identify the span for cross-process propagation:
	// trace is the 16-byte trace ID shared by the whole tree, id the
	// span's own 8-byte ID, parent the remote caller's span ID (set only
	// on roots adopted via WithRemoteTrace). All lower-case hex.
	trace  string
	id     string
	parent string

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

type spanKey struct{}

// WithTrace enables tracing on the context: it installs and returns a
// root span under which StartSpan calls nest. The caller must End the
// root before reading the tree.
func WithTrace(ctx context.Context, name string) (context.Context, *Span) {
	root := &Span{Name: name, Start: time.Now(), trace: NewTraceID(), id: newSpanID()}
	return context.WithValue(ctx, spanKey{}, root), root
}

// ActiveSpan returns the span installed on ctx, or nil when tracing is
// disabled.
func ActiveSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a child of the context's active span and returns a
// context carrying it. When tracing is disabled it returns ctx
// unchanged and a nil span; every Span method is nil-safe.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := ActiveSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name)
	return context.WithValue(ctx, spanKey{}, child), child
}

// Child appends and returns a new child span without touching the
// context — the cheap form for instrumenting loops.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now(), trace: s.trace, id: newSpanID()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ID returns the span's 8-byte hex ID ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// TraceID returns the 16-byte hex trace ID the span belongs to.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// SpanContext returns the span's propagation context.
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace, SpanID: s.id}
}

// RemoteParentID returns the remote caller's span ID on roots created
// by WithRemoteTrace, "" otherwise.
func (s *Span) RemoteParentID() string {
	if s == nil {
		return ""
	}
	return s.parent
}

// Adopt grafts an already-built span (typically reconstructed from a
// remote process's wire form) under s as a child.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End fixes the span's duration. Subsequent Ends are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.Start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Duration returns the span's duration (elapsed time so far when the
// span has not Ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.Start)
}

// Set records a key-value attribute on the span.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, v})
	s.mu.Unlock()
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the child span list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first descendant span (depth-first, including s)
// with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// maxSiblingsShown bounds how many same-named consecutive siblings
// WriteTree prints before eliding the rest — refinement emits one span
// per iteration and a trace of a hard solve would otherwise print
// thousands of lines.
const maxSiblingsShown = 12

// WriteTree prints the span tree with durations and attributes,
// indented two spaces per level. Long runs of same-named siblings are
// elided after maxSiblingsShown with a summary line.
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		return
	}
	s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%s %s%s\n", indent, s.Name, fmtDur(s.Duration()), fmtAttrs(s.Attrs()))
	children := s.Children()
	for i := 0; i < len(children); {
		run := 1
		for i+run < len(children) && children[i+run].Name == children[i].Name {
			run++
		}
		shown := run
		if run > maxSiblingsShown {
			shown = maxSiblingsShown
		}
		for j := 0; j < shown; j++ {
			children[i+j].writeTree(w, depth+1)
		}
		if run > shown {
			var total time.Duration
			for j := shown; j < run; j++ {
				total += children[i+j].Duration()
			}
			fmt.Fprintf(w, "%s  ... %d more %s spans (%s)\n",
				indent, run-shown, children[i].Name, fmtDur(total))
		}
		i += run
	}
}

// PhaseStat aggregates every span of one name across a tree.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// PhaseSummary flattens the tree into per-name aggregates, ordered by
// first appearance (depth-first).
func (s *Span) PhaseSummary() []PhaseStat {
	if s == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []PhaseStat
	var walk func(sp *Span)
	walk = func(sp *Span) {
		d := sp.Duration()
		i, ok := idx[sp.Name]
		if !ok {
			i = len(out)
			idx[sp.Name] = i
			out = append(out, PhaseStat{Name: sp.Name, Min: d, Max: d})
		}
		st := &out[i]
		st.Count++
		st.Total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		for _, c := range sp.Children() {
			walk(c)
		}
	}
	walk(s)
	return out
}

// WritePhaseTable prints the per-phase timing table of a trace: one row
// per span name with count, total, share of the root's wall time, and
// min/mean/max durations.
func WritePhaseTable(w io.Writer, root *Span) {
	if root == nil {
		return
	}
	stats := root.PhaseSummary()
	rootDur := root.Duration()
	nameW := len("phase")
	for _, st := range stats {
		if len(st.Name) > nameW {
			nameW = len(st.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %6s  %10s  %6s  %10s  %10s  %10s\n",
		nameW, "phase", "count", "total", "share", "min", "mean", "max")
	for _, st := range stats {
		share := 0.0
		if rootDur > 0 {
			share = float64(st.Total) / float64(rootDur) * 100
		}
		mean := st.Total / time.Duration(st.Count)
		fmt.Fprintf(w, "%-*s  %6d  %10s  %5.1f%%  %10s  %10s  %10s\n",
			nameW, st.Name, st.Count, fmtDur(st.Total), share,
			fmtDur(st.Min), fmtDur(mean), fmtDur(st.Max))
	}
}

// fmtDur renders a duration rounded to a readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Nanosecond).String()
}

// fmtAttrs renders attributes as ` [k=v k=v]`, or "" when empty.
func fmtAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(" [")
	for i, a := range attrs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v", a.Key, a.Value)
	}
	sb.WriteByte(']')
	return sb.String()
}
