package telemetry

import (
	"fmt"
	"strconv"
	"time"
)

// SpanWire is the compact serialized form of a span tree, carried in
// fracd responses so a remote caller can stitch the server's solver
// phase spans into its own trace. Field names are shortened because a
// deep solve trace serializes hundreds of spans.
type SpanWire struct {
	Name string `json:"n"`
	// ID is the span's 8-byte hex ID; ParentID is set only on roots
	// adopted from a remote traceparent (the caller's span ID).
	ID       string      `json:"id,omitempty"`
	ParentID string      `json:"p,omitempty"`
	StartNS  int64       `json:"st"` // Unix nanoseconds
	DurNS    int64       `json:"d"`  // duration in nanoseconds
	Attrs    []AttrWire  `json:"a,omitempty"`
	Children []*SpanWire `json:"c,omitempty"`
	// Elided, when > 0, marks a synthetic summary node standing in for
	// that many same-named siblings dropped by the wire size cap; DurNS
	// is then their total duration.
	Elided int `json:"e,omitempty"`
}

// AttrWire is one stringified span attribute.
type AttrWire struct {
	K string `json:"k"`
	V string `json:"v"`
}

// maxWireSiblings bounds how many consecutive same-named siblings Wire
// serializes before collapsing the rest into one Elided summary node —
// the wire-format analogue of WriteTree's elision, keeping a
// 1000-iteration refine trace from bloating every response.
const maxWireSiblings = 16

// Wire serializes the span tree. Call it only after the tree has
// ended; live descendants serialize with their elapsed-so-far duration.
// Each span is read under its own lock, a parent's held while its
// children are read; nothing takes a child's lock and then its
// parent's.
func (s *Span) Wire() *SpanWire {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := &SpanWire{
		Name:     s.Name,
		ID:       s.id,
		ParentID: s.parent,
		StartNS:  s.Start.UnixNano(),
		DurNS:    int64(s.durationLocked()),
	}
	if len(s.attrs) > 0 {
		w.Attrs = make([]AttrWire, len(s.attrs))
		for i, a := range s.attrs {
			w.Attrs[i] = AttrWire{K: a.Key, V: attrText(a.Value)}
		}
	}
	children := s.children
	for i := 0; i < len(children); {
		run := 1
		for i+run < len(children) && children[i+run].Name == children[i].Name {
			run++
		}
		shown := run
		if run > maxWireSiblings {
			shown = maxWireSiblings
		}
		for j := 0; j < shown; j++ {
			cw := children[i+j].Wire()
			cw.ParentID = "" // only roots carry the remote parent
			w.Children = append(w.Children, cw)
		}
		if run > shown {
			var total time.Duration
			for j := shown; j < run; j++ {
				total += children[i+j].Duration()
			}
			w.Children = append(w.Children, &SpanWire{
				Name:    children[i].Name,
				StartNS: children[i+shown].Start.UnixNano(),
				DurNS:   int64(total),
				Elided:  run - shown,
			})
		}
		i += run
	}
	return w
}

// attrText is fmt.Sprint(v), formatted with strconv for the kinds
// spans carry: strings, integers, booleans and float64s.
func attrText(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// Span reconstructs an (ended) span tree from its wire form, preserving
// IDs so a stitched tree stays addressable. Elided summary nodes become
// spans with an "elided" attribute.
func (w *SpanWire) Span() *Span {
	if w == nil {
		return nil
	}
	s := &Span{
		Name:   w.Name,
		Start:  time.Unix(0, w.StartNS),
		id:     w.ID,
		parent: w.ParentID,
		dur:    time.Duration(w.DurNS),
		ended:  true,
	}
	for _, a := range w.Attrs {
		s.attrs = append(s.attrs, Attr{Key: a.K, Value: a.V})
	}
	if w.Elided > 0 {
		s.attrs = append(s.attrs, Attr{Key: "elided", Value: w.Elided})
	}
	for _, c := range w.Children {
		cs := c.Span()
		cs.trace = s.trace
		s.children = append(s.children, cs)
	}
	return s
}

// AdoptWire reconstructs a remote span tree and grafts it under s,
// inheriting s's trace ID — the stitching step that turns a local
// client span plus a fracd response trace into one cross-node
// waterfall.
func (s *Span) AdoptWire(w *SpanWire) {
	if s == nil || w == nil {
		return
	}
	remote := w.Span()
	remote.setTrace(s.trace)
	s.Adopt(remote)
}

// setTrace stamps a trace ID over a whole (reconstructed, ended) tree.
func (s *Span) setTrace(trace string) {
	s.trace = trace
	for _, c := range s.children {
		c.setTrace(trace)
	}
}

// SpanCount returns the number of nodes in the wire tree.
func (w *SpanWire) SpanCount() int {
	if w == nil {
		return 0
	}
	n := 1
	for _, c := range w.Children {
		n += c.SpanCount()
	}
	return n
}

// Find returns the first node (depth-first, including w) with the
// given name, or nil.
func (w *SpanWire) Find(name string) *SpanWire {
	if w == nil {
		return nil
	}
	if w.Name == name {
		return w
	}
	for _, c := range w.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}
