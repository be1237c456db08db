package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"senkf/internal/metrics"
)

// span is one timed call into a layer during the traced pass. Spans of
// one pass share the pass as their identifier; parent names the span
// that caused it ("" for the pass itself).
type span struct {
	name, parent string
	start, end   float64 // seconds since the pass began
}

// spanLog holds the traced pass's spans in memory until the pass ends.
// It is used from one goroutine.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// time runs fn, records it as a span when l is not nil, and returns its
// duration in seconds.
func (l *spanLog) time(name, parent string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if l != nil {
		l.spans = append(l.spans, span{name, parent, t0.Sub(l.t0).Seconds(), t1.Sub(l.t0).Seconds()})
	}
	return t1.Sub(t0).Seconds()
}

// add records a span measured elsewhere, such as an engine phase from
// Problem.Rec shifted onto the pass clock.
func (l *spanLog) add(name, parent string, start, end float64) {
	l.spans = append(l.spans, span{name, parent, start, end})
}

// write prints every span with its self time: its duration minus the part
// of its interval that its children cover.
func (l *spanLog) write(w io.Writer) {
	sort.SliceStable(l.spans, func(i, j int) bool { return l.spans[i].start < l.spans[j].start })
	fmt.Fprintf(w, "perfbench: traced pass spans (seconds since the pass began)\n")
	fmt.Fprintf(w, "  %-34s %-28s %10s %10s %10s\n", "span", "parent", "start", "dur", "self")
	for _, s := range l.spans {
		var kids []metrics.Span
		for _, c := range l.spans {
			if c.parent == s.name && c.start < s.end && c.end > s.start {
				kids = append(kids, metrics.Span{Start: max(c.start, s.start), End: min(c.end, s.end)})
			}
		}
		dur := s.end - s.start
		self := dur - metrics.SpanTotal(metrics.UnionSpans(kids))
		fmt.Fprintf(w, "  %-34s %-28s %10.4f %10.4f %10.4f\n", s.name, s.parent, s.start, dur, self)
	}
}
