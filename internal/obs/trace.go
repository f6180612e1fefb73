package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Tracer produces per-sync traces and retains the most recent completed
// one for /debug/lasttrace. Timing is read from the injected clock — the
// same clock that drives validation epochs — never the wall clock, so a
// test with a pinned clock gets exact (zero-duration) spans and a daemon
// gets real ones, deterministically.
type Tracer struct {
	clock    func() time.Time
	maxSpans int

	mu sync.Mutex
	// last is the most recently finished trace. guarded by mu.
	last *Trace
}

// defaultMaxSpans bounds one trace's span count so a 1M-module streaming
// walk cannot turn the trace into a second copy of the world; overflow is
// counted, not silently dropped.
const defaultMaxSpans = 2048

// NewTracer creates a tracer on the given clock (nil: time.Now). maxSpans
// bounds spans per trace (0: a generous default); spans started past the
// bound are counted as dropped.
func NewTracer(clock func() time.Time, maxSpans int) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	if maxSpans <= 0 {
		maxSpans = defaultMaxSpans
	}
	return &Tracer{clock: clock, maxSpans: maxSpans}
}

// StartTrace begins a new trace whose root span carries name. Nil-safe:
// a nil tracer returns a nil trace, and every Trace/Span method tolerates
// nil receivers, so instrumented code never branches on "is tracing on".
func (t *Tracer) StartTrace(name string) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{tracer: t, spans: 1}
	tr.root = &Span{tr: tr, Name: name, Start: t.clock()}
	return tr
}

// Last returns the most recently finished trace (nil if none yet).
func (t *Tracer) Last() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// Trace is one recorded operation tree (a sync). Its spans are built
// concurrently by the walk goroutines; Finish seals it and publishes it as
// the tracer's last trace.
type Trace struct {
	tracer *Tracer
	root   *Span

	mu sync.Mutex
	// spans counts spans in the tree, dropped counts spans refused past
	// the tracer's bound. guarded by mu.
	spans   int
	dropped int
}

// Root returns the trace's root span (nil-safe).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Finish ends the root span and publishes the trace as the tracer's most
// recent (nil-safe).
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.root.End()
	tr.tracer.mu.Lock()
	tr.tracer.last = tr
	tr.tracer.mu.Unlock()
}

// Span is one timed region of a trace. Fields are written by the owning
// goroutine between Child and End; the trace is read only after Finish.
type Span struct {
	tr       *Trace
	Name     string
	Module   string
	Detail   string
	Start    time.Time
	Ended    time.Time
	children []*Span
}

// Child starts a sub-span (nil-safe; returns nil past the trace's span
// bound, which downstream calls tolerate).
func (sp *Span) Child(name, module string) *Span {
	return sp.ChildAt(name, module, sp.Now(), time.Time{})
}

// ChildAt is Child for a region that began at start and, unless end is
// zero, has already ended at end — both read from Now. It lets a caller
// open a span only once the region has proved worth one.
func (sp *Span) ChildAt(name, module string, start, end time.Time) *Span {
	if sp == nil || sp.tr == nil {
		return nil
	}
	tr := sp.tr
	tr.mu.Lock()
	if tr.spans >= tr.tracer.maxSpans {
		tr.dropped++
		tr.mu.Unlock()
		return nil
	}
	tr.spans++
	child := &Span{tr: tr, Name: name, Module: module, Start: start, Ended: end}
	sp.children = append(sp.children, child)
	tr.mu.Unlock()
	return child
}

// Now reads the trace's clock (nil-safe: the zero time, with no clock
// read).
func (sp *Span) Now() time.Time {
	if sp == nil || sp.tr == nil {
		return time.Time{}
	}
	return sp.tr.tracer.clock()
}

// End seals the span (nil-safe, idempotent).
func (sp *Span) End() {
	if sp == nil || !sp.Ended.IsZero() {
		return
	}
	sp.Ended = sp.tr.tracer.clock()
}

// SetDetail attaches a free-form note to the span (nil-safe).
func (sp *Span) SetDetail(detail string) {
	if sp != nil {
		sp.Detail = detail
	}
}

// spanJSON is the exported shape of one span.
type spanJSON struct {
	Name       string     `json:"name"`
	Module     string     `json:"module,omitempty"`
	Detail     string     `json:"detail,omitempty"`
	Start      time.Time  `json:"start"`
	DurationNs int64      `json:"duration_ns"`
	Children   []spanJSON `json:"children,omitempty"`
}

func (sp *Span) toJSON() spanJSON {
	end := sp.Ended
	if end.IsZero() {
		end = sp.Start
	}
	out := spanJSON{
		Name:       sp.Name,
		Module:     sp.Module,
		Detail:     sp.Detail,
		Start:      sp.Start,
		DurationNs: end.Sub(sp.Start).Nanoseconds(),
	}
	for _, c := range sp.children {
		out.Children = append(out.Children, c.toJSON())
	}
	return out
}

// MarshalJSON renders the finished trace as a span tree with exact
// injected-clock durations.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	if tr == nil {
		return []byte("null"), nil
	}
	tr.mu.Lock()
	spans, dropped := tr.spans, tr.dropped
	tr.mu.Unlock()
	return json.Marshal(struct {
		Spans        int      `json:"spans"`
		DroppedSpans int      `json:"dropped_spans"`
		Root         spanJSON `json:"root"`
	}{Spans: spans, DroppedSpans: dropped, Root: tr.root.toJSON()})
}
