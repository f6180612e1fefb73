package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// EventKind classifies one degraded event captured by the flight recorder.
// This is the closed vocabulary of "something went wrong and the validator
// coped": every DiagKind and every breaker state maps into it (mechanized
// by the diagexhaustive lint rule), so no degradation the relying party
// can express is unrecordable.
type EventKind uint8

const (
	// EventRetry: a repository request failed and was retried with backoff.
	EventRetry EventKind = iota
	// EventBreakerOpen: a publication point's circuit breaker tripped open.
	EventBreakerOpen
	// EventBreakerHalfOpen: an open breaker admitted a probe request.
	EventBreakerHalfOpen
	// EventBreakerClosed: a probe succeeded and the breaker closed.
	EventBreakerClosed
	// EventBreakerFastFail: a request was refused while a breaker was open.
	EventBreakerFastFail
	// EventStaleFallback: an unreachable point was served from its
	// last-known-good snapshot.
	EventStaleFallback
	// EventIncrementalFallback: an incremental (digest-listing) sync failed
	// mid-protocol and was replaced by a clean full fetch.
	EventIncrementalFallback
	// EventReuseRejected: a module-memo entry existed but was refused
	// (authority changed, epoch expired, or bytes changed) and the module
	// was fully re-validated — the unsafe-reuse guard firing.
	EventReuseRejected
	// EventDiagnostic: a validation diagnostic (any DiagKind) was emitted.
	EventDiagnostic
	// EventHealthChange: the daemon's sync health state changed
	// (clean/degraded/stale transitions).
	EventHealthChange
	// EventFeedLie: a repository's VERSIONS feed vouched that a point was
	// unchanged, and the full listing that audits such skips found it was not.
	EventFeedLie
)

func (k EventKind) String() string {
	switch k {
	case EventRetry:
		return "retry"
	case EventBreakerOpen:
		return "breaker-open"
	case EventBreakerHalfOpen:
		return "breaker-half-open"
	case EventBreakerClosed:
		return "breaker-closed"
	case EventBreakerFastFail:
		return "breaker-fast-fail"
	case EventStaleFallback:
		return "stale-fallback"
	case EventIncrementalFallback:
		return "incremental-fallback"
	case EventReuseRejected:
		return "reuse-rejected"
	case EventDiagnostic:
		return "diagnostic"
	case EventHealthChange:
		return "health-change"
	case EventFeedLie:
		return "feed-lie"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one recorded degraded event.
type Event struct {
	// Seq is the event's position in the recorder's lifetime stream; gaps
	// after a Snapshot reveal how much the ring overwrote.
	Seq uint64
	// At is the recorder clock's time of capture.
	At time.Time
	// Kind classifies the event.
	Kind EventKind
	// Module is the publication point involved ("" when not applicable).
	Module string
	// Detail is free-form context (error text, state transition, reason).
	Detail string
}

// MarshalJSON renders the kind symbolically.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq    uint64    `json:"seq"`
		At     time.Time `json:"at"`
		Kind   string    `json:"kind"`
		Module string    `json:"module,omitempty"`
		Detail string    `json:"detail,omitempty"`
	}{e.Seq, e.At, e.Kind.String(), e.Module, e.Detail})
}

// FlightRecorder is a bounded ring buffer of degraded events, queryable
// after the fact: when an operator notices a bad poll cycle, the recorder
// holds the last N retries, breaker transitions, fallbacks and reuse
// rejections with their context — the black box of the validator.
//
// Recording is deliberately not on the zero-alloc budget: events fire on
// degraded paths (failures, fallbacks, state transitions), which are
// orders of magnitude rarer than metric updates and already paying for
// I/O or backoff. A healthy steady-state sync records nothing.
type FlightRecorder struct {
	clock func() time.Time

	mu sync.Mutex
	// ring is the fixed-capacity buffer; seq is the lifetime event count.
	// ring[seq % cap] is the slot the NEXT event lands in. guarded by mu.
	ring []Event
	seq  uint64
}

// defaultRecorderCapacity holds a few minutes of heavy degradation.
const defaultRecorderCapacity = 1024

// NewFlightRecorder creates a recorder holding the last capacity events
// (0: a sensible default) stamped by clock (nil: time.Now).
func NewFlightRecorder(capacity int, clock func() time.Time) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultRecorderCapacity
	}
	if clock == nil {
		clock = time.Now
	}
	return &FlightRecorder{clock: clock, ring: make([]Event, 0, capacity)}
}

// Record captures one event (nil-safe). Concurrent callers serialize on
// the ring's mutex.
func (f *FlightRecorder) Record(kind EventKind, module, detail string) {
	if f == nil {
		return
	}
	at := f.clock()
	f.mu.Lock()
	e := Event{Seq: f.seq, At: at, Kind: kind, Module: module, Detail: detail}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, e)
	} else {
		f.ring[f.seq%uint64(cap(f.ring))] = e
	}
	f.seq++
	f.mu.Unlock()
}

// Recordf is Record with a formatted detail.
func (f *FlightRecorder) Recordf(kind EventKind, module, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(kind, module, fmt.Sprintf(format, args...))
}

// Snapshot returns the retained events, oldest first. The total count of
// events ever recorded is Seq of the last event plus one; a first Seq
// greater than zero means the ring wrapped and older events are gone.
func (f *FlightRecorder) Snapshot() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, len(f.ring))
	if f.seq > uint64(len(f.ring)) {
		// Wrapped: oldest retained event lives at seq % cap.
		start := f.seq % uint64(cap(f.ring))
		out = append(out, f.ring[start:]...)
		out = append(out, f.ring[:start]...)
	} else {
		out = append(out, f.ring...)
	}
	return out
}

// Total returns the lifetime event count (recorded, not retained).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}
