// Package obs is a minimal stand-in for the real observability package:
// the diagexhaustive rule keys on the package name and on value types
// declared here.
package obs

// EventKind classifies flight-recorder events.
type EventKind int

// Stand-in event kinds.
const (
	EventRetry EventKind = iota
	EventBreakerOpen
	EventDiagnostic
)
