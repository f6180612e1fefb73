// Fixture for the diagexhaustive rule in a package that imports obs:
// DiagKind's event table misses a constant, BreakerState has no event
// table at all, and FetchDiag is fully covered (no finding).
package diagobs

import "fixturemod/obs"

// DiagKind classifies validation diagnostics.
type DiagKind int

// Diagnostic kinds.
const (
	DiagExpired DiagKind = iota
	DiagMissing
	DiagStale
)

// diagEvents covers only two of the three kinds.
var diagEvents = map[DiagKind]obs.EventKind{
	DiagExpired: obs.EventDiagnostic,
	DiagMissing: obs.EventDiagnostic,
}

// BreakerState is an observable enum with no event table anywhere.
type BreakerState int

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
)

// FetchDiag is fully covered and must produce no finding.
type FetchDiag int

// Fetch diagnostics.
const (
	DiagFetchSlow FetchDiag = iota
	DiagFetchRefused
)

// fetchEvents covers every FetchDiag constant.
var fetchEvents = map[FetchDiag]obs.EventKind{
	DiagFetchSlow:    obs.EventRetry,
	DiagFetchRefused: obs.EventRetry,
}

// use keeps the tables referenced.
func use() (int, int) { return len(diagEvents), len(fetchEvents) }

var _ = use
