// Per-point retained state: the one thing a relying party carries from one
// Sync to the next, and therefore the one place to audit what it silently
// keeps or drops when authorities misbehave (the paper's Side Effects 6–7).
//
// Four things are kept per publication point, each proving something
// different and each written at exactly one moment:
//
//   - last is the snapshot the most recent successful fetch returned. It
//     proves nothing about validity; it is only the prev the incremental
//     (digest-listing) fetch diffs against. Written by fetch, kept only with
//     Config.CacheSnapshots.
//   - clean is the last snapshot that validated without a single
//     diagnostic, and cleanAt when it was last known to be the point's
//     current content. When a later sync finds the point unreachable
//     (dead, refusing, circuit-broken, or gated by the very routes it
//     should be validating), clean is revalidated in its place — for at
//     most Config.StaleTTL past cleanAt. Deployed validators (Routinator,
//     rpki-client) survive flaky repositories exactly this way; bounding
//     the staleness is the paper's §4 tradeoff: an unreachable repository
//     must degrade service eventually, or a coerced authority could freeze
//     the relying party's world state forever by taking its repository
//     offline. Kept only with StaleTTL > 0.
//   - memo is the validated outcome of that same clean snapshot (see
//     modmemo.go), holding per-object digests rather than bytes, and each
//     child CA as its certificate's DER, never parsed.
//   - verdicts are the signature verdicts the point's latest validation
//     used (cert.Verdicts), whatever its outcome: the next revalidation
//     answers unchanged objects from them. Replaced at every validation, so
//     they never outgrow the point's objects.
//
// A point is keyed by the URI its walk fetched and has one lifetime: when a
// completed sync did not reach it, the point is dropped whole and the fetcher
// is told to forget the URI (*repo.Client's memo, host proof and breaker go
// too); an aborted sync forgets nothing. So retiring child CAs grows nothing
// beyond the live tree, and a child moved to another host is a new point.
//
// clean and memo are committed together, at module commit, and only for a
// faithfully fetched snapshot that validated clean — "verified objects" —
// so a corrupted or partially-served point never overwrites the good
// snapshot its own fallback would need (Side Effect 7 recovery depends on
// this). A tainted validation clears memo, so the degraded verdict is
// recomputed every sync, and leaves clean alone. Whenever memo is set and
// StaleTTL > 0, clean holds the bytes memo was validated from; proving memo
// current by any reuse tier therefore proves clean current, and re-stamps
// cleanAt. Every successful fetch ends in a commit or a reuse, so whenever
// memo is set it was validated from last — which is what lets reuse tier 2
// trust a server that says nothing changed since last.
//
// Snapshots are never mutated once stored, and the incremental fetch hands
// back prev's own slices for unchanged objects, so last and clean share
// backing arrays: the bytes of an unchanged object are resident once, and
// the garbage collector reclaims a replaced object when the last snapshot
// naming it goes. A memo's child links alias those same slices when either
// snapshot is kept, and hold a private copy of the certificate otherwise.
package rp

import (
	"time"

	"repro/internal/cert"
	"repro/internal/repo"
)

// pointState is what the relying party retains about one publication point
// between syncs. Every field is read and written only with
// RelyingParty.mu held; the values they point at are immutable once stored
// (a memo entry's recorded version excepted — markReused rewrites it under
// the same lock).
type pointState struct {
	last     map[string][]byte
	clean    map[string][]byte
	cleanAt  time.Time
	memo     *moduleEntry
	verdicts cert.Verdicts
	// seen is the number of the last sync that walked the point.
	seen uint64
}

// forgetter is optionally implemented by fetchers that keep per-point state
// of their own (*repo.Client does): dropDeparted tells them each point gone.
type forgetter interface {
	Forget(uri repo.URI)
}

// pointLocked returns uri's state, creating it on first use.
func (rp *RelyingParty) pointLocked(uri repo.URI) *pointState {
	p := rp.points[uri]
	if p == nil {
		p = &pointState{seen: rp.syncs}
		rp.points[uri] = p
	}
	return p
}

// point records that the current sync walks uri and returns a copy of its
// state (zero when nothing is retained).
func (rp *RelyingParty) point(uri repo.URI) pointState {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if p := rp.points[uri]; p != nil {
		p.seen = rp.syncs
		return *p
	}
	return pointState{}
}

// keepVerdicts replaces uri's verdicts with those its latest validation used.
func (rp *RelyingParty) keepVerdicts(uri repo.URI, v cert.Verdicts) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.pointLocked(uri).verdicts = v
}

// beginSync numbers a new sync; the walks it reaches stamp their points.
func (rp *RelyingParty) beginSync() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.syncs++
}

// dropDeparted ends a completed sync: a point it did not reach has left the
// tree (or is unreachable through it), and is dropped whole. The fetcher is
// told outside rp.mu, which is never held across a call into it.
func (rp *RelyingParty) dropDeparted() {
	var gone []repo.URI
	rp.mu.Lock()
	for uri, p := range rp.points {
		if p.seen != rp.syncs {
			delete(rp.points, uri)
			gone = append(gone, uri)
		}
	}
	rp.mu.Unlock()
	if f, ok := rp.cfg.Fetcher.(forgetter); ok {
		for _, uri := range gone {
			f.Forget(uri)
		}
	}
}

// setLast records the snapshot an incremental-capable fetch just returned,
// validated or not: the next fetch diffs against it.
func (rp *RelyingParty) setLast(uri repo.URI, files map[string][]byte) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.pointLocked(uri).last = files
}

// commitPoint records the validation of a faithfully fetched snapshot. A
// clean one hands in its outcome e, which becomes the point's memo entry,
// and, with last-known-good fallback enabled, its bytes become the snapshot
// served if the point goes dark. One with diagnostics hands in a nil e: the
// memo entry goes, the last clean snapshot stays. Both outlive the sync:
// memoized verdicts are reused across runs, and last-known-good snapshots
// are served during authority outages.
func (rp *RelyingParty) commitPoint(uri repo.URI, e *moduleEntry, files map[string][]byte, at time.Time) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	p := rp.pointLocked(uri)
	p.memo = e
	if e != nil && rp.cfg.StaleTTL > 0 {
		p.clean, p.cleanAt = files, at
	}
}

// markReused records that uri's memo entry was just proven current: the
// clean snapshot it was validated from is the point's content as of at, and
// a fetcher-reported version lets the next sync take the cheaper tier-1
// path.
func (rp *RelyingParty) markReused(uri repo.URI, version uint64, hasVersion bool, at time.Time) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	p := rp.points[uri]
	if p == nil || p.memo == nil {
		return
	}
	if p.clean != nil {
		p.cleanAt = at
	}
	if hasVersion {
		p.memo.version, p.memo.hasVersion = version, true
	}
}
