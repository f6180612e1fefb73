// Per-point retained state: the one thing a relying party carries from one
// Sync to the next, and therefore the one place to audit what it silently
// keeps or drops when authorities misbehave (the paper's Side Effects 6–7).
//
// Four things are kept per publication point, each proving something
// different. A walk reads the point's state once, before its fetch, into a
// copy of its own; the walk's steps fill in that copy, and the walk writes
// it back once when it ends (settle), whichever way it ends but an aborted
// sync. So the point's retained state changes at exactly one moment per
// walk, which is where any floor or persisted copy of it is taken:
//
//   - last is the snapshot the most recent successful fetch returned. It
//     proves nothing about validity; it is only the prev the incremental
//     (digest-listing) fetch diffs against. Set by fetch, kept only with
//     Config.CacheSnapshots.
//   - clean is the last snapshot that validated without a single
//     diagnostic, and cleanAt when it was last known to be the point's
//     current content. When a later sync finds the point unreachable
//     (dead, refusing, circuit-broken, or gated by the very routes it
//     should be validating), clean is served in its place — for at most
//     Config.StaleTTL past cleanAt: from memo when memo is usable under the
//     walk's authority, effective set and clock, revalidated otherwise.
//     Deployed validators (Routinator, rpki-client) survive flaky
//     repositories exactly this way; bounding the staleness is the paper's
//     §4 tradeoff: an unreachable repository must degrade service
//     eventually, or a coerced authority could freeze the relying party's
//     world state forever by taking its repository offline. Kept only with
//     StaleTTL > 0.
//   - memo is the validated outcome of that same clean snapshot (see
//     modmemo.go): per object its name, its digest rather than its bytes,
//     and which outputs are its own; per entry a digest of the revoked
//     serials, the objects' validity window, and each child CA as its
//     certificate's DER, never parsed. It answers for the whole point
//     (reuse tiers 1 and 2) or, when the point changed, for each object
//     that did not (tier 3).
//   - verdicts are the signature verdicts the point's latest validation
//     used or carried over (cert.Verdicts), whatever its outcome: the next
//     revalidation answers unchanged objects from them. Replaced at every
//     validation, so they never outgrow the point's objects.
//
// A point is keyed by the URI its walk fetched and has one lifetime: a sync
// reaches it when a walk settles it, and when a completed sync did not, the
// point is dropped whole and the fetcher is told to forget the URI
// (*repo.Client's memo, host proof and breaker go too); an aborted sync
// forgets nothing. A point never once fetched is reached and departs like
// any other: its walk settles an empty state. So retiring child CAs, on dead
// repositories or live ones, grows nothing beyond the live tree, and a child
// moved to another host is a new point.
//
// clean and memo are set together, at module commit, and only for a
// faithfully fetched snapshot that validated clean — "verified objects" —
// so a corrupted or partially-served point never overwrites the good
// snapshot its own fallback would need (Side Effect 7 recovery depends on
// this). A tainted validation clears memo, so the degraded verdict is
// recomputed every sync, and leaves clean alone. Whenever memo is set and
// StaleTTL > 0, clean holds the bytes memo was validated from; so serving
// clean from memo yields what revalidating it would, and proving memo
// current by reuse tiers 1 and 2 proves clean current, and re-stamps
// cleanAt. Serving clean, either way, proves nothing about the point's
// current content and never re-stamps it. Every successful fetch ends in a
// commit or a reuse, so whenever memo is set it was validated from last —
// which is what lets reuse tier 1 trust a server that says nothing changed
// since last.
//
// Snapshots are never mutated once stored, and the incremental fetch hands
// back prev's own slices for unchanged objects, so last and clean share
// backing arrays: the bytes of an unchanged object are resident once, and
// the garbage collector reclaims a replaced object when the last snapshot
// naming it goes. A memo's child links alias those same slices, whether or
// not a snapshot is kept: every fetcher returns one buffer per object, so a
// link retains its certificate's bytes and nothing more.
package rp

import (
	"time"

	"repro/internal/cert"
	"repro/internal/repo"
)

// pointState is what the relying party retains about one publication point
// between syncs. A stored state is read (point) and written (settle) whole,
// only with RelyingParty.mu held; a walk works on its own copy in between.
// The values its fields point at are immutable once stored.
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

// point returns a copy of uri's state (zero when nothing is retained): the
// walk's one read, before its fetch.
func (rp *RelyingParty) point(uri repo.URI) pointState {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if p := rp.points[uri]; p != nil {
		return *p
	}
	return pointState{}
}

// settle is the walk's one write: p, the walk's copy as its fetch, reuse or
// commit left it, becomes uri's state, stamped as reached by the current
// sync. Only a point seen for the first time allocates.
func (rp *RelyingParty) settle(uri repo.URI, p *pointState) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	p.seen = rp.syncs
	if q := rp.points[uri]; q != nil {
		*q = *p
		return
	}
	q := *p
	rp.points[uri] = &q
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
