// Per-point retained state: the one thing a relying party carries from one
// Sync to the next, and therefore the one place to audit what it silently
// keeps or drops when authorities misbehave (the paper's Side Effects 6–7).
//
// Four things are kept per publication point, each proving something
// different:
//
//   - last is the snapshot the most recent faithful fetch returned, kept
//     only with Config.CacheSnapshots. It proves nothing about validity; it
//     is only the prev the incremental (digest-listing) fetch diffs against.
//   - clean is the last snapshot that validated without a single
//     diagnostic, and cleanAt when it was last proven the point's current
//     content; kept only with StaleTTL > 0. An unreachable point (dead,
//     refusing, circuit-broken, or gated by the very routes it should be
//     validating) is served clean for at most StaleTTL past cleanAt, as
//     Routinator and rpki-client serve flaky repositories. Bounding the
//     staleness is the paper's §4 tradeoff: an unreachable repository must
//     degrade service eventually, or a coerced authority could freeze the
//     relying party's view of its subtree by taking its repository offline.
//   - memo is the validated outcome of that same clean snapshot (see
//     modmemo.go). It answers for the whole point (reuse tiers 1 and 2) or,
//     when the point changed, for each object that did not (tier 3).
//   - verdicts are the signature verdicts the point's latest validation
//     used or carried over (cert.Verdicts): the next revalidation answers
//     unchanged objects from them.
//
// The rules are two pure functions and their tables: plan decides what a
// walk does from the state it read and what its fetch observed, and next is
// the state the walk then writes, once. TestLifecycleExhaustive checks every
// promise below over every short sequence of observations.
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
	"repro/internal/ipres"
	"repro/internal/repo"
)

// pointState is what the relying party retains about one publication point
// between syncs. A stored state is read (point) and written (settle) whole,
// only with RelyingParty.mu held; next is the only function that computes
// its retained fields. The values its fields point at are immutable once
// stored.
type pointState struct {
	last     map[string][]byte
	clean    map[string][]byte
	cleanAt  time.Time
	memo     *moduleEntry
	verdicts cert.Verdicts
	// seen is the number of the last sync that walked the point.
	seen uint64
}

// action is what a walk does with its point, and what it serves for it.
type action uint8

const (
	// abort: the sync was cancelled during the fetch. Nothing is served,
	// and the point's state is left as the sync found it.
	abort action = iota
	// absent: the fetch failed and no snapshot is served in its place, so
	// the point's subtree drops out of the validated cache (Side Effect 6).
	absent
	// reuse: tier 1 or 2 proved the point current, and its memo's outputs
	// are served.
	reuse
	// lkgMemo: the point is unreachable and its clean snapshot is served
	// from the memo validated from it.
	lkgMemo
	// lkgRevalidate: the point is unreachable and its clean snapshot is
	// revalidated.
	lkgRevalidate
	// validate: the fetched snapshot is validated, tier 3 admitting what a
	// usable memo answers for.
	validate
)

// Why plan served an unreachable point from nothing (step.why).
const (
	noFallback = "stale-ttl 0"
	noLKG      = "no last-known-good snapshot"
	lkgExpired = "last-known-good snapshot expired"
)

// fetched is what a walk's fetch observed.
type fetched struct {
	// files is the snapshot the fetch returned: all of the point, or with
	// err a part of it (a partial fetch).
	files map[string][]byte
	// last is files when the fetcher diffs the next fetch against it
	// (Config.CacheSnapshots over an IncrementalFetcher), nil otherwise.
	last map[string][]byte
	// objects is files hashed, name-sorted; nil while not hashed. The walk
	// hashes any fetch the protocol did not prove unchanged before it plans.
	objects []memoObject
	// unchanged: the incremental protocol proved every object's digest
	// unchanged since the point's last (reuse tier 1).
	unchanged bool
	err       error
	// aborted: err is the sync's own cancellation.
	aborted bool
	// downloaded and reused count the objects the fetch transferred and
	// kept from prev, and fallbacks the incremental syncs it replaced with
	// a full fetch: the walk adds them to the sync's result.
	downloaded, reused, fallbacks int
}

// step is plan's verdict on one walk.
type step struct {
	act action
	// partial marks a validate of a fetch that failed with bytes in hand.
	partial bool
	// why says, for absent, why nothing is served (noFallback, noLKG or
	// lkgExpired) and, for a faithful validate, why the point's memo was
	// refused: "authority-changed", "epoch-expired" or "bytes-changed"; ""
	// when there was no memo.
	why string
	// age is the clean snapshot's age at the walk's clock; ttl is
	// Config.StaleTTL.
	age, ttl time.Duration
	// memo is the point's memo when it is usable for this walk, nil
	// otherwise: what reuse and lkgMemo serve, and what tier 3 admits
	// objects from.
	memo *moduleEntry
}

// plan decides what a walk does with its point, from the state p it read,
// what its fetch observed, the authority and effective resources it
// validates under, its clock reading now and Config.StaleTTL. The memo is
// usable when it was validated under the same authority DER and effective
// set and now is inside its epoch. No I/O, no lock, no clock:
//
//	fetch                    memo usable  clean snapshot          act
//	aborted                  -            -                       abort
//	failed, no bytes         -            StaleTTL 0              absent, noFallback
//	failed, no bytes         -            none                    absent, noLKG
//	failed, no bytes         -            older than StaleTTL     absent, lkgExpired
//	failed, no bytes         yes          fresh                   lkgMemo
//	failed, no bytes         no           fresh                   lkgRevalidate
//	unchanged, or its        yes          -                       reuse
//	  digests are the memo's
//	failed with bytes        either       -                       validate, partial
//	any other                either       -                       validate, why
//
// Age counts from cleanAt at now; a snapshot exactly StaleTTL old is fresh.
func plan(p pointState, f fetched, auth []byte, effective ipres.Set, now time.Time, ttl time.Duration) step {
	e, why := p.memo, ""
	switch {
	case e == nil:
	case !e.matches(auth, effective):
		why = "authority-changed"
	case !e.within(now):
		why = "epoch-expired"
	}
	usable := e != nil && why == ""
	s := step{act: validate, age: now.Sub(p.cleanAt), ttl: ttl}
	if usable {
		s.memo = e
	}
	switch {
	case f.aborted:
		s.act = abort
	case f.err != nil && len(f.files) == 0:
		s.act = absent
		switch {
		case ttl <= 0:
			s.why = noFallback
		case p.clean == nil:
			s.why = noLKG
		case s.age > ttl:
			s.why = lkgExpired
		case usable:
			s.act = lkgMemo
		default:
			s.act = lkgRevalidate
		}
	case f.err != nil:
		s.partial = true
	case usable && (f.unchanged || sameDigests(f.objects, e.objects)):
		s.act = reuse
	case usable:
		s.why = "bytes-changed"
	default:
		s.why = why
	}
	return s
}

// result is what a walk's work produced: its fetch, and a validation's
// signature verdicts and entry — nil when the validation was tainted.
type result struct {
	fetched
	verdicts cert.Verdicts
	entry    *moduleEntry
}

// next is the state a walk settles: p, as the walk read it, after step s
// and its result r, in a sync that began at syncStart. No I/O, no lock, no
// clock. A cell left blank keeps p's field:
//
//	act             last    memo     clean, cleanAt               verdicts
//	abort
//	absent
//	lkgMemo
//	lkgRevalidate                                                 r
//	reuse           r.last           cleanAt = syncStart if clean
//	validate, part.                                               r
//	validate        r.last  r.entry  r.files, syncStart if entry  r
//	                                 and StaleTTL > 0
//
// So clean and memo are set together, from a faithful fetch that validated
// clean, and a partial fetch or a served snapshot never overwrites the good
// snapshot its own fallback would need (Side Effect 7 recovery depends on
// this); a tainted validation clears memo and keeps clean; cleanAt moves
// only on a proof that clean is current (tiers 1 and 2, or its own
// validation), never on serving it; and memo is always validated from last
// and, with StaleTTL > 0, from clean — which is what lets tier 1 trust a
// server that says nothing changed since last, and lkgMemo serve clean's
// outputs without revalidating it.
//
// The table assumes one walk per URI per sync, which nothing enforces yet
// (DESIGN §6, "One lifetime per point"): two walks of one point in a sync
// each start from the state the sync found, and the later settle wins.
func next(p pointState, s step, r result, syncStart time.Time) pointState {
	switch s.act {
	case reuse:
		p.last = r.last
		if p.clean != nil {
			p.cleanAt = syncStart
		}
	case lkgRevalidate, validate:
		p.verdicts = r.verdicts
		if s.act == lkgRevalidate || s.partial {
			break
		}
		p.last, p.memo = r.last, r.entry
		if r.entry != nil && s.ttl > 0 {
			p.clean, p.cleanAt = r.files, syncStart
		}
	}
	return p
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

// settle is the walk's one write: p, as next computed it, becomes uri's
// state, stamped as reached by the current sync. Only a point seen for the
// first time allocates.
func (rp *RelyingParty) settle(uri repo.URI, p pointState) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	p.seen = rp.syncs
	if q := rp.points[uri]; q != nil {
		*q = p
		return
	}
	q := p
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
