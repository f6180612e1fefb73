// Module-level validation memoization: the steady-state fast path.
//
// A relying party polling an unchanged world still pays O(all objects) per
// sync — every byte re-hashed, every manifest cross-checked, every chain
// re-walked — which is exactly the cost Stalloris-style adversaries inflate.
// This file caches, per publication point ("module"), the complete validated
// outputs of the last clean validation: VRPs, accepted-object counters, and
// the child CAs whose walks the module spawns. A later sync that can prove
// the module's bytes are unchanged AND that the cached verdicts are still
// within their temporal epoch reuses those outputs wholesale, skipping
// hashing, manifest cross-checks, and chain validation entirely.
//
// Unchanged-ness is established by one of three tiers, cheapest first:
//
//  1. the fetcher reports a store version (VersionedFetcher) equal to the
//     one recorded when the entry was validated — no fetch at all;
//  2. the incremental fetch protocol finds every object's listed digest
//     equal to the held copy's (repo.SyncResult.Unchanged) — one network
//     round trip but no object transfer and no local re-validation;
//  3. the fetched bytes hash to the per-object SHA-256 digests the entry
//     recorded — every byte re-hashed, but nothing re-parsed and no
//     signature re-verified. The entry keeps digests, never bytes, so the
//     memo's size does not grow with object size.
//
// Reuse is safe only inside the entry's temporal epoch: the intersection of
// every validated certificate's validity window, the manifest's nextUpdate,
// and the winning CRL's nextUpdate. Outside that window a re-validation
// could flip verdicts even though no byte changed, so the entry is ignored
// and the module is re-validated. Revocation and resource-containment
// verdicts cannot drift inside the epoch when the bytes (including the CRL)
// are unchanged and the issuing authority is unchanged.
//
// The authority matters as much as the bytes: a grandparent re-issuing a
// shrunken child certificate (the paper's certificate-whacking, Side Effect
// 2) changes a module's outcome without touching the module. Entries are
// therefore keyed on the DER of the issuing authority's certificate —
// compared byte for byte — and on the effective resource set inherited down
// the chain; either changing forces a full re-validation.
//
// No parsed certificate is kept: an entry's child links hold each child CA
// as the DER its parent validated, and a walk reached through a link parses
// that DER only if its own point must be re-validated (a reused point never
// parses). The DER aliases the parent's snapshot when the per-point state
// keeps that snapshot anyway (CacheSnapshots over an incremental fetcher,
// or StaleTTL); otherwise it is one private copy, shared by the link and
// the child's own entry, so a memo never pins a fetch buffer.
//
// The same entry serves an unreachable point's last-known-good snapshot:
// the snapshot is the bytes the entry was validated from (state.go), so
// under the same guard — authority, effective set, epoch — revalidating it
// would reproduce the entry. Only tiers 1–3 prove the point current; a
// last-known-good reuse leaves the snapshot's age alone, so StaleTTL still
// counts from the last proof.
//
// Only clean validations are cached — a module that produced any diagnostic
// deletes its entry — so reuse can never replay a degraded result. Entries
// live in the per-point state (state.go), next to the snapshot they were
// validated from.
package rp

import (
	"bytes"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rov"
)

// VersionedFetcher is optionally implemented by fetchers that can report a
// cheap monotonic version for a publication point's backing store
// (StoreFetcher does, via repo.Store.Version). A version equal to the one
// recorded at validation time proves the module unchanged without fetching.
// The version is read BEFORE any fetch, so a store mutating mid-sync can
// only cause a spurious re-validation, never a false reuse.
type VersionedFetcher interface {
	Fetcher
	// SnapshotVersion returns the current version of the point's store and
	// whether a version is available for it.
	SnapshotVersion(uri repo.URI) (uint64, bool)
}

// authority is the certificate a walk validates its publication point
// under: the DER its parent validated, and the parsed form when the caller
// already holds one — a trust anchor, or a child certificate just
// validated. A walk reached through a memo link carries the DER alone.
// Passed by value, so carrying one allocates nothing.
type authority struct {
	der  []byte
	cert *cert.ResourceCert
}

// childLink records one validated child CA discovered in a module, enough
// to queue its publication point again on reuse: the child's certificate
// as the DER the module validated, not parsed.
type childLink struct {
	der       []byte
	effective ipres.Set
	uri       repo.URI
}

// moduleEntry is one module's cached validation outcome.
type moduleEntry struct {
	// authority and effective identify the validation context: the issuing
	// authority's DER certificate, and the effective resource set handed
	// down the chain. A mismatch means the module must be re-validated even
	// if its own bytes are unchanged.
	authority []byte
	effective ipres.Set
	// version is the fetcher-reported store version at validation time
	// (valid only when hasVersion).
	version    uint64
	hasVersion bool
	// digests is the per-object SHA-256 of the exact snapshot the entry was
	// validated from.
	digests map[string][32]byte
	// notBefore/notAfter bound the epoch inside which the cached verdicts
	// are time-invariant: max of all validated certs' notBefore, and min of
	// cert notAfters, manifest nextUpdate, and winning CRL nextUpdate.
	// Zero values mean unbounded on that side.
	notBefore, notAfter time.Time
	// Validated outputs.
	vrps     []rov.VRP
	roas     int
	certs    int
	children []childLink
}

// matches reports whether the entry was validated under the same issuing
// authority certificate and effective resource set.
func (e *moduleEntry) matches(authority []byte, effective ipres.Set) bool {
	return bytes.Equal(e.authority, authority) && e.effective.Equal(effective)
}

// within reports whether now falls inside the entry's temporal epoch.
func (e *moduleEntry) within(now time.Time) bool {
	if !e.notBefore.IsZero() && now.Before(e.notBefore) {
		return false
	}
	if !e.notAfter.IsZero() && now.After(e.notAfter) {
		return false
	}
	return true
}

// sameDigests reports whether a snapshot's per-object hashes match a memo
// entry's (tier 3).
func sameDigests(hashes, digests map[string][32]byte) bool {
	if len(hashes) != len(digests) {
		return false
	}
	for name, h := range hashes {
		d, ok := digests[name]
		if !ok || d != h {
			return false
		}
	}
	return true
}

// moduleBuild accumulates one walk's per-module outputs so they can be
// merged into the sync result and, when clean, committed to the memo. Its
// WaitGroup tracks the module's own object tasks (not child points); the
// committer goroutine waits on it before merging.
type moduleBuild struct {
	// memoizable is false when the files came from a degraded source (LKG
	// fallback or a partial fetch): the walk still validates and merges, but
	// neither commits nor deletes a memo entry, because the bytes validated
	// do not correspond to the point's current snapshot.
	memoizable bool
	version    uint64
	hasVersion bool
	// hashes is the per-object digest map computed by the walk's hashing
	// pass; a clean commit keeps it as the memo entry's digest snapshot.
	hashes map[string][32]byte
	// sigs memoizes this validation's signature checks over the verdicts
	// the point's previous validation used; the commit keeps what it holds.
	sigs *cert.VerifyCache
	// span is the module's walk trace span and verifySpan its verify child
	// (nil when tracing is off); the committer ends both. Written by the
	// walk goroutine before the committer is spawned.
	span, verifySpan *obs.Span

	wg sync.WaitGroup

	mu sync.Mutex
	// Taint count, accumulated outputs and epoch bounds. guarded by mu.
	diags               int
	vrps                []rov.VRP
	roas                int
	certs               int
	children            []childLink
	notBefore, notAfter time.Time
}

// observeCert folds a validated certificate's validity window into the
// epoch accumulators.
func (mb *moduleBuild) observeCert(c *cert.ResourceCert) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if nb := c.NotBefore(); mb.notBefore.IsZero() || nb.After(mb.notBefore) {
		mb.notBefore = nb
	}
	if na := c.NotAfter(); mb.notAfter.IsZero() || na.Before(mb.notAfter) {
		mb.notAfter = na
	}
}

// observeNotAfter folds a freshness deadline (manifest or CRL nextUpdate)
// into the epoch's upper bound.
func (mb *moduleBuild) observeNotAfter(t time.Time) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if !t.IsZero() && (mb.notAfter.IsZero() || t.Before(mb.notAfter)) {
		mb.notAfter = t
	}
}

// diag emits a module diagnostic and taints the build: a tainted module
// merges its outputs normally but never commits a memo entry.
func (mb *moduleBuild) diag(st *syncState, kind DiagKind, module, object string, err error) {
	mb.mu.Lock()
	mb.diags++
	mb.mu.Unlock()
	st.diag(kind, module, object, err)
}

func (mb *moduleBuild) addROA(vrps []rov.VRP) {
	mb.mu.Lock()
	mb.roas++
	mb.vrps = append(mb.vrps, vrps...)
	mb.mu.Unlock()
}

func (mb *moduleBuild) addCert() {
	mb.mu.Lock()
	mb.certs++
	mb.mu.Unlock()
}

func (mb *moduleBuild) addChild(link childLink) {
	mb.mu.Lock()
	mb.children = append(mb.children, link)
	mb.mu.Unlock()
}
