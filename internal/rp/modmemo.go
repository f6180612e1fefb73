// Module-level validation memoization: the steady-state fast path.
//
// A relying party polling an unchanged world still pays O(all objects) per
// sync — every byte re-hashed, every manifest cross-checked, every chain
// re-walked — which is exactly the cost Stalloris-style adversaries inflate.
// This file caches, per publication point ("module"), the complete validated
// outputs of the last clean validation: VRPs, accepted-object counters, and
// the child CAs whose walks the module spawns, each output tagged with the
// object that produced it. A later sync that can prove the module's bytes
// are unchanged AND that the cached verdicts are still within their
// temporal epoch reuses those outputs wholesale, skipping hashing, manifest
// cross-checks, and chain validation entirely; one that finds some bytes
// changed keeps the outputs of every object that did not.
//
// Reuse comes in three tiers, cheapest first. The first two prove the
// whole module unchanged:
//
//  1. the incremental fetch protocol finds every object's listed digest
//     equal to the held copy's (repo.SyncResult.Unchanged) — one network
//     round trip at most (none when the peer's VERSIONS feed vouches for
//     the point), no object transfer and no local re-validation;
//  2. the fetched bytes hash to the per-object SHA-256 digests the entry
//     recorded — every byte re-hashed, but nothing re-parsed and no
//     signature re-verified. The entry keeps digests, never bytes, so the
//     memo's size does not grow with object size.
//
// The third revalidates the module but reads only what changed:
//
//  3. the new manifest and CRL are parsed and verified as on any
//     revalidation. Then, if the manifest holds and the winning CRL revokes
//     exactly the serials the entry's did, each object whose digest equals
//     the entry's, and which the new manifest lists under that digest, is
//     admitted with the outputs the entry recorded for it: its VRPs, or its
//     child link, and its signature verdict carried over unlooked-up
//     (cert.VerifyCache.Carry). Every other object is validated in full.
//     A re-signed manifest then costs the manifest and the CRL, and a
//     changed ROA those and the ROA. Tiers 1 and 2 need a faithful fetch;
//     tier 3 also runs on a partial one, since it proves each object it
//     admits on its own.
//
// An entry keeps, per object, its name, its digest and which outputs are
// its own, in one name-sorted slice; per entry, a digest of the winning
// CRL's revoked serials and the validity window of the objects other than
// the manifest and CRL. A tier-3 entry has the outputs a full revalidation
// of the same bytes would have, and an epoch no longer than its: the
// objects admitted from the old entry bring its whole object window, which
// covers theirs.
//
// Reuse is safe only inside the entry's temporal epoch: the intersection of
// every validated certificate's validity window, the manifest's nextUpdate,
// and the winning CRL's nextUpdate. Outside that window a re-validation
// could flip verdicts even though no byte changed, so the entry is ignored
// and the module is re-validated in full. Revocation and
// resource-containment verdicts cannot drift inside the epoch when the
// bytes and the revoked serials are unchanged and the issuing authority is
// unchanged.
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
// parses). The DER always aliases the parent's snapshot, kept or not: every
// fetcher returns one buffer per object, and a certificate parses only from
// its whole buffer (it keeps all of it as Raw, and trailing data is
// rejected), so a link retains exactly the certificate's bytes. A link a
// tier-3 revalidation keeps is re-pointed at the new snapshot's identical
// bytes, so a memo never pins an old snapshot.
//
// The same entry serves an unreachable point's last-known-good snapshot
// (plan's lkgMemo row, state.go): the snapshot is the bytes the entry was
// validated from, so under the same guard — authority, effective set, epoch
// — revalidating it would reproduce the entry. Which walks set, keep or
// clear an entry, and which re-stamp the snapshot's age, is next's table:
// only a clean validation of a faithful fetch is cached, so reuse can never
// replay a degraded result.
package rp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rov"
)

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

// ownership says which of an entry's outputs an object produced.
type ownership uint8

const (
	ownsNothing ownership = iota // manifest, CRL, or an object that adds nothing
	ownsROA                      // the VRPs vrps[lo:hi]
	ownsChild                    // the child link children[lo]
)

// memoObject is one object of the snapshot an entry was validated from: its
// name, its SHA-256, and the outputs that are its own.
type memoObject struct {
	name   string
	digest [32]byte
	own    ownership
	lo, hi uint32
}

// findObject returns the index of name in objects, which are sorted by
// name.
func findObject(objects []memoObject, name string) (int, bool) {
	return slices.BinarySearchFunc(objects, name, func(o memoObject, name string) int {
		return strings.Compare(o.name, name)
	})
}

// window is a validity interval; a zero bound leaves that side open.
type window struct {
	notBefore, notAfter time.Time
}

// narrow shrinks w to its intersection with [notBefore, notAfter]; a zero
// bound narrows nothing.
func (w *window) narrow(notBefore, notAfter time.Time) {
	if !notBefore.IsZero() && (w.notBefore.IsZero() || notBefore.After(w.notBefore)) {
		w.notBefore = notBefore
	}
	if !notAfter.IsZero() && (w.notAfter.IsZero() || notAfter.Before(w.notAfter)) {
		w.notAfter = notAfter
	}
}

// contains reports whether now falls inside w.
func (w window) contains(now time.Time) bool {
	return (w.notBefore.IsZero() || !now.Before(w.notBefore)) &&
		(w.notAfter.IsZero() || !now.After(w.notAfter))
}

// revokedDigest is the SHA-256 of crl's revoked serials in ascending order,
// each as its sign and its length-prefixed magnitude: two CRLs revoke the
// same serials exactly when their digests agree. No CRL at all is the zero
// digest, distinct from an empty CRL's.
func revokedDigest(crl *cert.CRL) [32]byte {
	if crl == nil {
		return [32]byte{}
	}
	serials := make([]*big.Int, len(crl.List.RevokedCertificateEntries))
	for i, e := range crl.List.RevokedCertificateEntries {
		serials[i] = e.SerialNumber
	}
	slices.SortFunc(serials, (*big.Int).Cmp)
	var enc []byte
	for _, s := range serials {
		enc = append(enc, byte(s.Sign()+1))
		magnitude := s.Bytes()
		enc = binary.AppendUvarint(enc, uint64(len(magnitude)))
		enc = append(enc, magnitude...)
	}
	return sha256.Sum256(enc)
}

// moduleEntry is one module's cached validation outcome.
type moduleEntry struct {
	// authority and effective identify the validation context: the issuing
	// authority's DER certificate, and the effective resource set handed
	// down the chain. A mismatch means the module must be re-validated even
	// if its own bytes are unchanged.
	authority []byte
	effective ipres.Set
	// objects is the snapshot the entry was validated from, sorted by name.
	objects []memoObject
	// revoked is revokedDigest of the CRL the objects were judged by.
	revoked [32]byte
	// epoch bounds the window inside which the cached verdicts are
	// time-invariant: the latest notBefore of every validated certificate,
	// and the earliest of their notAfters, the manifest's nextUpdate and the
	// winning CRL's. objEpoch is the same over the ROAs' EE certificates and
	// the child CAs alone, the part tier 3 carries over.
	epoch, objEpoch window
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
func (e *moduleEntry) within(now time.Time) bool { return e.epoch.contains(now) }

// sameDigests reports whether a snapshot's objects are an entry's, name for
// name and digest for digest (tier 2).
func sameDigests(objects, memo []memoObject) bool {
	return slices.EqualFunc(objects, memo, func(a, b memoObject) bool {
		return a.name == b.name && a.digest == b.digest
	})
}

// moduleBuild accumulates one walk's per-module outputs so they can be
// merged into the sync result and, when clean, handed to next as the memo
// entry. Its WaitGroup tracks the module's own object tasks (not child
// points); the walker waits on it before merging.
type moduleBuild struct {
	// st is the sync the walk belongs to: diag reports through it.
	st *syncState
	// pointItem is the point and what it is validated under: its authority,
	// whose certificate validate parses first when the walk holds only its
	// DER, the effective resources, the URI and the depth.
	pointItem
	// files is the snapshot's bytes by name.
	files map[string][]byte
	// chain is the one context every certificate of the point is validated
	// in: the walk's clock reading, and the CRL loadCRL picked before any
	// certificate is judged.
	chain cert.ValidationContext
	// memo is the point's entry when it is usable for this walk: tier 3
	// admits unchanged objects from it. Nil otherwise, and cleared by
	// validate when the manifest or CRL rule tier 3 out.
	memo *moduleEntry
	// objects is the snapshot's objects, sorted by name, as the walk's
	// hashing pass digested them; admission records in each which outputs
	// are its own, and a clean commit keeps them as the memo entry's.
	// Element i's ownership is written under mu by its admission alone.
	objects []memoObject
	// listing is, per object, what the manifest whose signatures hold says
	// of it (judge); nil when no manifest's signatures hold. Written by
	// validate before any object is admitted.
	listing []listing
	// revoked is revokedDigest of the winning CRL. Written by loadCRL
	// before any object is admitted.
	revoked [32]byte
	// fromMemo counts the objects admitted from memo. Written by
	// admitFromMemo on the walker.
	fromMemo int
	// sigs memoizes this validation's signature checks over the verdicts
	// the point's previous validation used; the commit keeps what it holds.
	sigs *cert.VerifyCache
	// span is the module's walk trace span and verifySpan its verify child
	// (nil when tracing is off); the commit ends both. Written and read by
	// the walker alone.
	span, verifySpan *obs.Span

	wg sync.WaitGroup

	mu sync.Mutex
	// diags counts the build's diagnostics: any one taints it. guarded by
	// mu.
	diags int
	// out is the entry a clean build hands to next, as far as validation
	// has built it: the outputs of the objects admitted so far, and their
	// bounds — out.epoch from the manifest and CRL, which commitModule
	// narrows by out.objEpoch, from every other object. guarded by mu.
	out moduleEntry
}

// listing is what a point's manifest says of one served object.
type listing struct {
	// err is manifest.Merge's verdict: nil when the manifest lists the
	// object under its digest.
	err error
	// listed is whether an entry names the object, under whatever digest.
	listed bool
}

// judge merges mft's entries with the snapshot's objects once
// (manifest.Merge), keeps each object's verdict as mb.listing, and returns
// which object each entry names, -1 for none served.
func (mb *moduleBuild) judge(mft *manifest.Manifest) []int {
	verdicts, served := mft.Merge(len(mb.objects), func(i int) (string, [32]byte) {
		return mb.objects[i].name, mb.objects[i].digest
	})
	mb.listing = make([]listing, len(verdicts))
	for i, err := range verdicts {
		mb.listing[i].err = err
	}
	for _, i := range served {
		if i >= 0 {
			mb.listing[i].listed = true
		}
	}
	return served
}

// observePoint folds a bound set by the manifest or the CRL — its EE
// certificate's window, or a nextUpdate — into the epoch.
func (mb *moduleBuild) observePoint(notBefore, notAfter time.Time) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.out.epoch.narrow(notBefore, notAfter)
}

// observeObject folds the validity window of an admitted object's
// certificate — a ROA's EE, or a child CA — into the epoch.
func (mb *moduleBuild) observeObject(c *cert.ResourceCert) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.out.objEpoch.narrow(c.NotBefore(), c.NotAfter())
}

// diag emits a diagnostic on the point's object and taints the build: a
// tainted module merges its outputs normally but yields no memo entry.
func (mb *moduleBuild) diag(kind DiagKind, object string, err error) {
	mb.mu.Lock()
	mb.diags++
	mb.mu.Unlock()
	mb.st.diag(kind, mb.uri.Module, object, err)
}

// addROA records object i's VRPs as a ROA's.
func (mb *moduleBuild) addROA(i int, vrps []rov.VRP) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	lo := len(mb.out.vrps)
	mb.out.roas++
	mb.out.vrps = append(mb.out.vrps, vrps...)
	o := &mb.objects[i]
	o.own, o.lo, o.hi = ownsROA, uint32(lo), uint32(len(mb.out.vrps))
}

func (mb *moduleBuild) addCert() {
	mb.mu.Lock()
	mb.out.certs++
	mb.mu.Unlock()
}

// addChild records object i's child link.
func (mb *moduleBuild) addChild(i int, link childLink) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	o := &mb.objects[i]
	o.own, o.lo = ownsChild, uint32(len(mb.out.children))
	mb.out.children = append(mb.out.children, link)
}

// admitFromMemo is reuse tier 3 for the snapshot's object i: when mb.memo
// holds the same bytes under the same name, the manifest lists them under
// that digest, and their signature verdict is held, it admits the object
// with the memo's outputs for it and reports true. Otherwise it does
// nothing: the object must be validated in full. The caller has checked
// that the memo is usable for this walk and that the winning CRL revokes
// what the memo's did.
func (st *syncState) admitFromMemo(mb *moduleBuild, i int) bool {
	o, memo := mb.objects[i], mb.memo
	j, ok := findObject(memo.objects, o.name)
	if !ok || memo.objects[j].digest != o.digest || mb.listing[i].err != nil {
		return false
	}
	old := memo.objects[j]
	if old.own != ownsNothing && !mb.sigs.Carry(o.digest, mb.auth.cert) {
		return false
	}
	switch old.own {
	case ownsROA:
		mb.addROA(i, memo.vrps[old.lo:old.hi])
	case ownsChild:
		// The link is re-pointed at the new snapshot's identical bytes, so
		// the memo never pins an old snapshot's.
		link := memo.children[old.lo]
		link.der = mb.files[o.name]
		mb.addCert()
		mb.addChild(i, link)
		st.enqueue(pointItem{authority{der: link.der}, link.effective, link.uri, mb.depth - 1})
	}
	// An admitted object brings the entry's whole object window into the
	// epoch, so it is never longer than a full revalidation's.
	mb.mu.Lock()
	mb.out.objEpoch.narrow(memo.objEpoch.notBefore, memo.objEpoch.notAfter)
	mb.mu.Unlock()
	mb.fromMemo++
	return true
}
