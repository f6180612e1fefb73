package cert

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// VerifyCache memoizes signature verifications within one validation scope —
// in the relying party, one validation of one publication point — and
// carries them to the next validation of the same scope.
//
// A relying party that polls (the monitor loop, the Side Effect 7 timeline)
// re-validates the same unchanged objects every tick; the public-key
// operations dominate that cost. A signature check is a pure function of the
// signed bytes and the signer's key, so its outcome can be cached under the
// key (SHA-256 of the object, issuer subject-key-identifier) — unlike the
// time-, CRL- and resource-containment checks, which must stay fresh and are
// therefore never cached here. Parse holds every identifier to the key it
// names, so the issuer's identifier stands for the issuer's key.
//
// Each object gets one verdict. A certificate's or CRL's covers its
// signature by the issuer; a signed object's (CheckSigned) covers both its
// CMS envelope signature and its EE certificate's signature by the issuer,
// so a miss on one costs two ECDSA verifications and a hit none.
//
// A cache holds exactly the verdicts looked up through it. It is created
// over the Verdicts of the scope's previous validation (NewVerifyCache): a
// lookup that misses consults those before verifying, and a verdict found
// there is carried over, so a scope that keeps only its latest Verdicts
// keeps only the verdicts its latest validation used. Keys are content
// hashes, so republished (mutated) objects miss naturally rather than
// returning stale verdicts. Entries are single-flight: concurrent lookups of
// the same key block on one verification instead of duplicating the
// public-key operation, which also keeps the hit/miss counters exact.
type VerifyCache struct {
	// prev is the previous validation's verdicts; read-only.
	prev         Verdicts
	mu           sync.Mutex
	verdicts     map[verifyKey]*verdictEntry
	hits, misses atomic.Uint64
	// verified counts the signatures the misses actually checked.
	verified atomic.Uint64
}

type verifyKey struct {
	object [32]byte // SHA-256 of the signed object's DER
	issuer string   // issuer SubjectKeyId (raw bytes)
}

type verdictEntry struct {
	once sync.Once
	err  error
}

// Verdicts is the frozen outcome of a finished VerifyCache: what one
// validation hands the next one of the same scope, kept as one sorted
// slice — no map, no per-verdict allocation — because it is what a relying
// party retains between syncs. The zero value holds nothing.
type Verdicts struct {
	sorted []verdict
}

type verdict struct {
	key verifyKey
	err error
}

func compareKeys(a, b verifyKey) int {
	if c := bytes.Compare(a.object[:], b.object[:]); c != 0 {
		return c
	}
	return strings.Compare(a.issuer, b.issuer)
}

// lookup returns the verdict held for key, if any.
func (v Verdicts) lookup(key verifyKey) (verdict, bool) {
	i, ok := slices.BinarySearchFunc(v.sorted, key, func(e verdict, k verifyKey) int { return compareKeys(e.key, k) })
	if !ok {
		return verdict{}, false
	}
	return v.sorted[i], true
}

// Len returns the number of verdicts held.
func (v Verdicts) Len() int { return len(v.sorted) }

// NewVerifyCache returns an empty cache whose misses consult prev — the
// Verdicts of the scope's previous validation, or the zero Verdicts for
// none — before verifying.
func NewVerifyCache(prev Verdicts) *VerifyCache {
	return &VerifyCache{prev: prev, verdicts: make(map[verifyKey]*verdictEntry)}
}

// Verdicts returns the verdicts looked up through c, and only those. Call
// it once every lookup through c has returned.
func (c *VerifyCache) Verdicts() Verdicts {
	if c == nil {
		return Verdicts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sorted := make([]verdict, 0, len(c.verdicts))
	for key, e := range c.verdicts {
		sorted = append(sorted, verdict{key: key, err: e.err})
	}
	slices.SortFunc(sorted, func(a, b verdict) int { return compareKeys(a.key, b.key) })
	return Verdicts{sorted: sorted}
}

// Memoize returns the cached verdict for (objectHash, issuer), running
// verify exactly once per key across all goroutines. A verdict the previous
// validation holds counts as a hit. A nil cache runs verify directly.
func (c *VerifyCache) Memoize(objectHash [32]byte, issuer *ResourceCert, verify func() error) error {
	if c == nil {
		return verify()
	}
	key := verifyKey{object: objectHash, issuer: issuer.SKIKey()}
	c.mu.Lock()
	e, ok := c.verdicts[key]
	if !ok {
		e = &verdictEntry{}
		if held, found := c.prev.lookup(key); found {
			// Settled before anyone else can see the entry, so no
			// concurrent lookup can run verify for it.
			e.once.Do(func() { e.err = held.err })
			ok = true
		}
		c.verdicts[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.err = verify() })
	return e.err
}

// CheckChildSignature is child.Cert.CheckSignatureFrom(issuer.Cert) with
// memoization; digest is SHA-256 of child.Raw.
func (c *VerifyCache) CheckChildSignature(issuer, child *ResourceCert, digest [32]byte) error {
	return c.Memoize(digest, issuer, func() error {
		c.count()
		return child.Cert.CheckSignatureFrom(issuer.Cert)
	})
}

// VerifyCRL is crl.VerifySignature(issuer) with memoization.
func (c *VerifyCache) VerifyCRL(issuer *ResourceCert, crl *CRL) error {
	return c.Memoize(crl.digest, issuer, func() error {
		c.count()
		return crl.VerifySignature(issuer)
	})
}

// eeSignatureError is a signed object's verdict when its envelope signature
// holds and its EE certificate's signature by the issuer does not.
type eeSignatureError struct{ err error }

func (e eeSignatureError) Error() string { return e.err.Error() }

// CheckSigned is the verdict on a signed object whose SHA-256 is digest,
// under issuer: verify, its CMS envelope signature by ee's key, and then
// ee.Cert.CheckSignatureFrom(issuer.Cert), memoized as one. It returns the
// two parts apart, because they fail at different steps: envelope fails the
// object's parse, eeSig its chain validation (ValidateIssued). eeSig is nil
// when envelope is not, as the EE is not checked then.
func (c *VerifyCache) CheckSigned(digest [32]byte, issuer, ee *ResourceCert, verify func() error) (envelope, eeSig error) {
	err := c.Memoize(digest, issuer, func() error {
		c.count()
		if err := verify(); err != nil {
			return err
		}
		c.count()
		if err := ee.Cert.CheckSignatureFrom(issuer.Cert); err != nil {
			return eeSignatureError{err}
		}
		return nil
	})
	if e, ok := err.(eeSignatureError); ok {
		return nil, e.err
	}
	return err, nil
}

// count records one signature verified on a miss.
func (c *VerifyCache) count() {
	if c != nil {
		c.verified.Add(1)
	}
}

// Len returns the number of verdicts looked up through c so far.
func (c *VerifyCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.verdicts)
}

// Stats returns the hit and miss counts of the lookups through c.
func (c *VerifyCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Verified returns the number of signatures the misses through c checked:
// one per certificate or CRL miss, two per signed-object miss whose
// envelope signature held, one per one whose envelope signature failed.
func (c *VerifyCache) Verified() uint64 {
	if c == nil {
		return 0
	}
	return c.verified.Load()
}
