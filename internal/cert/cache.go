package cert

import (
	"bytes"
	"crypto/sha256"
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
// therefore never cached here.
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
// memoization.
func (c *VerifyCache) CheckChildSignature(issuer, child *ResourceCert) error {
	if c == nil {
		return child.Cert.CheckSignatureFrom(issuer.Cert)
	}
	return c.Memoize(sha256.Sum256(child.Raw), issuer, func() error {
		return child.Cert.CheckSignatureFrom(issuer.Cert)
	})
}

// VerifyCRL is crl.VerifySignature(issuer) with memoization.
func (c *VerifyCache) VerifyCRL(issuer *ResourceCert, crl *CRL) error {
	if c == nil {
		return crl.VerifySignature(issuer)
	}
	return c.Memoize(sha256.Sum256(crl.Raw), issuer, func() error {
		return crl.VerifySignature(issuer)
	})
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
