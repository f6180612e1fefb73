package cert

import (
	"crypto/sha256"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"sync"
	"testing"
)

func TestVerifyCacheMemoizesChildSignature(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "10.1.0.0/16", 2, true)

	c := NewVerifyCache(Verdicts{})
	for i := 0; i < 3; i++ {
		if err := c.CheckChildSignature(ta, child, sha256.Sum256(child.Raw)); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestVerifyCacheCarry: a carried verdict counts neither a hit nor a miss,
// is in the next Verdicts, and answers the validation after that as a hit.
// Only a held, successful verdict carries.
func TestVerifyCacheCarry(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	other, _ := newTestTA(t, "10.0.0.0/8")
	good, _ := issueChild(t, ta, taKey, "good", "10.1.0.0/16", 2, true)
	unseen, _ := issueChild(t, ta, taKey, "unseen", "10.2.0.0/16", 3, true)
	first := NewVerifyCache(Verdicts{})
	if err := first.CheckChildSignature(ta, good, sha256.Sum256(good.Raw)); err != nil {
		t.Fatal(err)
	}
	if err := first.CheckChildSignature(other, good, sha256.Sum256(good.Raw)); err == nil {
		t.Fatal("signature from the wrong issuer verified")
	}

	second := NewVerifyCache(first.Verdicts())
	if !second.Carry(sha256.Sum256(good.Raw), ta) {
		t.Error("a held, successful verdict did not carry")
	}
	if second.Carry(sha256.Sum256(good.Raw), other) {
		t.Error("a held failure carried")
	}
	if second.Carry(sha256.Sum256(unseen.Raw), ta) {
		t.Error("a verdict never held carried")
	}
	if hits, misses := second.Stats(); hits != 0 || misses != 0 || second.Verified() != 0 {
		t.Errorf("carrying counted %d hits, %d misses, %d verifications; want none", hits, misses, second.Verified())
	}
	if second.Len() != 1 {
		t.Errorf("Len = %d, want 1: the carried verdict alone", second.Len())
	}

	third := NewVerifyCache(second.Verdicts())
	if err := third.CheckChildSignature(ta, good, sha256.Sum256(good.Raw)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := third.Stats(); hits != 1 || misses != 0 {
		t.Errorf("after a carry: hits=%d misses=%d, want 1/0", hits, misses)
	}
}

func TestVerifyCacheCachesFailures(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	other, _ := newTestTA(t, "10.0.0.0/8") // different key, same subject
	child, _ := issueChild(t, ta, taKey, "child", "10.1.0.0/16", 2, false)

	c := NewVerifyCache(Verdicts{})
	if err := c.CheckChildSignature(other, child, sha256.Sum256(child.Raw)); err == nil {
		t.Fatal("signature from wrong issuer verified")
	}
	if err := c.CheckChildSignature(other, child, sha256.Sum256(child.Raw)); err == nil {
		t.Fatal("cached verdict dropped the failure")
	}
	// The genuine issuer is a distinct cache key and must still succeed.
	if err := c.CheckChildSignature(ta, child, sha256.Sum256(child.Raw)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (one per issuer)", c.Len())
	}
}

func TestVerifyCacheCRL(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	nb, na := testValidity()
	crl, err := IssueCRL(ta, taKey, 1, []pkix.RevokedCertificate{{SerialNumber: big.NewInt(7), RevocationTime: nb}}, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	c := NewVerifyCache(Verdicts{})
	for i := 0; i < 2; i++ {
		if err := c.VerifyCRL(ta, crl); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestVerifyCacheSingleFlight hammers one key from many goroutines: the
// underlying verification must run exactly once, and the counters must show
// exactly one miss.
func TestVerifyCacheSingleFlight(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "10.1.0.0/16", 2, false)
	hash := sha256.Sum256(child.Raw)

	c := NewVerifyCache(Verdicts{})
	var calls int
	var mu sync.Mutex
	verify := func() error {
		mu.Lock()
		calls++
		mu.Unlock()
		return child.Cert.CheckSignatureFrom(ta.Cert)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Memoize(hash, ta, verify); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if calls != 1 {
		t.Errorf("verify ran %d times, want 1", calls)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
}

// TestVerifyCacheCarriesOnlyUsedVerdicts: a cache created over the previous
// validation's verdicts answers them as hits without verifying again, and
// hands on only the verdicts looked up through it — one the new validation
// never asked for is dropped.
func TestVerifyCacheCarriesOnlyUsedVerdicts(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	kept, _ := issueChild(t, ta, taKey, "kept", "10.1.0.0/16", 2, true)
	dropped, _ := issueChild(t, ta, taKey, "dropped", "10.2.0.0/16", 3, true)
	fresh, _ := issueChild(t, ta, taKey, "fresh", "10.3.0.0/16", 4, true)

	first := NewVerifyCache(Verdicts{})
	for _, c := range []*ResourceCert{kept, dropped} {
		if err := first.CheckChildSignature(ta, c, sha256.Sum256(c.Raw)); err != nil {
			t.Fatal(err)
		}
	}
	prev := first.Verdicts()
	if prev.Len() != 2 {
		t.Fatalf("first validation kept %d verdicts, want 2", prev.Len())
	}

	second := NewVerifyCache(prev)
	if err := second.Memoize(sha256.Sum256(kept.Raw), ta, func() error {
		t.Error("a verdict the previous validation holds was verified again")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := second.CheckChildSignature(ta, fresh, sha256.Sum256(fresh.Raw)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := second.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if got := second.Verdicts().Len(); got != 2 {
		t.Errorf("second validation kept %d verdicts, want 2 (kept and fresh, not dropped)", got)
	}
	if prev.Len() != 2 {
		t.Errorf("the previous verdicts changed under a later validation: %d", prev.Len())
	}
}

func TestVerifyCacheNilSafe(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "10.1.0.0/16", 2, false)
	var c *VerifyCache
	if err := c.CheckChildSignature(ta, child, sha256.Sum256(child.Raw)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("nil cache Len = %d", c.Len())
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("nil cache stats %d/%d", hits, misses)
	}
}

// TestVerifyCacheCheckSigned: a signed object's one verdict covers its
// envelope and its EE's signature by the issuer. A miss checks both (two
// verifications), a hit neither; a failed envelope is returned as the
// envelope part and skips the EE check, a bad EE signature comes back as
// the EE part; and a nil cache checks the same way.
func TestVerifyCacheCheckSigned(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	other, otherKey := newTestTA(t, "10.0.0.0/8")
	ee, _ := issueChild(t, ta, taKey, "ee", "10.1.0.0/16", 2, false)
	rogue, _ := issueChild(t, other, otherKey, "rogue", "10.1.0.0/16", 2, false)
	errEnvelope := errors.New("envelope")
	ok := func() error { return nil }
	bad := func() error { return errEnvelope }

	c := NewVerifyCache(Verdicts{})
	for i := 0; i < 2; i++ {
		if env, eeSig := c.CheckSigned(sha256.Sum256([]byte("good")), ta, ee, ok); env != nil || eeSig != nil {
			t.Fatalf("pass %d: good object: %v / %v", i, env, eeSig)
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 || c.Verified() != 2 {
		t.Errorf("hits=%d misses=%d verified=%d, want 1/1/2", hits, misses, c.Verified())
	}
	if env, eeSig := c.CheckSigned(sha256.Sum256([]byte("forged")), ta, ee, bad); env != errEnvelope || eeSig != nil {
		t.Errorf("forged envelope: %v / %v", env, eeSig)
	}
	if c.Verified() != 3 {
		t.Errorf("a failed envelope cost %d verifications, want 1", c.Verified()-2)
	}
	for i := 0; i < 2; i++ {
		if env, eeSig := c.CheckSigned(sha256.Sum256([]byte("rogue")), ta, rogue, ok); env != nil || eeSig == nil {
			t.Errorf("pass %d: EE signed by another key: %v / %v", i, env, eeSig)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want one verdict per object", c.Len())
	}
	var none *VerifyCache
	if env, eeSig := none.CheckSigned([32]byte{}, ta, rogue, ok); env != nil || eeSig == nil {
		t.Errorf("nil cache: %v / %v", env, eeSig)
	}
}
