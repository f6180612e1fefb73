package cert

import (
	"crypto/sha256"
	"math/big"
	"sync"
	"testing"
)

func TestVerifyCacheMemoizesChildSignature(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "10.1.0.0/16", 2, true)

	c := NewVerifyCache(Verdicts{})
	for i := 0; i < 3; i++ {
		if err := c.CheckChildSignature(ta, child); err != nil {
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

func TestVerifyCacheCachesFailures(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	other, _ := newTestTA(t, "10.0.0.0/8") // different key, same subject
	child, _ := issueChild(t, ta, taKey, "child", "10.1.0.0/16", 2, false)

	c := NewVerifyCache(Verdicts{})
	if err := c.CheckChildSignature(other, child); err == nil {
		t.Fatal("signature from wrong issuer verified")
	}
	if err := c.CheckChildSignature(other, child); err == nil {
		t.Fatal("cached verdict dropped the failure")
	}
	// The genuine issuer is a distinct cache key and must still succeed.
	if err := c.CheckChildSignature(ta, child); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (one per issuer)", c.Len())
	}
}

func TestVerifyCacheCRL(t *testing.T) {
	ta, taKey := newTestTA(t, "10.0.0.0/8")
	nb, na := testValidity()
	crl, err := IssueCRL(ta, taKey, 1, []*big.Int{big.NewInt(7)}, nb, na)
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
		if err := first.CheckChildSignature(ta, c); err != nil {
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
	if err := second.CheckChildSignature(ta, fresh); err != nil {
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
	if err := c.CheckChildSignature(ta, child); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("nil cache Len = %d", c.Len())
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("nil cache stats %d/%d", hits, misses)
	}
}
