package rp

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/repo"
)

// fingerprint renders everything a Result promises to make deterministic:
// sorted VRPs, canonically ordered diagnostics, and the exact counters.
// Cache counters are excluded — they depend on whether the relying party's
// cache is warm, which the determinism guarantee does not cover.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, v := range r.VRPs {
		fmt.Fprintf(&b, "vrp %v\n", v)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "diag %v\n", d)
	}
	fmt.Fprintf(&b, "points=%d roas=%d certs=%d downloaded=%d reused=%d\n",
		r.PubPointsVisited, r.ROAsAccepted, r.CertsAccepted, r.ObjectsDownloaded, r.ObjectsReused)
	return b.String()
}

func syncWithWorkers(t *testing.T, arin *ca.Authority, stores StoreFetcher, workers int) *Result {
	t.Helper()
	relying := New(Config{
		Fetcher: stores,
		Clock:   clock,
		Workers: workers,
	}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	result, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// TestParallelMatchesSequentialClean checks that a parallel sync of the
// clean model world is byte-for-byte identical to the sequential baseline.
func TestParallelMatchesSequentialClean(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	seq := syncWithWorkers(t, arin, stores, 1)
	for _, workers := range []int{2, 4, 8} {
		par := syncWithWorkers(t, arin, stores, workers)
		if got, want := fingerprint(par), fingerprint(seq); got != want {
			t.Errorf("workers=%d diverged from sequential:\n--- parallel ---\n%s--- sequential ---\n%s", workers, got, want)
		}
	}
}

// TestParallelMatchesSequentialFaults repeats the equivalence check on a
// world with injected faults: a third-party-deleted object, a corrupted
// object, and a dead publication point.
func TestParallelMatchesSequentialFaults(t *testing.T) {
	build := func(t *testing.T) (*ca.Authority, StoreFetcher) {
		arin, _, _, stores := buildFigure2(t)
		// Missing object: deleted behind the manifest's back.
		stores["continental"].Delete("cont-22.roa")
		// Hash mismatch: corrupted in place.
		raw, _ := stores["continental"].Get("cont-25.roa")
		raw[len(raw)-1] ^= 0xFF
		stores["continental"].Put("cont-25.roa", raw)
		// Dead publication point: ETB's store vanishes entirely.
		delete(stores, "etb")
		return arin, stores
	}
	arin, stores := build(t)
	seq := syncWithWorkers(t, arin, stores, 1)
	if !seq.Incomplete() {
		t.Fatal("fault world should be incomplete")
	}
	sawFetchFailure := false
	for _, d := range seq.Diagnostics {
		if d.Kind == DiagFetchFailure && d.Module == "etb" {
			sawFetchFailure = true
		}
	}
	if !sawFetchFailure {
		t.Fatalf("want etb fetch-failure, got %v", seq.Diagnostics)
	}
	for _, workers := range []int{2, 8} {
		par := syncWithWorkers(t, arin, stores, workers)
		if got, want := fingerprint(par), fingerprint(seq); got != want {
			t.Errorf("workers=%d diverged on fault world:\n--- parallel ---\n%s--- sequential ---\n%s", workers, got, want)
		}
	}
}

// TestParallelDeterministic runs the same parallel sync repeatedly and
// requires identical output every time, exercising scheduling variation
// (and the race detector, under -race).
func TestParallelDeterministic(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	stores["continental"].Delete("cont-22.roa") // some diagnostics in play
	want := fingerprint(syncWithWorkers(t, arin, stores, 8))
	for i := 0; i < 5; i++ {
		if got := fingerprint(syncWithWorkers(t, arin, stores, 8)); got != want {
			t.Fatalf("run %d differs:\n--- got ---\n%s--- want ---\n%s", i, got, want)
		}
	}
}

// TestWarmCacheResync checks the signature-verdict cache through the
// per-sync counters: a cold sync verifies (misses), a warm sync of an
// unchanged world reuses every module and looks nothing up, and a warm sync
// after one ROA is replaced re-validates that one module — verifying only
// the objects whose bytes changed and answering its unchanged siblings from
// the cache.
func TestWarmCacheResync(t *testing.T) {
	arin, _, continental, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)
	if cold.VerifyCacheMisses == 0 {
		t.Fatal("cold sync should populate the cache")
	}

	idle := syncReuse(t, relying)
	if idle.ModulesRevalidated != 0 || idle.VerifyCacheHits != 0 || idle.VerifyCacheMisses != 0 {
		t.Errorf("unchanged warm sync: revalidated=%d hits=%d misses=%d, want no lookups at all",
			idle.ModulesRevalidated, idle.VerifyCacheHits, idle.VerifyCacheMisses)
	}
	if got, want := fingerprint(idle), fingerprint(cold); got != want {
		t.Errorf("warm resync diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}

	before := stores["continental"].Snapshot()
	if err := continental.DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	mustROA(t, continental, "cont-22", 7341, "63.174.16.0/22")
	changed, unchanged := 0, 0
	for name, raw := range stores["continental"].Snapshot() {
		if bytes.Equal(raw, before[name]) {
			unchanged++
		} else {
			changed++
		}
	}
	if unchanged == 0 {
		t.Fatal("replacing one ROA should leave its siblings' bytes alone")
	}
	warm := syncReuse(t, relying)
	if warm.ModulesRevalidated != 1 {
		t.Errorf("revalidated %d modules, want 1", warm.ModulesRevalidated)
	}
	if warm.VerifyCacheMisses != changed {
		t.Errorf("warm sync verified %d signatures, want %d (one per changed object)", warm.VerifyCacheMisses, changed)
	}
	if warm.VerifyCacheHits < unchanged {
		t.Errorf("warm sync hit the cache %d times, want at least %d (one per unchanged sibling)", warm.VerifyCacheHits, unchanged)
	}
	if got, want := fingerprint(warm), fingerprint(syncWithWorkers(t, arin, stores, 4)); got != want {
		t.Errorf("warm sync after replacement diverged from fresh:\n--- warm ---\n%s--- fresh ---\n%s", got, want)
	}
}

// TestWarmCacheSeesMutations checks that the cache never serves stale
// verdicts: the cache is keyed by content, so an authority republishing an
// object invalidates it naturally.
func TestWarmCacheSeesMutations(t *testing.T) {
	arin, _, continental, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	if _, err := relying.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The authority stealthily deletes a ROA; the warm relying party must
	// notice exactly like a cold one.
	if err := continental.DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	warm, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold := syncWithWorkers(t, arin, stores, 1)
	if got, want := fingerprint(warm), fingerprint(cold); got != want {
		t.Errorf("warm sync after mutation diverged from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
	if warm.ROAsAccepted != 7 {
		t.Errorf("ROAs after deletion = %d, want 7", warm.ROAsAccepted)
	}
}

// TestParallelDropPolicyEquivalence checks the DropPublicationPoint policy
// under parallel validation: the dropped subtree is identical.
func TestParallelDropPolicyEquivalence(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	stores["continental"].Delete("cont-22.roa")
	run := func(workers int) *Result {
		relying := New(Config{Fetcher: stores, Clock: clock, Policy: DropPublicationPoint, Workers: workers},
			TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
		res, err := relying.Sync(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if got, want := fingerprint(par), fingerprint(seq); got != want {
		t.Errorf("drop policy diverged:\n--- parallel ---\n%s--- sequential ---\n%s", got, want)
	}
}

// TestParallelMultiAnchorOverTCP runs a parallel sync over real TCP with
// concurrent client connections, checking it against the in-process result.
func TestParallelMultiAnchorOverTCP(t *testing.T) {
	cfg := ca.Config{Clock: clock}
	srv := repo.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stores := StoreFetcher{}
	newAuthority := func(module, resources string) *ca.Authority {
		store := repo.NewStore()
		stores[module] = store
		uri := repo.URI{Host: addr, Module: module}
		a, err := ca.NewTrustAnchor(module, ipres.MustParseSet(resources), store, uri, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.AddModule(module, store, nil)
		return a
	}
	ta := newAuthority("ta", "63.0.0.0/8")
	for i := 0; i < 16; i++ {
		mustROA(t, ta, fmt.Sprintf("r%02d", i), 1239, fmt.Sprintf("63.%d.0.0/16", i))
	}

	anchor := TrustAnchor{CertDER: ta.Cert.Raw, URI: repo.URI{Host: addr, Module: "ta"}}
	tcp := New(Config{
		Fetcher: &repo.Client{Timeout: 5 * time.Second, Concurrency: 4},
		Clock:   clock,
		Workers: 8,
	}, anchor)
	viaTCP, err := tcp.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inProc := syncWithWorkers(t, ta, stores, 1)
	if got, want := fingerprint(viaTCP), fingerprint(inProc); got != want {
		t.Errorf("TCP parallel sync diverged from in-process sequential:\n--- tcp ---\n%s--- in-process ---\n%s", got, want)
	}
	if viaTCP.ROAsAccepted != 16 {
		t.Errorf("ROAs = %d, want 16", viaTCP.ROAsAccepted)
	}
}
