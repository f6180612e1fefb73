package rp

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/obs"
)

// syncReuse runs one Sync on an existing relying party and fails the test
// on error.
func syncReuse(t *testing.T, relying *RelyingParty) *Result {
	t.Helper()
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestModuleReuseWarmResync: a second sync of an unchanged world reuses
// every module — zero re-validation — and produces identical output.
func TestModuleReuseWarmResync(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)
	if cold.ModulesRevalidated != cold.PubPointsVisited {
		t.Errorf("cold: revalidated %d of %d points", cold.ModulesRevalidated, cold.PubPointsVisited)
	}
	if cold.ModulesReused != 0 {
		t.Errorf("cold: %d modules reused, want 0", cold.ModulesReused)
	}
	warm := syncReuse(t, relying)
	if warm.ModulesRevalidated != 0 {
		t.Errorf("warm: revalidated %d modules, want 0", warm.ModulesRevalidated)
	}
	if warm.ModulesReused != cold.PubPointsVisited {
		t.Errorf("warm: reused %d modules, want %d", warm.ModulesReused, cold.PubPointsVisited)
	}
	if got, want := fingerprint(warm), fingerprint(cold); got != want {
		t.Errorf("warm resync diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestModuleReuseOneModuleChanged: a change to one publication point
// re-validates exactly that point; every other module is reused, and the
// output matches a from-scratch validation of the new world.
func TestModuleReuseOneModuleChanged(t *testing.T) {
	arin, _, continental, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)

	// The authority deletes a ROA (and republishes its manifest/CRL):
	// only the continental module's bytes change.
	if err := continental.DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	warm := syncReuse(t, relying)
	if warm.ModulesRevalidated != 1 {
		t.Errorf("revalidated %d modules, want exactly 1", warm.ModulesRevalidated)
	}
	if want := cold.PubPointsVisited - 1; warm.ModulesReused != want {
		t.Errorf("reused %d modules, want %d", warm.ModulesReused, want)
	}
	fresh := syncWithWorkers(t, arin, stores, 4)
	if got, want := fingerprint(warm), fingerprint(fresh); got != want {
		t.Errorf("incremental result diverged from fresh validation:\n--- warm ---\n%s--- fresh ---\n%s", got, want)
	}
	if len(warm.VRPs) >= len(cold.VRPs) {
		t.Errorf("deleting a ROA should shrink the VRP set: %d -> %d", len(cold.VRPs), len(warm.VRPs))
	}
}

// TestModuleReuseOutputEquivalence: the VRP set and diagnostics of a
// relying party that reuses modules are byte-identical, at any worker
// count, to those of a fresh one — no memo, empty verdict cache — on the
// same world, before and after a mutation.
func TestModuleReuseOutputEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		arin, _, continental, stores := buildFigure2(t)
		warm := New(Config{Fetcher: stores, Clock: clock, Workers: workers},
			TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
		if got, want := fingerprint(syncReuse(t, warm)), fingerprint(syncWithWorkers(t, arin, stores, workers)); got != want {
			t.Errorf("workers=%d cold sync diverged:\n--- reuse ---\n%s--- fresh ---\n%s", workers, got, want)
		}
		// Mutate, then compare: the warm relying party reuses 3 modules,
		// the fresh one validates all 4.
		if err := continental.DeleteROA("cont-26"); err != nil {
			t.Fatal(err)
		}
		res := syncReuse(t, warm)
		if res.ModulesReused != 3 {
			t.Errorf("workers=%d: reused %d modules, want 3", workers, res.ModulesReused)
		}
		if got, want := fingerprint(res), fingerprint(syncWithWorkers(t, arin, stores, workers)); got != want {
			t.Errorf("workers=%d warm sync diverged:\n--- reuse ---\n%s--- fresh ---\n%s", workers, got, want)
		}
	}
}

// TestModuleReuseEpochExpiry: reuse must stop at the cached epoch's edge.
// Advancing the clock past the manifest/CRL freshness window (24h in the
// test CA) forces a full re-validation even though no byte changed — the
// re-validation then reports the stale manifests a cold sync would.
func TestModuleReuseEpochExpiry(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	now := testEpoch
	relying := New(Config{Fetcher: stores, Clock: func() time.Time { return now }, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)

	// Inside the epoch: reuse.
	now = testEpoch.Add(23 * time.Hour)
	warm := syncReuse(t, relying)
	if warm.ModulesReused != cold.PubPointsVisited || warm.ModulesRevalidated != 0 {
		t.Errorf("inside epoch: reused=%d revalidated=%d, want %d/0",
			warm.ModulesReused, warm.ModulesRevalidated, cold.PubPointsVisited)
	}

	// Past the manifests' nextUpdate: the cached verdicts may no longer
	// hold, so every module re-validates (and reports staleness).
	now = testEpoch.Add(25 * time.Hour)
	expired := syncReuse(t, relying)
	if expired.ModulesReused != 0 {
		t.Errorf("past epoch: %d modules reused, want 0", expired.ModulesReused)
	}
	if expired.ModulesRevalidated != cold.PubPointsVisited {
		t.Errorf("past epoch: revalidated %d, want %d", expired.ModulesRevalidated, cold.PubPointsVisited)
	}
	stale := 0
	for _, d := range expired.Diagnostics {
		if d.Kind == DiagStaleManifest {
			stale++
		}
	}
	if stale == 0 {
		t.Error("past epoch: expected stale-manifest diagnostics from the re-validation")
	}
}

// TestModuleReuseAuthorityChange: the paper's certificate whacking. A
// grandparent shrinking a child CA's resources changes nothing in the
// child's own publication point, but its validation outcome changes — the
// memo must re-validate, not reuse.
func TestModuleReuseAuthorityChange(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)

	// Sprint whacks Continental down to a /24: continental's own store is
	// untouched, but its ROAs now exceed the shrunken certificate.
	if err := sprint.ShrinkChild("continental", ipres.MustParseSet("63.174.16.0/24")); err != nil {
		t.Fatal(err)
	}
	warm := syncReuse(t, relying)
	if warm.ModulesReused >= cold.PubPointsVisited {
		t.Errorf("reused %d modules after an authority change", warm.ModulesReused)
	}
	fresh := syncWithWorkers(t, arin, stores, 4)
	if got, want := fingerprint(warm), fingerprint(fresh); got != want {
		t.Errorf("post-whack result diverged from fresh validation:\n--- warm ---\n%s--- fresh ---\n%s", got, want)
	}
	if len(warm.VRPs) >= len(cold.VRPs) {
		t.Errorf("whacking should shrink the VRP set: %d -> %d", len(cold.VRPs), len(warm.VRPs))
	}
}

// TestMemoAuthorityAsDER pins the memo's child links holding certificates
// as DER: a walk reached through a reused parent carries its authority as
// bytes, is reused without parsing them when its own point is unchanged,
// and parses them to revalidate when it is not. In every case the warm
// relying party must agree with a cold one, at one worker and at several.
func TestMemoAuthorityAsDER(t *testing.T) {
	type counts struct{ reused, revalidated int }
	cases := []struct {
		name string
		// change mutates the world; each returned count is what one warm
		// sync after it must show.
		change func(t *testing.T, sprint, continental *ca.Authority, stores StoreFetcher) []counts
		// authorityChanged is how many reuse rejections must say so.
		authorityChanged float64
	}{{
		// The bench's change op: one ROA at a leaf whose parent is reused,
		// so the leaf's authority comes from the parent's memo as DER and
		// is parsed only because the leaf revalidates.
		name: "child changes under a reused parent",
		change: func(t *testing.T, _, continental *ca.Authority, _ StoreFetcher) []counts {
			if err := continental.DeleteROA("cont-22"); err != nil {
				t.Fatal(err)
			}
			return []counts{{reused: 3, revalidated: 1}}
		},
	}, {
		// The parent republishes with the child's certificate rewritten to
		// a fresh buffer holding the same bytes: the parent revalidates, the
		// child's memo entry matches byte for byte and the child is reused.
		name: "parent reissues the child byte-identically",
		change: func(t *testing.T, sprint, _ *ca.Authority, stores StoreFetcher) []counts {
			der, ok := stores["sprint"].Get("continental.cer")
			if !ok {
				t.Fatal("sprint does not publish continental.cer")
			}
			stores["sprint"].Put("continental.cer", bytes.Clone(der))
			mustROA(t, sprint, "sprint-171", 1239, "63.171.0.0/16")
			return []counts{{reused: 3, revalidated: 1}}
		},
	}, {
		// The whack: sprint shrinks continental below its ROAs. The first
		// sync revalidates sprint and, under the freshly parsed certificate,
		// continental (authority-changed, tainted, so no memo entry); the
		// second reuses sprint and revalidates continental again under the
		// certificate parsed from sprint's memo DER.
		name: "shrink child",
		change: func(t *testing.T, sprint, _ *ca.Authority, _ StoreFetcher) []counts {
			if err := sprint.ShrinkChild("continental", ipres.MustParseSet("63.174.16.0/24")); err != nil {
				t.Fatal(err)
			}
			return []counts{{reused: 2, revalidated: 2}, {reused: 3, revalidated: 1}}
		},
		authorityChanged: 1,
	}}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				arin, sprint, continental, stores := buildFigure2(t)
				hub := obs.NewHub(clock)
				warm := New(Config{Fetcher: stores, Clock: clock, Workers: workers, Obs: hub},
					TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
				before := syncReuse(t, warm)
				for i, want := range tc.change(t, sprint, continental, stores) {
					res := syncReuse(t, warm)
					if res.ModulesReused != want.reused || res.ModulesRevalidated != want.revalidated {
						t.Errorf("sync %d: reused %d, revalidated %d modules, want %d and %d",
							i, res.ModulesReused, res.ModulesRevalidated, want.reused, want.revalidated)
					}
					if got, want := fingerprint(res), fingerprint(syncWithWorkers(t, arin, stores, workers)); got != want {
						t.Errorf("sync %d diverged from a cold one:\n--- warm ---\n%s--- cold ---\n%s", i, got, want)
					}
					if tc.authorityChanged > 0 && len(res.VRPs) >= len(before.VRPs) {
						t.Errorf("sync %d: the whack left %d of %d VRPs", i, len(res.VRPs), len(before.VRPs))
					}
				}
				got, _ := hub.Registry().Sample(`rpki_module_reuse_rejected_total{reason="authority-changed"}`)
				if got != tc.authorityChanged {
					t.Errorf("authority-changed rejections = %v, want %v", got, tc.authorityChanged)
				}
			})
		}
	}
}

// TestModuleReuseTaintedNotCached: a module that validated with any
// diagnostic must never be reused, even when its bytes are unchanged — a
// degraded verdict is recomputed every sync until the authority fixes it.
func TestModuleReuseTaintedNotCached(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	// Corrupt a ROA in place (behind the manifest's back).
	raw, _ := stores["continental"].Get("cont-25.roa")
	raw[len(raw)-1] ^= 0xFF
	stores["continental"].Put("cont-25.roa", raw)

	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)
	if !cold.Incomplete() {
		t.Fatal("corrupted world should be incomplete")
	}
	warm := syncReuse(t, relying)
	// The three clean modules are reused; the tainted one re-validates.
	if warm.ModulesRevalidated != 1 {
		t.Errorf("revalidated %d modules, want 1 (the tainted one)", warm.ModulesRevalidated)
	}
	if got, want := fingerprint(warm), fingerprint(cold); got != want {
		t.Errorf("warm resync of tainted world diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}
