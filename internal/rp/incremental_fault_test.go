package rp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
)

// issueR2 publishes a second ROA under the child authority, changing the
// child module's bytes (new object + republished manifest and CRL).
func issueR2(t *testing.T, w *tcpWorld) {
	t.Helper()
	if _, err := w.child.IssueROA("r2", 1239, roa.MustParsePrefix("63.168.0.0/13")); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalListingMismatchFallsBackToFullFetch: when a downloaded
// object contradicts the digest its listing promised — the point republished
// between LIST and GET, or the body was damaged in flight — the relying party
// must replace the incremental sync with a clean full fetch, and the result
// must reflect the server's CURRENT world, not the cached snapshot nor a
// stitched one.
func TestIncrementalListingMismatchFallsBackToFullFetch(t *testing.T) {
	for _, tc := range []struct {
		name string
		// breakListing arranges for the next incremental sync of the child
		// module to download bytes its listing did not promise; the returned
		// func undoes whatever would also damage a plain full fetch.
		breakListing func(t *testing.T, w *tcpWorld) (heal func())
		newROAs      int
	}{
		{
			name: "republished between LIST and GET",
			breakListing: func(t *testing.T, w *tcpWorld) func() {
				// Request 1 is the LIST; the first GET (the CRL) is served
				// after the authority has published once more.
				var once sync.Once
				w.childFaults.SetScript(func(requestN int) repo.FaultAction {
					if requestN == 2 {
						once.Do(func() {
							if _, err := w.child.IssueROA("r3", 1239, roa.MustParsePrefix("63.164.0.0/14")); err != nil {
								t.Error(err)
							}
						})
					}
					return repo.ActNone
				})
				return func() { w.childFaults.SetScript(nil) }
			},
			newROAs: 2,
		},
		{
			name: "corrupted in flight",
			breakListing: func(t *testing.T, w *tcpWorld) func() {
				// The cycle advances on GET only: the incremental sync draws
				// the damaged body, the fallback the clean one.
				w.childFaults.CorruptRate("r2.roa", 1, 2)
				return func() { w.childFaults.Restore("r2.roa") }
			},
			newROAs: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildTCPWorld(t)
			hub := obs.NewHub(clock)
			relying := New(Config{
				Fetcher:        resilientClient(1),
				Clock:          clock,
				CacheSnapshots: true,
				Obs:            hub,
			}, w.anchor)
			first, err := relying.Sync(context.Background())
			if err != nil || first.Incomplete() {
				t.Fatalf("cold sync: %v %v", err, first.Diagnostics)
			}

			// The world changes (a new ROA appears) AND the incremental
			// protocol breaks: a stale reuse would miss the new ROA.
			issueR2(t, w)
			heal := tc.breakListing(t, w)
			second, err := relying.Sync(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			heal()
			if second.Incomplete() {
				t.Fatalf("fallback sync should be clean, diags: %v", second.Diagnostics)
			}
			if second.IncrementalFallbacks != 1 {
				t.Errorf("IncrementalFallbacks = %d, want 1", second.IncrementalFallbacks)
			}
			if second.Retries != 0 {
				t.Errorf("retries = %d: a mismatch is an answer, not a transport failure", second.Retries)
			}
			var fallbacks int
			for _, e := range hub.Recorder().Snapshot() {
				if e.Kind == obs.EventIncrementalFallback && e.Module == "child" {
					fallbacks++
				}
			}
			if fallbacks != 1 {
				t.Errorf("flight recorder holds %d incremental-fallback events for child, want 1", fallbacks)
			}
			// The fallback must serve the new world: compare against a
			// from-scratch full validation (which reads no digests, so the
			// fault is invisible to it).
			fresh, err := New(Config{Fetcher: resilientClient(0), Clock: clock}, w.anchor).Sync(context.Background())
			if err != nil || fresh.Incomplete() {
				t.Fatalf("fresh baseline: %v %v", err, fresh.Diagnostics)
			}
			if !reflect.DeepEqual(second.VRPs, fresh.VRPs) {
				t.Errorf("fallback diverged from fresh validation:\n%v\n%v", second.VRPs, fresh.VRPs)
			}
			if len(second.VRPs) != len(first.VRPs)+tc.newROAs {
				t.Errorf("new ROAs missing after fallback: %d VRPs, want %d", len(second.VRPs), len(first.VRPs)+tc.newROAs)
			}
		})
	}
}

// TestIncrementalCorruptObjectNeverSilentlyStale: an object that the server
// corrupts after the relying party cached a clean copy must surface as a
// diagnostic — the incremental sync downloads the corrupted bytes and the
// manifest cross-check rejects them. Keeping the (manifest-consistent!)
// cached copy would be the silent-staleness bug.
func TestIncrementalCorruptObjectNeverSilentlyStale(t *testing.T) {
	w := buildTCPWorld(t)
	relying := New(Config{
		Fetcher:        resilientClient(1),
		Clock:          clock,
		CacheSnapshots: true,
	}, w.anchor)
	first, err := relying.Sync(context.Background())
	if err != nil || first.Incomplete() {
		t.Fatalf("cold sync: %v %v", err, first.Diagnostics)
	}
	if first.Index().State(childRoute) != rov.Valid {
		t.Fatal("baseline route should be Valid")
	}

	// Corruption flips the served hash, so the listing disagrees with the
	// cached copy and the sync downloads the corrupted bytes.
	w.childFaults.Corrupt("r.roa")
	second, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Incomplete() || !hasDiag(second, DiagHashMismatch, "child") {
		t.Fatalf("corruption must be diagnosed, got %v", second.Diagnostics)
	}
	if second.Index().State(childRoute) == rov.Valid {
		t.Error("corrupted ROA must not keep the route Valid via the cached copy")
	}

	// The fault clears: the next incremental sync restores the clean world
	// (and the tainted verdict must not have poisoned the module memo).
	w.childFaults.Restore("")
	third, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.Incomplete() {
		t.Fatalf("recovered sync should be clean, diags: %v", third.Diagnostics)
	}
	if third.Index().State(childRoute) != rov.Valid {
		t.Error("route should be Valid again after recovery")
	}
}

// TestIncrementalHashFlipMidSync: the repository republishes in the middle of
// the relying party's GETs, so what the sync could assemble is a torn view —
// part old world, part new. The verdict is never clean-and-stale: either the
// sync is clean and its VRPs are those of the point's current world (the body
// that contradicted the listing sent the sync down the full-fetch fallback),
// or the tear is diagnosed. The next sync then converges on the new world.
func TestIncrementalHashFlipMidSync(t *testing.T) {
	w := buildTCPWorld(t)
	relying := New(Config{
		Fetcher:        resilientClient(1),
		Clock:          clock,
		CacheSnapshots: true,
	}, w.anchor)
	first, err := relying.Sync(context.Background())
	if err != nil || first.Incomplete() {
		t.Fatalf("cold sync: %v %v", err, first.Diagnostics)
	}

	// The child publishes r2, so its warm sync issues LIST, then GETs the
	// changed objects in sorted order (child.crl, child.mft, r2.roa).
	// Republishing on request 3 lands the flip between two GETs: the CRL was
	// served from the listed world, the manifest comes from the next one.
	issueR2(t, w)
	var flipOnce sync.Once
	var flipErr error
	w.childFaults.SetScript(func(requestN int) repo.FaultAction {
		if requestN == 3 {
			flipOnce.Do(func() {
				_, flipErr = w.child.IssueROA("r3", 1239, roa.MustParsePrefix("63.164.0.0/14"))
			})
		}
		return repo.ActNone
	})
	second, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if flipErr != nil {
		t.Fatal(flipErr)
	}
	w.childFaults.SetScript(nil)
	fresh, err := New(Config{Fetcher: resilientClient(0), Clock: clock}, w.anchor).Sync(context.Background())
	if err != nil || fresh.Incomplete() {
		t.Fatalf("fresh baseline: %v %v", err, fresh.Diagnostics)
	}
	if len(fresh.VRPs) != len(first.VRPs)+2 {
		t.Fatalf("the flipped world should hold %d VRPs, has %d", len(first.VRPs)+2, len(fresh.VRPs))
	}
	switch {
	case !second.Incomplete():
		if !reflect.DeepEqual(second.VRPs, fresh.VRPs) {
			t.Errorf("clean and stale: a clean result must be the current world:\n%v\n%v", second.VRPs, fresh.VRPs)
		}
		if second.IncrementalFallbacks != 1 {
			t.Errorf("IncrementalFallbacks = %d, want 1 (the only clean way through a mid-sync flip)", second.IncrementalFallbacks)
		}
	case !hasDiag(second, DiagMissingObject, "child") && !hasDiag(second, DiagHashMismatch, "child"):
		t.Errorf("want missing-object or hash-mismatch on the torn module, got %v", second.Diagnostics)
	}

	// The tear is transient by construction: the very next sync sees a
	// stable world and must converge cleanly on it.
	third, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.Incomplete() {
		t.Fatalf("post-flip sync should be clean, diags: %v", third.Diagnostics)
	}
	if !reflect.DeepEqual(third.VRPs, fresh.VRPs) {
		t.Errorf("converged sync diverged from fresh validation:\n%v\n%v", third.VRPs, fresh.VRPs)
	}
}
