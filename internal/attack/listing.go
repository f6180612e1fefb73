package attack

import (
	"reflect"
	"time"

	"repro/internal/ca"
	"repro/internal/obs"
	"repro/internal/roa"
	"repro/internal/rp"
)

// The listing campaign. Since a LIST reply carries every object's SHA-256, a
// relying party that holds a point's objects learns "nothing changed" from
// one round trip — which makes the listing the cheapest thing for a hostile
// repository to lie in (the session/serial abuses catalogued for RRDP in
// "SoK: An Introspective Analysis of RPKI Security" and "The Fault in Our
// Drafts" are this lie in another protocol). Each scenario tells one such lie
// while the authority itself keeps publishing honestly, and asserts that the
// lie is bounded and named: by a full-fetch fallback and a counter, or by the
// manifest's nextUpdate on the injected clock.

func listingScenarios() []Scenario {
	return []Scenario{
		{
			Name:  "listing/digest-mismatch",
			Paper: "SoK: An Introspective Analysis of RPKI Security (arXiv:2408.12359); paper §4 (Side Effect 6)",
			Layer: "listing digest check + full-fetch fallback",
			Doc:   "the listing promises digests of a world the repository no longer serves, every sync: each GET contradicts it, the RP falls back to a full fetch every time, serves what validates and reports degraded",
			Run:   runListingDigestMismatch,
		},
		{
			Name:        "listing/frozen",
			Paper:       "The Fault in Our Drafts (arXiv:2605.26986); Stalloris (arXiv:2205.06064) §7",
			Layer:       "memo epoch + manifest nextUpdate",
			Doc:         "the repository keeps serving the listing of an old world while the authority republishes: the RP is held on the old VRPs only until the manifest's nextUpdate on the injected clock, then the point is declared stale",
			ClockBudget: 26 * time.Hour,
			Run:         runListingFrozen,
		},
	}
}

// republish has an authority re-issue its CRL and manifest at the injected
// clock's now — what an honest authority does before nextUpdate passes.
func republish(e *Env, a *ca.Authority) {
	a.BeginBulk()
	if err := a.EndBulk(); err != nil {
		e.Fatalf("republish %s: %v", a.Name, err)
	}
}

func issue(e *Env, a *ca.Authority, name, prefix string) {
	if _, err := a.IssueROA(name, 1239, roa.MustParsePrefix(prefix)); err != nil {
		e.Fatalf("issue %s: %v", name, err)
	}
}

func runListingDigestMismatch(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{MaxRetries: 1})
	relying := w.NewRP(rp.Config{Fetcher: client, CacheSnapshots: true})
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 1 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 1 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}

	// The RP holds world A. The authority publishes B, the repository
	// captures B's listing and keeps answering with it, the authority
	// publishes C: from now on every changed object's GET serves C's bytes
	// under B's digest.
	issue(e, w.Child, "r2", "63.168.0.0/13")
	w.ChildFaults.FreezeListing(w.ChildStore.Infos())
	issue(e, w.Child, "r3", "63.164.0.0/14")

	const syncs = 3
	var last *rp.Result
	for i := 0; i < syncs; i++ {
		last = w.Sync(relying)
		if last.IncrementalFallbacks != 1 {
			e.Failf("sync %d: IncrementalFallbacks = %d, want 1 (the child, every time)", i, last.IncrementalFallbacks)
		}
		// The fallback fetches what the lying listing names: B's object set
		// with C's manifest. What validates is served, r3 is reported missing.
		if got := last.Health(); got != obs.HealthDegraded {
			e.Failf("sync %d: health = %s, want degraded (diags: %v)", i, got, last.Diagnostics)
		}
		if len(last.VRPs) != 2 {
			e.Failf("sync %d: %d VRPs, want the 2 the listing lets through (r, r2)", i, len(last.VRPs))
		}
	}
	e.RequireEvent(obs.EventIncrementalFallback)
	e.RequireCounter("rpki_repo_listing_mismatch_total", syncs)
	e.AssertTerminal(last, obs.HealthDegraded)

	// The repository stops lying: one sync converges on the current world.
	w.ChildFaults.FreezeListing(nil)
	healed := w.Sync(relying)
	if got := healed.Health(); got != obs.HealthClean || len(healed.VRPs) != 3 || healed.IncrementalFallbacks != 0 {
		e.Failf("healed: health = %s, %d VRPs, %d fallbacks; want clean, 3, 0 (diags: %v)",
			got, len(healed.VRPs), healed.IncrementalFallbacks, healed.Diagnostics)
	}
}

func runListingFrozen(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{})
	relying := w.NewRP(rp.Config{Fetcher: client, CacheSnapshots: true})
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 1 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 1 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}

	// The repository freezes the child's listing; the authority issues r2.
	// Every held object matches the listing, so the point reads unchanged and
	// the lie costs the repository nothing: r2 is invisible.
	w.ChildFaults.FreezeListing(w.ChildStore.Infos())
	issue(e, w.Child, "r2", "63.168.0.0/13")
	e.Clock.Advance(time.Hour)
	pinned := w.Sync(relying)
	if got := pinned.Health(); got != obs.HealthClean || !reflect.DeepEqual(pinned.VRPs, baseline.VRPs) {
		e.Failf("inside the epoch the frozen listing should hold the RP on the old world: health = %s, %d VRPs (diags: %v)",
			got, len(pinned.VRPs), pinned.Diagnostics)
	}
	if pinned.ModulesReused != 2 || pinned.ObjectsDownloaded != 0 {
		e.Failf("pinned sync: %d modules reused, %d objects downloaded; want 2, 0", pinned.ModulesReused, pinned.ObjectsDownloaded)
	}

	// The bound: past the held manifest's nextUpdate the memo epoch ends, the
	// held bytes are revalidated and found stale — however fresh the manifest
	// the authority has published behind the frozen listing.
	e.Clock.Advance(24 * time.Hour)
	republish(e, w.TA)
	republish(e, w.Child)
	expired := w.Sync(relying)
	e.AssertTerminal(expired, obs.HealthDegraded)
	stale := false
	for _, d := range expired.Diagnostics {
		stale = stale || d.Kind == rp.DiagStaleManifest && d.Module == "child"
	}
	if !stale {
		e.Failf("past nextUpdate the frozen point must be declared stale, got %v", expired.Diagnostics)
	}
	e.RequireEvent(obs.EventReuseRejected)

	// The repository thaws: one sync converges on the current world.
	w.ChildFaults.FreezeListing(nil)
	healed := w.Sync(relying)
	if got := healed.Health(); got != obs.HealthClean || len(healed.VRPs) != 2 {
		e.Failf("healed: health = %s, %d VRPs; want clean, 2 (diags: %v)", got, len(healed.VRPs), healed.Diagnostics)
	}
}
