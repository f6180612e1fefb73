package attack

import (
	"context"
	"net"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rp"
)

// The feed campaign. Since repo.Client asks a peer once, with VERSIONS, which
// of its points changed, and returns the rest without listing them, a
// repository no longer has to forge a listing to hold a relying party on an
// old world: it only has to keep saying "unchanged". That is the RRDP
// session/serial lie of "SoK: An Introspective Analysis of RPKI Security" and
// "The Fault in Our Drafts" in this protocol. Each scenario tells it one way
// while the authority keeps publishing honestly, and asserts the lie is
// bounded and named. Out of scope here, by design: a repository that replays
// an old token together with the old, validly signed objects it stood for
// tells no lie the transport can catch — that is the manifest-number floor of
// ROADMAP item 2.

func feedScenarios() []Scenario {
	return []Scenario{
		{
			Name:        "feed/frozen",
			Paper:       "The Fault in Our Drafts (arXiv:2605.26986); SoK: An Introspective Analysis of RPKI Security (arXiv:2408.12359)",
			Layer:       "re-proving audit (every 32nd fetch lists for real) + memo epoch",
			Doc:         "the peer keeps vouching for an old token while the authority republishes: within 32 syncs the point is listed for real, the audit finds changed digests under the vouched token, counts the lie and names the peer; with the listing frozen too the bound is the manifest's nextUpdate, then stale",
			ClockBudget: 26 * time.Hour,
			Run:         runFeedFrozen,
		},
		{
			Name:  "feed/foreign",
			Paper: "Stalloris (arXiv:2205.06064) §4; SoK: An Introspective Analysis of RPKI Security (arXiv:2408.12359)",
			Layer: "feeds believed only from the peer a host's last real dial reached",
			Doc:   "a point's name moves to a new peer while the old one keeps vouching for it: the re-proving dial reaches the new peer within 32 fetches and counts the move, and from then on the old peer's word about that module is never consulted — the new peer is asked, every change is seen on the next sync",
			Run:   runFeedForeign,
		},
		{
			Name:  "feed/rollback",
			Paper: "The Fault in Our Drafts (arXiv:2605.26986) (serial regression)",
			Layer: "tokens compared for equality only",
			Doc:   "the peer vouches for an older token than the one the relying party remembers: a token is opaque, so older is just different — the point costs one listing, what is held matches it, nothing moves (replaying the old objects with it is ROADMAP item 2's floor, not the transport's)",
			Run:   runFeedRollback,
		},
	}
}

func runFeedFrozen(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{})
	relying := w.NewRP(rp.Config{Fetcher: client, CacheSnapshots: true})
	// The repository vouches for the child at the version it has now, and
	// will go on doing so.
	w.ChildFaults.FreezeVersion(w.ChildStore.Version())
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 1 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 1 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}

	issue(e, w.Child, "r2", "63.168.0.0/13")
	var last *rp.Result
	syncs := 0
	for {
		syncs++
		last = w.Sync(relying)
		if len(last.VRPs) == 2 {
			break
		}
		if got := last.Health(); got != obs.HealthClean || !reflect.DeepEqual(last.VRPs, baseline.VRPs) {
			e.Failf("sync %d: health = %s, %d VRPs; a skipped point is the old world, whole and clean (diags: %v)", syncs, got, len(last.VRPs), last.Diagnostics)
		}
		if syncs >= reproveBound {
			e.Fatalf("still on the frozen token's world after %d syncs", syncs)
		}
	}
	e.Logf("audited on sync %d of at most %d", syncs, reproveBound)
	if syncs > 1 {
		e.RequireCounter("rpki_repo_feed_skips_total", 1)
	}
	e.RequireCounter("rpki_repo_feed_lies_total", 1)
	e.RequireEvent(obs.EventFeedLie)
	if got := last.Health(); got != obs.HealthClean {
		e.Failf("after the audit: health = %s, want clean (diags: %v)", got, last.Diagnostics)
	}

	// The listing freezes too: now the audit reads the same lie the feed
	// tells, and what bounds it is what bounds listing/frozen — the memo epoch.
	w.ChildFaults.FreezeListing(w.ChildStore.Infos())
	issue(e, w.Child, "r3", "63.164.0.0/14")
	e.Clock.Advance(25 * time.Hour)
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

	// The repository stops lying: one sync converges on the current world.
	w.ChildFaults.Restore("")
	healed := w.Sync(relying)
	if got := healed.Health(); got != obs.HealthClean || len(healed.VRPs) != 3 {
		e.Failf("healed: health = %s, %d VRPs; want clean, 3 (diags: %v)", got, len(healed.VRPs), healed.Diagnostics)
	}
}

func runFeedForeign(e *Env) {
	const childHost = "child.example:873"
	w := e.newWorld(childHost)
	// A sibling point the old peer serves honestly: with the trust anchor it
	// keeps that peer's feed worth asking for after the child has left.
	sibStore := repo.NewStore()
	sib, err := w.TA.CreateChild("sib", ipres.MustParseSet("63.176.0.0/12"), sibStore, repo.URI{Host: w.Addr, Module: "sib"})
	if err != nil {
		e.Fatalf("sibling: %v", err)
	}
	issue(e, sib, "s", "63.176.0.0/13")
	w.Server.AddModule("sib", sibStore, nil)

	var movedTo atomic.Pointer[string]
	client := w.Client(ClientOpts{})
	client.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		target := w.Addr
		if to := movedTo.Load(); to != nil && addr == childHost {
			target = *to
		}
		var d net.Dialer
		return d.DialContext(ctx, network, target)
	}
	relying := w.NewRP(rp.Config{Fetcher: client, CacheSnapshots: true})
	w.ChildFaults.FreezeVersion(w.ChildStore.Version())
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 2 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 2 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}

	// The child's name moves to a new peer, where the authority keeps
	// publishing. The old peer keeps the child's listing as it was and keeps
	// vouching for the token the relying party remembers.
	fresh := repo.NewServer()
	fresh.AddModule("child", w.ChildStore, nil)
	addr, err := fresh.Listen("127.0.0.1:0")
	if err != nil {
		e.Fatalf("new peer: %v", err)
	}
	e.Cleanup(func() { _ = fresh.Close() })
	w.ChildFaults.FreezeListing(w.ChildStore.Infos())
	movedTo.Store(&addr)
	issue(e, w.Child, "r2", "63.168.0.0/13")

	var last *rp.Result
	syncs := 0
	for {
		syncs++
		last = w.Sync(relying)
		if len(last.VRPs) == 3 {
			break
		}
		if got := last.Health(); got != obs.HealthClean {
			e.Failf("sync %d: health = %s; inside the epoch the old peer's word costs freshness only (diags: %v)", syncs, got, last.Diagnostics)
		}
		if syncs >= reproveBound {
			e.Fatalf("still on the old peer's word after %d syncs", syncs)
		}
	}
	e.Logf("reached the new peer on sync %d of at most %d", syncs, reproveBound)
	e.RequireCounter("rpki_repo_peer_moves_total", 1)
	e.RequireCounter("rpki_repo_feed_skips_total", 1)

	// The old peer still vouches for a module called child, in the feed the
	// relying party still takes from it for the sibling. Nobody looks: the
	// child's host reaches the new peer, and the new peer is asked.
	for i, prefix := range []string{"63.164.0.0/14", "63.162.0.0/15"} {
		asked := e.Counter(`rpki_repo_requests_total{verb="versions"}`)
		issue(e, w.Child, "r"+string(rune('3'+i)), prefix)
		last = w.Sync(relying)
		if len(last.VRPs) != 4+i {
			e.Failf("change %d at the new peer: %d VRPs on the next sync, want %d: the old peer's word was taken", i, len(last.VRPs), 4+i)
		}
		if e.Counter(`rpki_repo_requests_total{verb="versions"}`) == asked {
			e.Failf("change %d: the old peer's feed was not taken, the scenario proves nothing", i)
		}
	}
	e.AssertTerminal(last, obs.HealthClean)
}

func runFeedRollback(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{})
	relying := w.NewRP(rp.Config{Fetcher: client, CacheSnapshots: true})
	// An honest start: the repository vouches for the version the child has.
	old := w.ChildStore.Version()
	w.ChildFaults.FreezeVersion(old)
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 1 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 1 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}
	issue(e, w.Child, "r2", "63.168.0.0/13")
	w.ChildFaults.FreezeVersion(w.ChildStore.Version())
	current := w.Sync(relying)
	if got := current.Health(); got != obs.HealthClean || len(current.VRPs) != 2 {
		e.Fatalf("after an honest change of token: health = %s, %d VRPs; want clean, 2 (diags: %v)", got, len(current.VRPs), current.Diagnostics)
	}

	// The token regresses to one the relying party has seen before, over the
	// current objects.
	w.ChildFaults.FreezeVersion(old)
	lists := e.Counter(`rpki_repo_requests_total{verb="list"}`)
	skips := e.Counter("rpki_repo_feed_skips_total")
	rolled := w.Sync(relying)
	if got := rolled.Health(); got != obs.HealthClean || !reflect.DeepEqual(rolled.VRPs, current.VRPs) || rolled.ObjectsDownloaded != 0 {
		e.Failf("rolled back: health = %s, %d VRPs, %d objects downloaded; want clean, the same 2, 0 (diags: %v)",
			got, len(rolled.VRPs), rolled.ObjectsDownloaded, rolled.Diagnostics)
	}
	// Both points were listed: the anchor is never vouched for, and an older
	// token is a different token.
	if got := e.Counter(`rpki_repo_requests_total{verb="list"}`) - lists; got != 2 {
		e.Failf("the rolled-back sync wrote %v LISTs, want 2", got)
	}
	if got := e.Counter("rpki_repo_feed_skips_total") - skips; got != 0 {
		e.Failf("%v points skipped on a token that is not the remembered one", got)
	}
	if got := e.Counter("rpki_repo_feed_lies_total"); got != 0 {
		e.Failf("rpki_repo_feed_lies_total = %v: the listing matched what is held, nobody lied", got)
	}
	e.AssertTerminal(rolled, obs.HealthClean)
}
