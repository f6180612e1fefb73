package attack

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rp"
)

// The coalescing campaign. repo.Client parks clean connections by the peer a
// dial reached and hands them to the next fetch of any name known to reach
// that peer, so a relying party no longer proves, fetch by fetch, that a name
// still leads where it led, nor that the bytes on a socket answer the request
// it just wrote. Stalloris and the transport chapters of "SoK: An
// Introspective Analysis of RPKI Security" are catalogues of relying parties
// pinned to a stale or foreign view by their transport; each scenario here
// takes one thing reuse newly lets a peer try and asserts that it is bounded
// and named.

func coalesceScenarios() []Scenario {
	return []Scenario{
		{
			Name:        "coalesce/moved-host",
			Paper:       "Stalloris (arXiv:2205.06064) §4; SoK: An Introspective Analysis of RPKI Security (arXiv:2408.12359)",
			Layer:       "host → peer memo re-proved by a real dial + memo epoch",
			Doc:         "a point's name starts reaching a new peer while the old one keeps answering for it from a frozen listing on the client's parked connections: past the manifest's nextUpdate the frozen bytes are never clean, and within 32 fetches a re-proving dial reaches the new peer and counts the move",
			ClockBudget: 26 * time.Hour,
			Run:         runCoalesceMovedHost,
		},
		{
			Name:  "coalesce/desync",
			Paper: "SoK: An Introspective Analysis of RPKI Security (arXiv:2408.12359); paper §4 (Side Effect 6)",
			Layer: "listed-digest check + dirty connections never parked + full-fetch fallback",
			Doc:   "a peer follows a clean reply with an unsolicited second one, so the next point on that socket reads a foreign listing: that one fetch fails on the digest check, its connection is never parked again, the point is re-fetched whole on a fresh one and no VRP moves",
			Run:   runCoalesceDesync,
		},
	}
}

// reproveBound is repo's reproveEvery: how many fetches a host → peer memo is
// trusted for before a real dial re-proves it.
const reproveBound = 32

func runCoalesceMovedHost(e *Env) {
	const childHost = "child.example:873"
	w := e.newWorld(childHost)
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
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 1 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 1 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}

	// The child's name moves to a new peer, where the authority keeps
	// publishing. The old peer keeps answering for the child with the listing
	// it had, and the trust anchor — still served there — keeps a connection
	// to it parked in the client's pool.
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

	// Past the held manifest's nextUpdate, with an honest authority
	// republishing behind the frozen listing.
	e.Clock.Advance(25 * time.Hour)
	republish(e, w.TA)
	republish(e, w.Child)

	var last *rp.Result
	syncs := 0
	for {
		syncs++
		last = w.Sync(relying)
		if len(last.VRPs) == 2 {
			break
		}
		if got := last.Health(); got == obs.HealthClean {
			e.Failf("sync %d: clean on the old peer's frozen bytes past the memo epoch (%d VRPs)", syncs, len(last.VRPs))
		}
		if syncs >= reproveBound {
			e.Fatalf("still pinned to the old peer after %d syncs", syncs)
		}
	}
	e.Logf("reached the new peer on sync %d of at most %d", syncs, reproveBound)
	if syncs > 1 {
		e.RequireEvent(obs.EventReuseRejected)
	}
	e.RequireCounter("rpki_repo_peer_moves_total", 1)
	e.RequireCounter("rpki_repo_conn_reuses_total", 1)
	e.AssertTerminal(last, obs.HealthClean)

	// The memo now names the new peer: the host does not fall back.
	again := w.Sync(relying)
	if got := again.Health(); got != obs.HealthClean || len(again.VRPs) != 2 {
		e.Failf("after the move settled: health = %s, %d VRPs; want clean, 2 (diags: %v)", got, len(again.VRPs), again.Diagnostics)
	}
}

func runCoalesceDesync(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{MaxRetries: 1})
	relying := w.NewRP(rp.Config{Fetcher: client, CacheSnapshots: true})
	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean || len(baseline.VRPs) != 1 {
		e.Fatalf("baseline: health = %s, %d VRPs; want clean, 1 (diags: %v)", got, len(baseline.VRPs), baseline.Diagnostics)
	}

	// Every listing of the trust anchor's point is followed, 30 ms later, by
	// a second copy. By then the fetch is over and its connection carries the
	// child's LIST, which reads the anchor's listing as its answer.
	w.TAFaults.EchoListing(30 * time.Millisecond)
	const syncs = 3
	var last *rp.Result
	for i := 0; i < syncs; i++ {
		last = w.Sync(relying)
		if last.IncrementalFallbacks != 1 {
			e.Failf("sync %d: IncrementalFallbacks = %d, want 1 (the child, which rode the anchor's socket)", i, last.IncrementalFallbacks)
		}
		if got := last.Health(); got != obs.HealthClean || len(last.VRPs) != 1 {
			e.Failf("sync %d: health = %s, %d VRPs; want clean, 1: the full fetch on a fresh connection serves the point (diags: %v)",
				i, got, len(last.VRPs), last.Diagnostics)
		}
	}
	e.RequireEvent(obs.EventIncrementalFallback)
	e.RequireCounter("rpki_repo_listing_mismatch_total", syncs)
	e.AssertTerminal(last, obs.HealthClean)

	// The peer stops: the last echo died with the connection it poisoned.
	w.TAFaults.EchoListing(0)
	healed := w.Sync(relying)
	if got := healed.Health(); got != obs.HealthClean || len(healed.VRPs) != 1 || healed.IncrementalFallbacks != 0 {
		e.Failf("healed: health = %s, %d VRPs, %d fallbacks; want clean, 1, 0 (diags: %v)",
			got, len(healed.VRPs), healed.IncrementalFallbacks, healed.Diagnostics)
	}
}
