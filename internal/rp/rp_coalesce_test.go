package rp

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/repo"
)

// outcome is what a sync concluded: VRPs and diagnostics, not how it fetched.
func outcome(r *Result) string {
	var b strings.Builder
	for _, v := range r.VRPs {
		fmt.Fprintf(&b, "vrp %v\n", v)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "diag %v\n", d)
	}
	return b.String()
}

// serveHosted serves every store behind one listener and returns a dialer
// that reaches it whatever host a URI names, counting dials.
func serveHosted(t *testing.T, stores StoreFetcher) (dial func(ctx context.Context, network, _ string) (net.Conn, error), dials *atomic.Int64) {
	t.Helper()
	srv := repo.NewServer()
	for module, store := range stores {
		srv.AddModule(module, store, nil)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	dials = new(atomic.Int64)
	return func(ctx context.Context, network, _ string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}, dials
}

// feedSkips reads rpki_repo_feed_skips_total off the hub's /metrics.
func feedSkips(t *testing.T, hub *obs.Hub) int {
	t.Helper()
	n, ok := hub.Registry().Sample("rpki_repo_feed_skips_total")
	if !ok {
		t.Fatal("/metrics has no rpki_repo_feed_skips_total")
	}
	return int(n)
}

// TestCoalescedTCPMatchesStoreFetcher: the Figure 2 world — four publication
// points under four host names — served behind one listener, the hosted case
// in which repo.Client parks connections and hands them from point to point,
// and asks the peer once per sync which points changed instead of listing
// each. Cold, warm and after each mutation, at one worker and at four, the
// relying party over TCP reports the VRPs and diagnostics of a fresh relying
// party reading the stores in process, while dialing less than once per point
// and listing less than once per point.
func TestCoalescedTCPMatchesStoreFetcher(t *testing.T) {
	for _, workers := range []int{1, 4} {
		arin, sprint, continental, stores := buildFigure2(t)
		dial, dials := serveHosted(t, stores)
		hub := obs.NewHub(clock)
		client := &repo.Client{Timeout: 5 * time.Second, Dial: dial}
		client.Instrument(hub)
		tcp := New(Config{Fetcher: client, Clock: clock, Workers: workers, CacheSnapshots: true},
			TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
		check := func(step string) {
			t.Helper()
			if got, want := outcome(syncReuse(t, tcp)), outcome(syncWithWorkers(t, arin, stores, workers)); got != want {
				t.Fatalf("workers=%d %s: TCP diverged from in-process:\n--- tcp ---\n%s--- in-process ---\n%s", workers, step, got, want)
			}
		}
		check("cold")
		points := int64(len(stores))
		if got := dials.Load(); got != points {
			t.Errorf("workers=%d cold: %d dials, want %d: a host's first fetch is how its peer is learnt", workers, got, points)
		}
		check("warm")
		if err := continental.DeleteROA("cont-26"); err != nil {
			t.Fatal(err)
		}
		check("after a withdrawal")
		mustROA(t, sprint, "sprint-172", 1239, "63.172.0.0/16-24")
		check("after an issuance")
		check("warm again")
		// Four syncs of four points since the cold one: without reuse, 16 dials.
		if got := dials.Load() - points; got >= 2*points {
			t.Errorf("workers=%d: %d dials over four warm syncs of %d points behind one peer", workers, got, points)
		}
		// Two of them changed one point each; the other 14 fetches had the
		// peer's word, less the few whose re-proving dial fell due.
		if got := feedSkips(t, hub); got < 8 {
			t.Errorf("workers=%d: %d of 14 unchanged fetches skipped on the peer's word", workers, got)
		}
	}
}

// midPoll is a fetcher that runs hook once, in the middle of a sync: right
// after the next fetch of the trust anchor's point returns — by which time the
// peer's feed for this sync has been taken — and before any other point is
// consulted.
type midPoll struct {
	*repo.Client
	root string
	hook func()
}

func (f *midPoll) SyncIncremental(ctx context.Context, uri repo.URI, prev map[string][]byte) (*repo.SyncResult, error) {
	res, err := f.Client.SyncIncremental(ctx, uri, prev)
	if hook := f.hook; hook != nil && uri.Module == f.root {
		f.hook = nil
		hook()
	}
	return res, err
}

// TestFeedMutationDuringPollNeverStale: an authority publishes while a sync
// is under way, after the peer's feed was taken. That sync may report the
// world of either side of the publication, whole; the next one reports the
// new world — a feed is never believed past the sync that took it.
func TestFeedMutationDuringPollNeverStale(t *testing.T) {
	for _, workers := range []int{1, 4} {
		arin, sprint, _, stores := buildFigure2(t)
		dial, _ := serveHosted(t, stores)
		hub := obs.NewHub(clock)
		client := &repo.Client{Timeout: 5 * time.Second, Dial: dial}
		client.Instrument(hub)
		fetcher := &midPoll{Client: client, root: "arin"}
		tcp := New(Config{Fetcher: fetcher, Clock: clock, Workers: workers, CacheSnapshots: true},
			TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
		syncReuse(t, tcp)
		syncReuse(t, tcp)
		if feedSkips(t, hub) == 0 {
			t.Fatalf("workers=%d: the warm sync skipped nothing, the test proves nothing", workers)
		}
		for round := 0; round < 3; round++ {
			before := outcome(syncWithWorkers(t, arin, stores, workers))
			fetcher.hook = func() {
				mustROA(t, sprint, fmt.Sprint("mid-poll-", round), 1239, fmt.Sprintf("63.17%d.0.0/16-24", 2+round))
			}
			during := outcome(syncReuse(t, tcp))
			after := outcome(syncWithWorkers(t, arin, stores, workers))
			if before == after {
				t.Fatal("the publication changed nothing")
			}
			if during != before && during != after {
				t.Fatalf("workers=%d round %d: the sync a publication landed in reports neither world:\n%s", workers, round, during)
			}
			if got := outcome(syncReuse(t, tcp)); got != after {
				t.Fatalf("workers=%d round %d: the sync after a mid-poll publication is stale:\n--- tcp ---\n%s--- in-process ---\n%s", workers, round, got, after)
			}
		}
	}
}
