package rp

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/repo"
)

// TestCoalescedTCPMatchesStoreFetcher: the Figure 2 world — four publication
// points under four host names — served behind one listener, the hosted case
// in which repo.Client parks connections and hands them from point to point.
// Cold, warm and after each mutation, at one worker and at four, the relying
// party over TCP reports the VRPs and diagnostics of a fresh relying party
// reading the stores in process, while dialing less than once per point.
func TestCoalescedTCPMatchesStoreFetcher(t *testing.T) {
	for _, workers := range []int{1, 4} {
		arin, sprint, continental, stores := buildFigure2(t)
		srv := repo.NewServer()
		for module, store := range stores {
			srv.AddModule(module, store, nil)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var dials atomic.Int64
		client := &repo.Client{Timeout: 5 * time.Second, Dial: func(ctx context.Context, network, _ string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		}}
		tcp := New(Config{Fetcher: client, Clock: clock, Workers: workers, CacheSnapshots: true},
			TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
		outcome := func(r *Result) string {
			var b strings.Builder
			for _, v := range r.VRPs {
				fmt.Fprintf(&b, "vrp %v\n", v)
			}
			for _, d := range r.Diagnostics {
				fmt.Fprintf(&b, "diag %v\n", d)
			}
			return b.String()
		}
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
	}
}
