package rp

// Departure: what it means that a completed sync reached a point, and what
// goes with a point it did not reach (state.go, DESIGN.md §6).

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/repo"
)

// departFetcher serves stores in process, by module whatever the host,
// fails every URI in down, and records what the relying party tells it to
// forget. It offers neither versions nor incremental fetches, so every point
// a sync walks is fetched.
type departFetcher struct {
	stores StoreFetcher
	// fetching, when set, runs before each fetch.
	fetching func(repo.URI)
	mu       sync.Mutex
	down     map[repo.URI]bool // guarded by mu
	forgot   []repo.URI        // guarded by mu
}

var errDown = errors.New("point down")

func (f *departFetcher) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	if f.fetching != nil {
		f.fetching(uri)
	}
	f.mu.Lock()
	down := f.down[uri]
	f.mu.Unlock()
	if down {
		return nil, errDown
	}
	return f.stores.FetchAll(ctx, uri)
}

func (f *departFetcher) Forget(uri repo.URI) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forgot = append(f.forgot, uri)
}

func (f *departFetcher) setDown(uris ...repo.URI) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down = map[repo.URI]bool{}
	for _, uri := range uris {
		f.down[uri] = true
	}
}

// wantForgotten requires the relying party to have told f to forget exactly
// uris since the last call.
func (f *departFetcher) wantForgotten(t *testing.T, what string, uris ...repo.URI) {
	t.Helper()
	f.mu.Lock()
	got := f.forgot
	f.forgot = nil
	f.mu.Unlock()
	sort.Slice(got, func(i, j int) bool { return got[i].String() < got[j].String() })
	if !slices.Equal(got, uris) {
		t.Fatalf("%s: told to forget %v, want %v", what, got, uris)
	}
}

// retained returns the URIs v keeps state for, in order.
func retained(v *RelyingParty) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []string
	for uri := range v.points {
		out = append(out, uri.String())
	}
	sort.Strings(out)
	return out
}

func departURI(module string) repo.URI {
	return repo.URI{Host: module + ".example:8873", Module: module}
}

// TestDepartAbortedSyncForgetsNothing: a sync cancelled after a point left
// the tree reached nothing conclusively, so nothing is dropped and the
// fetcher is told nothing; the next completed sync forgets the point.
func TestDepartAbortedSyncForgetsNothing(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	f := &departFetcher{stores: stores}
	v := New(Config{Fetcher: f, Clock: clock, Workers: 2}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	if _, err := v.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	whole := retained(v)
	if len(whole) != 4 {
		t.Fatalf("Figure 2 retained as %v", whole)
	}

	if err := sprint.DeleteChildCert("etb"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.fetching = func(uri repo.URI) {
		if uri.Module == "sprint" {
			cancel()
		}
	}
	if _, err := v.Sync(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("sync cancelled mid-walk returned %v", err)
	}
	f.wantForgotten(t, "aborted sync")
	if got := retained(v); !slices.Equal(got, whole) {
		t.Fatalf("aborted sync left %v, want %v", got, whole)
	}

	f.fetching = nil
	if _, err := v.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.wantForgotten(t, "completed sync", departURI("etb"))
	if got := retained(v); len(got) != 3 {
		t.Fatalf("completed sync left %v", got)
	}
}

// TestDepartParentServedFromLKG: a parent served from its last-known-good
// snapshot still names its children, so they are walked and keep their
// memo, their clean snapshot and (not being forgotten) their fetcher state.
// Once the parent's snapshot has expired the children are not reached, and
// depart.
func TestDepartParentServedFromLKG(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	now := testEpoch
	f := &departFetcher{stores: stores}
	v := New(Config{
		Fetcher:  f,
		Clock:    func() time.Time { return now },
		Workers:  2,
		StaleTTL: time.Hour,
	}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	if _, err := v.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	f.setDown(sprint.URI)
	now = now.Add(10 * time.Minute)
	res, err := v.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleFallbacks != 1 {
		t.Fatalf("parent down inside StaleTTL: %d stale fallbacks, want 1 (%v)", res.StaleFallbacks, res.Diagnostics)
	}
	f.wantForgotten(t, "parent served from last-known-good")
	for _, child := range []repo.URI{departURI("continental"), departURI("etb")} {
		v.mu.Lock()
		p := v.points[child]
		v.mu.Unlock()
		if p == nil || p.memo == nil || p.clean == nil {
			t.Fatalf("%s under a last-known-good parent lost its memo or clean snapshot: %+v", child, p)
		}
	}

	now = now.Add(2 * time.Hour)
	if _, err := v.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.wantForgotten(t, "parent's snapshot expired", departURI("continental"), departURI("etb"))
	if got, want := retained(v), []string{arin.URI.String(), sprint.URI.String()}; !slices.Equal(got, want) {
		t.Fatalf("after the parent's snapshot expired: %v retained, want %v", got, want)
	}
}

// TestDepartMovedHost: a child deleted and recreated under the same module
// on another host is a new point. The old URI departs at the next completed
// sync, and its last-known-good snapshot does not stand in for the new one.
func TestDepartMovedHost(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	f := &departFetcher{stores: stores}
	v := New(Config{Fetcher: f, Clock: clock, Workers: 2, StaleTTL: time.Hour}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	if _, err := v.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := sprint.DeleteChildCert("etb"); err != nil {
		t.Fatal(err)
	}
	moved := repo.URI{Host: "etb-moved.example:8873", Module: "etb"}
	stores["etb"] = repo.NewStore()
	etb, err := sprint.CreateChild("etb", ipres.MustParseSet("63.161.0.0/16"), stores["etb"], moved)
	if err != nil {
		t.Fatal(err)
	}
	mustROA(t, etb, "etb", 19429, "63.161.0.0/16")
	f.setDown(moved)
	res, err := v.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleFallbacks != 0 || !hasDiag(res, DiagPointUnreachable, "etb") {
		t.Fatalf("the moved point, down on its first fetch, was served from the old host's snapshot: %d stale fallbacks (%v)",
			res.StaleFallbacks, res.Diagnostics)
	}
	f.wantForgotten(t, "moved host", departURI("etb"))

	f.setDown()
	res, err = v.Sync(context.Background())
	if err != nil || res.Incomplete() {
		t.Fatalf("moved point back up: %v %v", err, res.Diagnostics)
	}
	f.wantForgotten(t, "moved point back up")
	if got := retained(v); len(got) != 4 || got[2] != moved.String() {
		t.Fatalf("after the move: %v retained", got)
	}
}

// TestDepartUnreachableStillWalked: a point its parent still names is
// reached, however unreachable its repository: its state stays, and so does
// its open breaker, which keeps failing it fast instead of re-tripping.
func TestDepartUnreachableStillWalked(t *testing.T) {
	w := buildTCPWorld(t)
	client := resilientClient(1)
	client.Breakers = repo.NewBreakerSet(repo.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour})
	v := New(Config{Fetcher: client, Clock: clock, StaleTTL: time.Hour}, w.anchor)
	if _, err := v.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	w.childFaults.Refuse(true)
	key := w.child.URI.String()
	for i := 0; i < 4; i++ {
		res, err := v.Sync(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// The first sync trips the breaker, whose refusal ends its retry.
		trips, fastFails := 0, 1
		if i == 0 {
			trips = 1
		}
		if res.BreakerTrips != trips || res.BreakerFastFails != fastFails || res.StaleFallbacks != 1 {
			t.Fatalf("sync %d with the child down: %d trips, %d fast-fails, %d stale fallbacks; want %d, %d, 1",
				i, res.BreakerTrips, res.BreakerFastFails, res.StaleFallbacks, trips, fastFails)
		}
		if got := client.Breakers.State(key); got != repo.BreakerOpen {
			t.Fatalf("sync %d: the unreachable child's breaker is %v, want open", i, got)
		}
		if got := retained(v); len(got) != 2 {
			t.Fatalf("sync %d: %v retained, want the anchor and the child", i, got)
		}
	}
}
