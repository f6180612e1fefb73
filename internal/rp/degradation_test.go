package rp

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
)

// tcpWorld is a two-point hierarchy (TA → child with one ROA) served over a
// real rsynclite server, with independent fault plans per publication point.
type tcpWorld struct {
	srv         *repo.Server
	addr        string
	anchor      TrustAnchor
	ta, child   *ca.Authority
	taFaults    *repo.Faults
	childFaults *repo.Faults
}

// childRoute is the route announced under the child's ROA.
var childRoute = rov.Route{Prefix: ipres.MustParsePrefix("63.160.0.0/12"), Origin: 1239}

func buildTCPWorld(t *testing.T) *tcpWorld {
	t.Helper()
	cfg := ca.Config{Clock: clock}
	srv := repo.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	taStore := repo.NewStore()
	taURI := repo.URI{Host: addr, Module: "ta"}
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("63.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	childStore := repo.NewStore()
	childURI := repo.URI{Host: addr, Module: "child"}
	child, err := ta.CreateChild("child", ipres.MustParseSet("63.160.0.0/12"), childStore, childURI)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.IssueROA("r", 1239, roa.MustParsePrefix("63.160.0.0/12-13")); err != nil {
		t.Fatal(err)
	}
	taFaults, childFaults := repo.NewFaults(), repo.NewFaults()
	srv.AddModule("ta", taStore, taFaults)
	srv.AddModule("child", childStore, childFaults)
	return &tcpWorld{
		srv:         srv,
		addr:        addr,
		anchor:      TrustAnchor{CertDER: ta.Cert.Raw, URI: taURI},
		ta:          ta,
		child:       child,
		taFaults:    taFaults,
		childFaults: childFaults,
	}
}

// resilientClient is a client tuned for fault tests: fast deterministic
// retries, optional breakers added by callers.
func resilientClient(maxRetries int) *repo.Client {
	return &repo.Client{
		Timeout: 2 * time.Second,
		Retry:   repo.RetryPolicy{MaxRetries: maxRetries, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Jitter: -1},
	}
}

func hasDiag(res *Result, kind DiagKind, module string) bool {
	for _, d := range res.Diagnostics {
		if d.Kind == kind && d.Module == module {
			return true
		}
	}
	return false
}

func TestDegradedFlakySyncConvergence(t *testing.T) {
	// A 2-of-3 flaky world: both points fail two of every three requests.
	// The retrying relying party must converge to the byte-identical VRP set
	// a healthy world yields, with the degradation visible in the counters.
	w := buildTCPWorld(t)
	baseline, err := New(Config{Fetcher: resilientClient(0), Clock: clock}, w.anchor).Sync(context.Background())
	if err != nil || baseline.Incomplete() {
		t.Fatalf("healthy baseline: %v %v", err, baseline.Diagnostics)
	}
	w.taFaults.FailRate("", 2, 3)
	w.childFaults.FailRate("", 2, 3)
	relying := New(Config{Fetcher: resilientClient(4), Clock: clock}, w.anchor)
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete() {
		t.Fatalf("flaky sync should converge cleanly, diags: %v", res.Diagnostics)
	}
	if !reflect.DeepEqual(res.VRPs, baseline.VRPs) {
		t.Errorf("flaky VRPs diverge from baseline:\n%v\n%v", res.VRPs, baseline.VRPs)
	}
	if res.Retries == 0 {
		t.Error("retries must be observable on the Result")
	}
}

func TestDegradedWorkerCountDeterminism(t *testing.T) {
	// Determinism at any worker count must survive a flaky world: the VRP
	// set, diagnostics and even the exact retry count are independent of
	// scheduling.
	w := buildTCPWorld(t)
	run := func(workers int) *Result {
		// Re-arming the rates resets the request counters so every run sees
		// the same fail/succeed pattern.
		w.taFaults.FailRate("", 2, 3)
		w.childFaults.FailRate("", 2, 3)
		relying := New(Config{Fetcher: resilientClient(4), Clock: clock, Workers: workers}, w.anchor)
		res, err := relying.Sync(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq.VRPs, par.VRPs) {
		t.Errorf("VRPs differ across worker counts:\n%v\n%v", seq.VRPs, par.VRPs)
	}
	if !reflect.DeepEqual(seq.Diagnostics, par.Diagnostics) {
		t.Errorf("diagnostics differ across worker counts:\n%v\n%v", seq.Diagnostics, par.Diagnostics)
	}
	if seq.Retries != par.Retries {
		t.Errorf("retry counts differ: %d (workers=1) vs %d (workers=8)", seq.Retries, par.Retries)
	}
	if seq.Retries == 0 {
		t.Error("the flaky world should have forced retries")
	}
}

func TestLKGFallbackServesUntilTTLExpiry(t *testing.T) {
	// The retry → breaker → LKG → TTL-expiry ladder end to end: a dead point
	// serves its last-known-good snapshot (route stays Valid) until StaleTTL
	// elapses, after which its VRPs drop — the paper's Side Effect 6, now
	// delayed and observable instead of immediate and silent.
	w := buildTCPWorld(t)
	now := testEpoch
	relying := New(Config{
		Fetcher:  resilientClient(1),
		Clock:    func() time.Time { return now },
		StaleTTL: time.Hour,
	}, w.anchor)

	first, err := relying.Sync(context.Background())
	if err != nil || first.Incomplete() {
		t.Fatalf("clean sync: %v %v", err, first.Diagnostics)
	}
	if first.Index().State(childRoute) != rov.Valid {
		t.Fatal("baseline route should be Valid")
	}

	// The child's repository goes dark.
	w.childFaults.Refuse(true)
	now = now.Add(10 * time.Minute)
	second, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(second, DiagPointUnreachable, "child") || !hasDiag(second, DiagStaleFallback, "child") {
		t.Fatalf("want point-unreachable + stale-fallback diagnostics, got %v", second.Diagnostics)
	}
	if second.StaleFallbacks != 1 {
		t.Errorf("StaleFallbacks = %d, want 1", second.StaleFallbacks)
	}
	if !reflect.DeepEqual(second.VRPs, first.VRPs) {
		t.Errorf("stale fallback should reproduce the snapshot's VRPs")
	}
	if second.Index().State(childRoute) != rov.Valid {
		t.Error("route should remain Valid while the snapshot is fresh")
	}

	// Past the TTL the snapshot is retired: bounded staleness.
	now = now.Add(2 * time.Hour)
	third, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.StaleFallbacks != 0 {
		t.Errorf("expired snapshot must not be served, StaleFallbacks = %d", third.StaleFallbacks)
	}
	if !hasDiag(third, DiagPointUnreachable, "child") || !hasDiag(third, DiagFetchFailure, "child") {
		t.Fatalf("want point-unreachable + fetch-failure after expiry, got %v", third.Diagnostics)
	}
	if got := third.Index().State(childRoute); got == rov.Valid {
		t.Errorf("route must degrade after StaleTTL, got %v", got)
	}
}

func TestLKGDisabledPreservesOldBehavior(t *testing.T) {
	// StaleTTL == 0: an unreachable point is an immediate DiagFetchFailure
	// and its subtree vanishes — exactly the pre-resilience semantics.
	w := buildTCPWorld(t)
	relying := New(Config{Fetcher: resilientClient(1), Clock: clock}, w.anchor)
	if _, err := relying.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.childFaults.Refuse(true)
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hasDiag(res, DiagFetchFailure, "child") {
		t.Fatalf("want fetch-failure, got %v", res.Diagnostics)
	}
	if hasDiag(res, DiagStaleFallback, "child") || res.StaleFallbacks != 0 {
		t.Error("no fallback may happen with StaleTTL disabled")
	}
	if res.Index().State(childRoute) == rov.Valid {
		t.Error("dead point's route must drop immediately without LKG")
	}
}

func TestLKGNotPoisonedByCorruptFetch(t *testing.T) {
	// A fetch that succeeds but validates dirty (corrupted ROA) must NOT
	// overwrite the clean snapshot: when the point later dies, the fallback
	// serves the last CLEAN state, breaking the fault latch of Side Effect 7.
	w := buildTCPWorld(t)
	now := testEpoch
	relying := New(Config{
		Fetcher:  resilientClient(1),
		Clock:    func() time.Time { return now },
		StaleTTL: time.Hour,
	}, w.anchor)

	first, err := relying.Sync(context.Background())
	if err != nil || first.Incomplete() {
		t.Fatalf("clean sync: %v %v", err, first.Diagnostics)
	}

	// Corrupted in flight: the sync completes, the ROA is rejected.
	w.childFaults.Corrupt("r.roa")
	now = now.Add(10 * time.Minute)
	second, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Incomplete() {
		t.Fatal("corruption must be diagnosed")
	}
	if second.Index().State(childRoute) == rov.Valid {
		t.Fatal("corrupt ROA must not validate")
	}

	// The point dies. The fallback must serve the t0 snapshot, not the
	// corrupted t1 fetch.
	w.childFaults.Restore("")
	w.childFaults.Refuse(true)
	now = now.Add(10 * time.Minute)
	third, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.StaleFallbacks != 1 {
		t.Fatalf("want one stale fallback, got %d (diags %v)", third.StaleFallbacks, third.Diagnostics)
	}
	if third.Index().State(childRoute) != rov.Valid {
		t.Error("fallback must serve the last CLEAN snapshot: route should be Valid again")
	}
}

func TestLKGBreakerDefeatsSlowLorisSync(t *testing.T) {
	// Stalloris: the child repository trickles one byte per interval. The
	// per-request deadline fails the reads, the breaker stops further
	// attempts, and the LKG store keeps the route Valid — the whole sync
	// finishes in seconds instead of stalling a worker indefinitely.
	w := buildTCPWorld(t)
	now := testEpoch
	client := &repo.Client{
		Timeout:  150 * time.Millisecond,
		Retry:    repo.RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, Jitter: -1},
		Breakers: repo.NewBreakerSet(repo.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}),
	}
	relying := New(Config{
		Fetcher:  client,
		Clock:    func() time.Time { return now },
		StaleTTL: time.Hour,
	}, w.anchor)

	first, err := relying.Sync(context.Background())
	if err != nil || first.Incomplete() {
		t.Fatalf("clean sync: %v %v", err, first.Diagnostics)
	}

	w.childFaults.SetSlowLoris(100 * time.Millisecond)
	now = now.Add(10 * time.Minute)
	start := time.Now()
	second, err := relying.Sync(context.Background())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("slow-loris sync took %v; deadline+breaker must bound it", elapsed)
	}
	if second.BreakerTrips < 1 {
		t.Errorf("breaker trips = %d, want >= 1", second.BreakerTrips)
	}
	if second.StaleFallbacks != 1 {
		t.Errorf("StaleFallbacks = %d, want 1 (diags %v)", second.StaleFallbacks, second.Diagnostics)
	}
	if second.Index().State(childRoute) != rov.Valid {
		t.Error("route should stay Valid via the LKG snapshot")
	}
}

func TestSyncFaultCancellationReturnsCtxErr(t *testing.T) {
	// Cancelling the sync context mid-fetch must abort promptly and surface
	// ctx.Err() — not linger until a timeout nor bury the abort in
	// diagnostics as fake incompleteness.
	w := buildTCPWorld(t)
	w.childFaults.SetSlowLoris(200 * time.Millisecond)
	relying := New(Config{
		Fetcher: &repo.Client{Timeout: 30 * time.Second},
		Clock:   clock,
	}, w.anchor)

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := relying.Sync(ctx)
		done <- outcome{res, err}
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", o.err)
		}
		if o.res != nil {
			t.Error("canceled sync must not return a partial result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sync did not abort promptly after cancellation")
	}
}

func TestSyncIncrementalLKGDegradation(t *testing.T) {
	// The incremental (digest-listing) path rides the same ladder: flaky points
	// converge with retries and reuse, and a dead point falls back to LKG.
	w := buildTCPWorld(t)
	now := testEpoch
	relying := New(Config{
		Fetcher:        resilientClient(2),
		Clock:          func() time.Time { return now },
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, w.anchor)

	first, err := relying.Sync(context.Background())
	if err != nil || first.Incomplete() {
		t.Fatalf("cold sync: %v %v", err, first.Diagnostics)
	}
	if first.ObjectsDownloaded == 0 {
		t.Fatal("cold sync should download")
	}

	// Every other request fails: the warm sync still reuses everything.
	w.taFaults.FailRate("", 1, 2)
	w.childFaults.FailRate("", 1, 2)
	now = now.Add(10 * time.Minute)
	second, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.Incomplete() {
		t.Fatalf("flaky incremental sync should converge: %v", second.Diagnostics)
	}
	if second.ObjectsReused != first.ObjectsDownloaded {
		t.Errorf("reused = %d, want %d", second.ObjectsReused, first.ObjectsDownloaded)
	}
	if second.Retries == 0 {
		t.Error("retries should be observable")
	}
	if !reflect.DeepEqual(second.VRPs, first.VRPs) {
		t.Error("flaky incremental sync must reproduce the VRP set")
	}

	// The child dies entirely: incremental fetch fails, LKG serves.
	w.childFaults.Restore("")
	w.taFaults.Restore("")
	w.childFaults.Refuse(true)
	now = now.Add(10 * time.Minute)
	third, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.StaleFallbacks != 1 {
		t.Errorf("StaleFallbacks = %d, want 1 (diags %v)", third.StaleFallbacks, third.Diagnostics)
	}
	if third.Index().State(childRoute) != rov.Valid {
		t.Error("route should stay Valid via LKG on the incremental path")
	}
}

// flakyStores is an in-process fetcher whose named points can be taken
// offline between syncs: an offline point fails its fetch.
type flakyStores struct {
	StoreFetcher
	offline map[string]bool
}

func (f *flakyStores) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	if f.offline[uri.Module] {
		return nil, errors.New("publication point offline")
	}
	return f.StoreFetcher.FetchAll(ctx, uri)
}

func TestLKGAgeRefreshedByReuse(t *testing.T) {
	// A snapshot's age counts from the last sync that proved it current, by
	// whatever reuse tier — here tier 2, the fetched bytes' digests, which
	// prove the point without validating it. Ageing it from its first
	// validation instead would drop a point minutes after it was last seen
	// healthy: the Stalloris downgrade, self-inflicted.
	arin, _, _, stores := buildFigure2(t)
	fetcher := &flakyStores{StoreFetcher: stores, offline: map[string]bool{}}
	now := testEpoch
	relying := New(Config{
		Fetcher:  fetcher,
		Clock:    func() time.Time { return now },
		StaleTTL: time.Hour,
	}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	first := syncReuse(t, relying)
	if first.Incomplete() {
		t.Fatalf("clean sync: %v", first.Diagnostics)
	}

	now = testEpoch.Add(50 * time.Minute)
	second := syncReuse(t, relying)
	if second.Incomplete() || second.ModulesReused != first.PubPointsVisited {
		t.Fatalf("warm sync: reused %d of %d modules, diags %v", second.ModulesReused, first.PubPointsVisited, second.Diagnostics)
	}

	// 70 minutes after the first validation, 20 after the last clean sync.
	fetcher.offline["continental"] = true
	now = testEpoch.Add(70 * time.Minute)
	third := syncReuse(t, relying)
	if third.StaleFallbacks != 1 || !hasDiag(third, DiagStaleFallback, "continental") {
		t.Fatalf("want the 20-minute-old snapshot served, got StaleFallbacks=%d diags %v", third.StaleFallbacks, third.Diagnostics)
	}
	if !reflect.DeepEqual(third.VRPs, first.VRPs) {
		t.Error("stale fallback should reproduce the snapshot's VRPs")
	}

	// The bound still holds: past last-proven-current + StaleTTL it expires.
	now = testEpoch.Add(50*time.Minute + time.Hour + time.Minute)
	fourth := syncReuse(t, relying)
	if fourth.StaleFallbacks != 0 || !hasDiag(fourth, DiagFetchFailure, "continental") {
		t.Fatalf("want the snapshot expired, got StaleFallbacks=%d diags %v", fourth.StaleFallbacks, fourth.Diagnostics)
	}
	if len(fourth.VRPs) >= len(first.VRPs) {
		t.Errorf("expired point's VRPs must drop: %d -> %d", len(first.VRPs), len(fourth.VRPs))
	}
}

// lkgRelyingParty is a relying party over w whose clock reads *now, with
// the snapshot cache and an hour's (or ttl's) last-known-good store, and
// the clean baseline sync it has already run.
func lkgRelyingParty(t *testing.T, w *tcpWorld, now *time.Time, ttl time.Duration) (*RelyingParty, *Result) {
	t.Helper()
	relying := New(Config{
		Fetcher:        resilientClient(1),
		Clock:          func() time.Time { return *now },
		CacheSnapshots: true,
		StaleTTL:       ttl,
	}, w.anchor)
	baseline := syncReuse(t, relying)
	if baseline.Incomplete() {
		t.Fatalf("clean sync: %v", baseline.Diagnostics)
	}
	return relying, baseline
}

// TestLKGServedFromMemo: an unreachable point whose memo entry answers for
// its last-known-good snapshot is served from the entry — nothing hashed,
// parsed or looked up, sync after sync — with exactly the two diagnostics
// a fallback carries.
func TestLKGServedFromMemo(t *testing.T) {
	w := buildTCPWorld(t)
	now := testEpoch
	relying, baseline := lkgRelyingParty(t, w, &now, time.Hour)
	w.childFaults.Refuse(true)
	for i := 1; i <= 3; i++ {
		now = testEpoch.Add(time.Duration(i) * 10 * time.Minute)
		res := syncReuse(t, relying)
		if res.ModulesRevalidated != 0 || res.VerifyCacheHits+res.VerifyCacheMisses != 0 {
			t.Errorf("LKG sync %d: %d modules revalidated, %d verdict lookups; want 0, 0",
				i, res.ModulesRevalidated, res.VerifyCacheHits+res.VerifyCacheMisses)
		}
		if res.ModulesReused != 2 || res.StaleFallbacks != 1 || res.Health() != obs.HealthStale {
			t.Errorf("LKG sync %d: %d modules reused, %d stale fallbacks, health %s; want 2, 1, stale",
				i, res.ModulesReused, res.StaleFallbacks, res.Health())
		}
		if !reflect.DeepEqual(res.VRPs, baseline.VRPs) {
			t.Errorf("LKG sync %d: VRPs %v, want the baseline's %v", i, res.VRPs, baseline.VRPs)
		}
		if len(res.Diagnostics) != 2 || !hasDiag(res, DiagPointUnreachable, "child") || !hasDiag(res, DiagStaleFallback, "child") {
			t.Errorf("LKG sync %d: diagnostics %v, want the child's point-unreachable and stale-fallback only", i, res.Diagnostics)
		}
	}
}

// TestLKGAgeNotRefreshedByFallback: serving a snapshot proves nothing about
// the point's current content, so however often it is served — from the
// memo or revalidated — its age counts from the last sync that reached the
// point, and StaleTTL past that it expires.
func TestLKGAgeNotRefreshedByFallback(t *testing.T) {
	w := buildTCPWorld(t)
	now := testEpoch
	relying, baseline := lkgRelyingParty(t, w, &now, time.Hour)
	w.childFaults.Refuse(true)
	for _, at := range []time.Duration{10 * time.Minute, 30 * time.Minute, 50 * time.Minute} {
		now = testEpoch.Add(at)
		if res := syncReuse(t, relying); res.StaleFallbacks != 1 || !reflect.DeepEqual(res.VRPs, baseline.VRPs) {
			t.Fatalf("+%v: %d stale fallbacks, VRPs %v; want the snapshot served", at, res.StaleFallbacks, res.VRPs)
		}
	}
	now = testEpoch.Add(61 * time.Minute)
	expired := syncReuse(t, relying)
	if expired.StaleFallbacks != 0 || !hasDiag(expired, DiagFetchFailure, "child") {
		t.Fatalf("+61m: %d stale fallbacks, diagnostics %v; want the snapshot expired", expired.StaleFallbacks, expired.Diagnostics)
	}
	if len(expired.VRPs) != 0 {
		t.Errorf("+61m: the expired point's VRPs %v must drop", expired.VRPs)
	}
}

// TestLKGRevalidatedUnderShrunkAuthority: while the point is down its
// parent re-issues its certificate over fewer resources. The memo entry
// was validated under the old certificate, so the snapshot is revalidated
// under the new one and what the new one does not cover is gone.
func TestLKGRevalidatedUnderShrunkAuthority(t *testing.T) {
	w := buildTCPWorld(t)
	shrunk := ipres.MustParseSet("63.160.0.0/13")
	if _, err := w.child.IssueROA("kept", 1239, roa.MustParsePrefix("63.160.0.0/13")); err != nil {
		t.Fatal(err)
	}
	now := testEpoch
	relying, baseline := lkgRelyingParty(t, w, &now, time.Hour)
	if len(baseline.VRPs) != 2 {
		t.Fatalf("baseline VRPs %v, want 2", baseline.VRPs)
	}
	w.childFaults.Refuse(true)
	now = testEpoch.Add(10 * time.Minute)
	if res := syncReuse(t, relying); res.ModulesRevalidated != 0 || res.StaleFallbacks != 1 {
		t.Fatalf("first LKG sync: %d revalidated, %d stale fallbacks; want 0, 1", res.ModulesRevalidated, res.StaleFallbacks)
	}

	if err := w.ta.ShrinkChild("child", shrunk); err != nil {
		t.Fatal(err)
	}
	now = testEpoch.Add(20 * time.Minute)
	res := syncReuse(t, relying)
	if res.ModulesRevalidated != 2 || res.StaleFallbacks != 1 {
		t.Fatalf("after the shrink: %d revalidated, %d stale fallbacks; want 2 (parent and snapshot), 1", res.ModulesRevalidated, res.StaleFallbacks)
	}
	if !hasDiag(res, DiagInvalidObject, "child") {
		t.Errorf("the ROA beyond the shrunk certificate must be diagnosed, got %v", res.Diagnostics)
	}
	for _, v := range res.VRPs {
		if !shrunk.ContainsPrefix(v.Prefix) {
			t.Errorf("VRP %v outside the shrunk certificate's %v survived", v, shrunk)
		}
	}
	if len(res.VRPs) != 1 {
		t.Errorf("after the shrink: VRPs %v, want the one inside %v", res.VRPs, shrunk)
	}
}

// TestLKGRevalidatedPastNextUpdate: past the snapshot's manifest nextUpdate
// the memo entry's epoch is over, so a snapshot still inside StaleTTL is
// revalidated, and says its manifest is stale, as a cold sync would.
func TestLKGRevalidatedPastNextUpdate(t *testing.T) {
	w := buildTCPWorld(t)
	now := testEpoch
	relying, _ := lkgRelyingParty(t, w, &now, 48*time.Hour)
	w.childFaults.Refuse(true)
	now = testEpoch.Add(10 * time.Minute)
	if res := syncReuse(t, relying); res.ModulesRevalidated != 0 || hasDiag(res, DiagStaleManifest, "child") {
		t.Fatalf("inside the epoch: %d revalidated, diagnostics %v; want 0 and no stale manifest", res.ModulesRevalidated, res.Diagnostics)
	}
	now = testEpoch.Add(25 * time.Hour) // manifests were issued for 24 h
	res := syncReuse(t, relying)
	if res.StaleFallbacks != 1 || res.ModulesRevalidated != 2 {
		t.Fatalf("past nextUpdate: %d stale fallbacks, %d revalidated; want 1, 2", res.StaleFallbacks, res.ModulesRevalidated)
	}
	if !hasDiag(res, DiagStaleManifest, "child") {
		t.Errorf("past nextUpdate the snapshot's manifest must be reported stale, got %v", res.Diagnostics)
	}
}
