package rp

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
)

// tcpWorld is a two-point hierarchy (TA → child with one ROA) served over a
// real rsynclite server, with independent fault plans per publication point.
type tcpWorld struct {
	addr        string
	anchor      TrustAnchor
	child       *ca.Authority
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
		addr:        addr,
		anchor:      TrustAnchor{CertDER: ta.Cert.Raw, URI: taURI},
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

// flakyStores is an in-process VersionedFetcher whose named points can be
// taken offline between syncs: an offline point fails its fetch and reports
// no store version.
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

func (f *flakyStores) SnapshotVersion(uri repo.URI) (uint64, bool) {
	if f.offline[uri.Module] {
		return 0, false
	}
	return f.StoreFetcher.SnapshotVersion(uri)
}

func TestLKGAgeRefreshedByVersionReuse(t *testing.T) {
	// A snapshot's age counts from the last sync that proved it current, by
	// whatever reuse tier — here the cheapest, the store version, which
	// never touches the bytes. Ageing it from its first validation instead
	// would drop a point minutes after it was last seen healthy: the
	// Stalloris downgrade, self-inflicted.
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
