package rp_test

// Gates on what a relying party keeps between syncs and what a warm sync
// allocates: the retained heap measured the way the benchmark measures it,
// the signature verdicts held against the objects still in the tree, and
// the allocations of a warm poll that proves every point unchanged.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rp"
)

// liveHeapMiB is the benchmark's retained-heap reading: HeapAlloc after two
// collections, so garbage and the sync.Pool victim caches are gone.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// TestRetainedHeapProductionSized gates what a warm relying party keeps over
// the benchmark's world, wired as the benchmark wires it: a repo.Client over
// loopback TCP, snapshot cache and last-known-good store on, two workers.
// The reading is the heap the server, client and relying party add to the
// built world after three syncs: 7.9 MiB while each memo link held a parsed
// child certificate and one cache held every verdict, 5.3 MiB with the links
// held as DER and the verdicts kept per point.
func TestRetainedHeapProductionSized(t *testing.T) {
	const budgetMiB = 6.1
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeapMiB()
	v := rp.New(rp.Config{
		Fetcher:        loopbackClient(t, w.Stores),
		Clock:          w.Clock,
		Workers:        2,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, w.Anchor())
	for i := 0; i < 3; i++ {
		syncOnce(t, v)
	}
	retained := liveHeapMiB() - base
	runtime.KeepAlive(v)
	runtime.KeepAlive(w)
	t.Logf("retained heap %.2f MiB", retained)
	if retained > budgetMiB {
		t.Errorf("a warm relying party over the benchmark world retains %.2f MiB, budget %.1f MiB", retained, budgetMiB)
	}
}

// loopbackClient serves stores from a repo.Server on a loopback port, closed
// when tb ends, and returns a client wired to it as the benchmark wires
// one: every host dials the server, two connections per point, three
// retries, breakers on.
func loopbackClient(tb testing.TB, stores rp.StoreFetcher) *repo.Client {
	tb.Helper()
	srv := repo.NewServer()
	for module, store := range stores {
		srv.AddModule(module, store, nil)
	}
	return serverClient(tb, srv)
}

// serverClient is loopbackClient for a server the caller fills.
func serverClient(tb testing.TB, srv *repo.Server) *repo.Client {
	tb.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	return &repo.Client{
		Dial: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		Concurrency: 2,
		Retry:       repo.RetryPolicy{MaxRetries: 3},
		Breakers:    repo.NewBreakerSet(repo.BreakerConfig{}),
	}
}

// TestVerdictsStayWithTheirPoints: signature verdicts live with the point
// that computed them, so authority churn cannot grow them. A thousand
// publish/withdraw steps of one ROA each at random authorities reissue a
// manifest, a CRL and a ROA every time; afterwards, and again after whole
// subtrees leave the tree, the relying party holds no more verdicts than
// the tree holds objects. (One cache for the relying party's lifetime ended
// the churn holding 6,137 verdicts for 3,813 objects.)
func TestVerdictsStayWithTheirPoints(t *testing.T) {
	steps := 1000
	if testing.Short() || raceEnabled {
		// Under the race detector 150 steps take ≈ 9 s on 2 vCPU: a
		// thousand would add about a minute to this package's run.
		steps = 150
	}
	w, err := modelgen.Synthetic(modelgen.ProductionSized(3))
	if err != nil {
		t.Fatal(err)
	}
	v := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock, Workers: 2}, w.Anchor())
	syncOnce(t, v)
	checkVerdicts(t, w, v, "cold")

	var names []string
	for name, a := range w.Authorities {
		if a.Parent != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	issued := map[string]bool{}
	for step := 0; step < steps; step++ {
		a := w.Authorities[names[rng.Intn(len(names))]]
		if issued[a.Name] {
			err = a.DeleteROA("churn")
		} else {
			p := a.Resources().Prefixes()[0]
			_, err = a.IssueROA("churn", 4_100_000_000, roa.Prefix{Prefix: p, MaxLength: p.Bits()})
		}
		if err != nil {
			t.Fatal(err)
		}
		issued[a.Name] = !issued[a.Name]
		// A new manifest and CRL, and a new ROA's EE when one was issued:
		// every other object's verdict comes from the point's last
		// validation.
		verifications := 2
		if issued[a.Name] {
			verifications = 3
		}
		if res := syncOnce(t, v); res.ModulesRevalidated != 1 || res.VerifyCacheMisses != verifications {
			t.Fatalf("step %d at %s: revalidated %d modules with %d verifications, want 1 with %d", step, a.Name,
				res.ModulesRevalidated, res.VerifyCacheMisses, verifications)
		}
	}
	checkVerdicts(t, w, v, "after churn")

	// Withdraw the first children of the root's first two children: their
	// subtrees leave the tree, and their verdicts must leave with them.
	for _, parent := range w.TA.Children()[:2] {
		a, _ := w.TA.Child(parent)
		if err := a.DeleteChildCert(a.Children()[0]); err != nil {
			t.Fatal(err)
		}
	}
	syncOnce(t, v)
	checkVerdicts(t, w, v, "after withdrawals")
}

// TestChildChurnStaysBounded: an authority that creates and retires child
// CAs at will — the delegation width CURE pulls to exhaust a relying party —
// grows nothing the relying party keeps beyond its live tree. Over the
// benchmark's wiring (a repo.Client over loopback, snapshot cache,
// last-known-good, breakers, two workers) Sprint gains and loses n children
// of Figure 2, each created with one ROA, synced, revoked and synced again.
// After every completed sync rp's points, the client's feed memos, host
// proofs and peers, and the breaker set each hold at most the live tree; and
// the heap retained over the churn exceeds that of the same churn with no
// relying party by under 0.5 KiB per retired CA, plus 64 KiB for the
// collector's noise. (While each structure forgot by a
// rule of its own, or never, 400 retired CAs left 404 points, host proofs
// and breakers behind: ≈ 4.7 KiB each, for the life of the process.)
func TestChildChurnStaysBounded(t *testing.T) {
	const perCAKiB, slackKiB = 0.5, 64
	n := 400
	if testing.Short() || raceEnabled {
		n = 60
	}
	alone := childChurn(t, n, false)
	relying := childChurn(t, n, true)
	grown := (relying - alone) * 1024
	t.Logf("%d retired CAs: heap +%.0f KiB with a relying party, +%.0f KiB without (%.2f KiB per CA)",
		n, relying*1024, alone*1024, grown/float64(n))
	if budget := perCAKiB*float64(n) + slackKiB; grown > budget {
		t.Errorf("the relying party retained %.0f KiB over %d retired CAs, budget %.0f KiB", grown, n, budget)
	}
}

// childChurn builds Figure 2 behind a loopback server, retires n child CAs
// of Sprint one at a time and returns the live heap grown meanwhile, in MiB.
// With relying, a relying party wired as the benchmark wires one syncs after
// every creation and every revocation, and its retained state is checked
// against the live tree each time.
func childChurn(t *testing.T, n int, relying bool) float64 {
	w, err := modelgen.Figure2(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := repo.NewServer()
	for module, store := range w.Stores {
		srv.AddModule(module, store, nil)
	}
	client := serverClient(t, srv)
	v := rp.New(rp.Config{
		Fetcher:        client,
		Clock:          w.Clock,
		Workers:        2,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, w.Anchor())
	sync := func(what string, live int) {
		if !relying {
			return
		}
		t.Helper()
		syncOnce(t, v)
		memos, hosts, peers := clientRetained(client)
		points, breakers := rp.PointCount(v), len(client.Breakers.States())
		if points > live || memos > live || hosts > live || peers > live || breakers > live {
			t.Fatalf("%s: %d points, %d feed memos, %d host proofs, %d peers, %d breakers retained for a live tree of %d",
				what, points, memos, hosts, peers, breakers, live)
		}
	}
	sync("cold", len(w.Stores))
	sprint := w.MustAuthority("sprint")
	resources := ipres.MustParseSet("63.175.0.0/16")
	base := liveHeapMiB()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("churn-%d", i)
		store := repo.NewStore()
		srv.AddModule(name, store, nil)
		child, err := sprint.CreateChild(name, resources, store, repo.URI{Host: name + ".example:8873", Module: name})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := child.IssueROA(name, 64500, roa.MustParsePrefix("63.175.0.0/16")); err != nil {
			t.Fatal(err)
		}
		sync(name+" created", len(w.Stores)+1)
		if err := sprint.RevokeChild(name); err != nil {
			t.Fatal(err)
		}
		sync(name+" revoked", len(w.Stores))
	}
	grown := liveHeapMiB() - base
	runtime.KeepAlive(v)
	runtime.KeepAlive(w)
	return grown
}

// clientRetained reads how many feed memos, host → peer proofs and peers c
// holds. All three are unexported, and another package's export_test.go is
// out of this test binary's reach; between syncs no fetch is in flight, so
// the unlocked reads race nothing.
func clientRetained(c *repo.Client) (memos, hosts, peers int) {
	fields := reflect.ValueOf(c).Elem()
	return fields.FieldByName("points").Len(), fields.FieldByName("hosts").Len(), fields.FieldByName("peers").Len()
}

// checkVerdicts requires v to hold no more verdicts than the objects
// published in the points still reachable from the trust anchor.
func checkVerdicts(t *testing.T, w *modelgen.World, v *rp.RelyingParty, label string) {
	t.Helper()
	objects := 0
	var visit func(a *ca.Authority)
	visit = func(a *ca.Authority) {
		objects += w.Stores[a.URI.Module].Len()
		for _, name := range a.Children() {
			child, _ := a.Child(name)
			visit(child)
		}
	}
	visit(w.TA)
	verdicts := rp.VerdictCount(v)
	t.Logf("%s: %d verdicts, %d objects in the tree", label, verdicts, objects)
	if verdicts > objects {
		t.Errorf("%s: %d verdicts retained for %d objects in the tree", label, verdicts, objects)
	}
}

// unchangedFetcher serves a world the way a warm repo.Client does once the
// peer's feed vouches for every point: the first fetch of a point returns
// its bytes, every later incremental sync returns the held snapshot as
// unchanged. It offers no store version, so every point takes reuse tier 2.
type unchangedFetcher struct{ stores rp.StoreFetcher }

func (f unchangedFetcher) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	return f.stores.FetchAll(ctx, uri)
}

func (f unchangedFetcher) SyncIncremental(ctx context.Context, uri repo.URI, prev map[string][]byte) (*repo.SyncResult, error) {
	if prev != nil {
		return &repo.SyncResult{Files: prev, Reused: len(prev), Unchanged: true}, nil
	}
	files, err := f.stores.FetchAll(ctx, uri)
	if err != nil {
		return nil, err
	}
	return &repo.SyncResult{Files: files, Downloaded: len(files)}, nil
}

// TestWarmUnchangedSyncAllocations is the exact gate on a warm poll that
// proves every point unchanged without a version (reuse tier 2, the
// steady state over TCP): little more than one allocation per point — the
// fetcher's result — or 819 over the 721-point world. A goroutine per
// point's walk cost 2,255; allocating each point's validation build before
// knowing it would be reused, and a heap cell for its fetched snapshot,
// cost 3,705.
func TestWarmUnchangedSyncAllocations(t *testing.T) {
	const budget = 900
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		t.Fatal(err)
	}
	v := rp.New(rp.Config{
		Fetcher:        unchangedFetcher{stores: w.Stores},
		Clock:          w.Clock,
		Workers:        2,
		CacheSnapshots: true,
	}, w.Anchor())
	syncOnce(t, v)
	allocs := testing.AllocsPerRun(5, func() {
		if res := syncOnce(t, v); res.ModulesReused != len(w.Stores) {
			t.Fatalf("warm sync reused %d of %d modules", res.ModulesReused, len(w.Stores))
		}
	})
	t.Logf("warm unchanged sync: %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("warm unchanged sync: %.0f allocations, budget %d", allocs, budget)
	}
}

// goroutineProbe wraps an incremental fetcher, sampling the live goroutines
// at every incremental fetch, while the points around it are in flight.
type goroutineProbe struct {
	rp.IncrementalFetcher

	mu sync.Mutex
	// peak is the most goroutines seen since the last take. guarded by mu.
	peak int
}

func (p *goroutineProbe) SyncIncremental(ctx context.Context, uri repo.URI, prev map[string][]byte) (*repo.SyncResult, error) {
	n := runtime.NumGoroutine()
	p.mu.Lock()
	p.peak = max(p.peak, n)
	p.mu.Unlock()
	return p.IncrementalFetcher.SyncIncremental(ctx, uri, prev)
}

// take returns the peak seen so far and starts a new one.
func (p *goroutineProbe) take() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	peak := p.peak
	p.peak = 0
	return peak
}

// TestWarmSyncGoroutines: a warm poll of the 721-point world walks its
// points on 2×Workers walkers, so the goroutines alive during it stay
// within that many of the count before it, plus a few for the runtime. A
// goroutine per point's walk peaked at ≈ 675.
func TestWarmSyncGoroutines(t *testing.T) {
	const workers, slack = 2, 8
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		t.Fatal(err)
	}
	probe := &goroutineProbe{IncrementalFetcher: unchangedFetcher{stores: w.Stores}}
	v := rp.New(rp.Config{
		Fetcher:        probe,
		Clock:          w.Clock,
		Workers:        workers,
		CacheSnapshots: true,
	}, w.Anchor())
	syncOnce(t, v)
	probe.take()
	baseline := runtime.NumGoroutine()
	if res := syncOnce(t, v); res.ModulesReused != len(w.Stores) {
		t.Fatalf("warm sync reused %d of %d modules", res.ModulesReused, len(w.Stores))
	}
	peak := probe.take()
	t.Logf("warm sync: %d goroutines at the peak, %d before", peak, baseline)
	if limit := baseline + 2*workers + slack; peak > limit {
		t.Errorf("warm sync peaked at %d goroutines, limit %d (%d before + 2×%d walkers + %d)", peak, limit, baseline, workers, slack)
	}
}

// TestColdSyncVerifications: a cold sync of the benchmark's 721-point world
// verifies each signature once — two ECDSA verifications per manifest and
// ROA (envelope, then EE certificate), one per CA certificate and CRL:
// 5,483 for seed 1 — and takes one verdict per object, so every point holds
// exactly as many verdicts as it has objects (the anchor's own
// certificate, republished in its point, is skipped unverified).
func TestColdSyncVerifications(t *testing.T) {
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		t.Fatal(err)
	}
	v := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock, Workers: 2}, w.Anchor())
	res := syncOnce(t, v)
	verifications, objects := 0, 0
	for module, store := range w.Stores {
		held := 0
		for name := range store.Snapshot() {
			switch {
			case strings.HasSuffix(name, ".mft"), strings.HasSuffix(name, ".roa"):
				verifications += 2
			case name == w.TA.CertFileName():
				continue
			default:
				verifications++
			}
			held++
		}
		objects += held
		if got := rp.PointVerdicts(v, module); got != held {
			t.Errorf("%s holds %d verdicts for %d objects", module, got, held)
		}
	}
	t.Logf("cold sync: %d verifications, %d verdict misses, %d objects", rp.Verifications(res), res.VerifyCacheMisses, objects)
	if got := rp.Verifications(res); got != verifications {
		t.Errorf("cold sync ran %d verifications, want %d", got, verifications)
	}
	if res.VerifyCacheMisses != objects {
		t.Errorf("cold sync missed %d verdicts, want one per object (%d)", res.VerifyCacheMisses, objects)
	}
}
