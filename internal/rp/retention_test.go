package rp_test

// Gates on what a relying party keeps between syncs and what a warm sync
// allocates: the retained heap measured the way the benchmark measures it,
// the signature verdicts held against the objects still in the tree, and
// the allocations of a warm poll that proves every point unchanged.

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
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
	srv := repo.NewServer()
	for module, store := range w.Stores {
		srv.AddModule(module, store, nil)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &repo.Client{
		Dial: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
		Concurrency: 2,
		Retry:       repo.RetryPolicy{MaxRetries: 3},
		Breakers:    repo.NewBreakerSet(repo.BreakerConfig{}),
	}
	v := rp.New(rp.Config{
		Fetcher:        client,
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
		// Each step's sync spawns a walk per point, 721 goroutines: a
		// thousand of them under the race detector would take this
		// package's peak RSS past TestStreamingEquivalence10k's budget.
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
// steady state over TCP): about three allocations per point — the walk's
// goroutine, the fetcher's result — or 2,255 over the 721-point world.
// Allocating each point's validation build before knowing it would be
// reused, and a heap cell for its fetched snapshot, cost 3,705.
func TestWarmUnchangedSyncAllocations(t *testing.T) {
	const budget = 2600
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
