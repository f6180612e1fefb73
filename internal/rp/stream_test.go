package rp_test

// Oracles for the module-windowed walk that need no second walk to compare
// against: ground truth read straight from the publication points, a
// recorded golden digest, and the window bound itself. The test package is
// external because the worlds come from modelgen, which itself imports rp.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rp"
)

// syncOnce validates a world and asserts a clean run.
func syncOnce(t *testing.T, v *rp.RelyingParty) *rp.Result {
	t.Helper()
	res, err := v.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) > 0 {
		t.Fatalf("unexpected diagnostics, first: %v", res.Diagnostics[0])
	}
	return res
}

// truth accumulates the ground-truth VRP set of a clean world: every .roa
// of every publication point, parsed with no relying party involved.
type truth struct {
	t    *testing.T
	vrps []rov.VRP
	roas int
}

func (g *truth) add(files map[string][]byte) {
	g.t.Helper()
	for name, raw := range files {
		if !strings.HasSuffix(name, ".roa") {
			continue
		}
		signed, err := roa.ParseSigned(raw)
		if err != nil {
			g.t.Fatalf("ground truth: %s: %v", name, err)
		}
		g.vrps = append(g.vrps, rov.FromROA(signed.ROA)...)
		g.roas++
	}
}

// check compares a result against the accumulated truth in canonical order.
// Result.VRPs is a multiset — two ROAs authorizing the same payload yield
// it twice (the 10k tier: 10,000 entries, 5,976 distinct) — so the truth is
// sorted, not deduplicated.
func (g *truth) check(res *rp.Result, label string) {
	g.t.Helper()
	rov.SortVRPs(g.vrps)
	if res.ROAsAccepted != g.roas {
		g.t.Fatalf("%s: accepted %d ROAs, the stores hold %d", label, res.ROAsAccepted, g.roas)
	}
	if len(res.VRPs) != len(g.vrps) {
		g.t.Fatalf("%s: %d VRPs, ground truth has %d", label, len(res.VRPs), len(g.vrps))
	}
	for i := range g.vrps {
		if g.vrps[i].Compare(res.VRPs[i]) != 0 {
			g.t.Fatalf("%s: VRP %d = %+v, ground truth %+v", label, i, res.VRPs[i], g.vrps[i])
		}
	}
}

// checkColdAndWarm syncs v twice against the truth: the cold pass
// validates every module, the warm pass must reuse every one of them and
// reproduce the same set.
func (g *truth) checkColdAndWarm(v *rp.RelyingParty, modules int, label string) {
	g.t.Helper()
	cold := syncOnce(g.t, v)
	if cold.ModulesRevalidated != modules {
		g.t.Fatalf("%s cold: revalidated %d modules, want %d", label, cold.ModulesRevalidated, modules)
	}
	g.check(cold, label+" cold")
	warm := syncOnce(g.t, v)
	if warm.ModulesRevalidated != 0 || warm.ModulesReused != modules {
		g.t.Fatalf("%s warm: revalidated %d, reused %d modules, want 0 and %d",
			label, warm.ModulesRevalidated, warm.ModulesReused, modules)
	}
	g.check(warm, label+" warm")
}

func TestStreamingEquivalenceSynthetic(t *testing.T) {
	w, err := modelgen.Synthetic(modelgen.ProductionSized(42))
	if err != nil {
		t.Fatal(err)
	}
	g := &truth{t: t}
	for _, store := range w.Stores {
		g.add(store.Snapshot())
	}
	for _, workers := range []int{1, 4} {
		v := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock, Workers: workers}, w.Anchor())
		g.checkColdAndWarm(v, len(w.Stores), fmt.Sprintf("synthetic workers=%d", workers))
	}
}

// golden10kDigest is the 10k tier's VRP digest at seed 1, first recorded at
// PR 6 and reproduced by every walk this repository has had.
const golden10kDigest = "3ab6f62e1a143b4c51b8a8654ed96601493ffb06de74229fcb378d2698fe85dc"

// digestVRPs is the vrp_digest the golden was recorded with: SHA-256 over
// one "prefix|maxlen|asn" line per VRP of the canonically sorted set.
func digestVRPs(vrps []rov.VRP) string {
	h := sha256.New()
	for _, v := range vrps {
		fmt.Fprintf(h, "%s|%d|%d\n", v.Prefix, v.MaxLength, v.ASN)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// retained10kBudgetMiB bounds the heap a warm relying party keeps over the
// 10k tier without snapshots (see TestStreamingEquivalence10k).
const retained10kBudgetMiB = 5.2

func TestStreamingEquivalence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k tier generation in -short mode")
	}
	w, err := modelgen.GenerateScaled(modelgen.ScaleConfig{
		Seed: 1, ROAs: modelgen.Tier10k, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := w.Anchor()
	if err != nil {
		t.Fatal(err)
	}
	packs, err := filepath.Glob(filepath.Join(w.Dir, "*.pp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(packs) != w.Meta.Modules {
		t.Fatalf("%d pack files, world.json says %d modules", len(packs), w.Meta.Modules)
	}
	g := &truth{t: t}
	for _, pack := range packs {
		files, err := repo.ReadPackFile(pack)
		if err != nil {
			t.Fatal(err)
		}
		g.add(files)
	}
	if g.roas != modelgen.Tier10k {
		t.Fatalf("the packs hold %d ROAs, want %d", g.roas, modelgen.Tier10k)
	}
	for _, workers := range []int{1, 4} {
		base := liveHeapMiB()
		v := rp.New(rp.Config{Fetcher: w.Fetcher(), Clock: w.Clock(), Workers: workers}, anchor)
		g.checkColdAndWarm(v, w.Meta.Modules, fmt.Sprintf("10k workers=%d", workers))
		// What the warm relying party keeps, read as the benchmark reads
		// it. Without snapshots no fetched byte may stay: 15.3 MiB when
		// memo links held parsed certificates aliasing the zero-copy pack
		// buffers and every verdict ever computed was kept, 4.5 MiB with
		// the links held as private DER copies and each point's verdicts
		// as one sorted slice.
		retained := liveHeapMiB() - base
		runtime.KeepAlive(v)
		t.Logf("workers=%d: retained heap %.2f MiB", workers, retained)
		if retained > retained10kBudgetMiB {
			t.Errorf("workers=%d: a warm relying party over the 10k tier retains %.2f MiB, budget %.1f MiB",
				workers, retained, retained10kBudgetMiB)
		}
	}
	if got := digestVRPs(g.vrps); got != golden10kDigest {
		t.Fatalf("10k tier vrp_digest = %s, golden %s", got, golden10kDigest)
	}
	// The memory budget of the tier. Maxrss is the high-water mark of the
	// whole test binary (KiB on Linux), every test that ran before this one
	// included: 58 MiB plain, 291 MiB under -race.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	t.Logf("peak RSS %d MiB", ru.Maxrss>>10)
	if ru.Maxrss > 512<<10 {
		t.Errorf("peak RSS %d MiB after the 10k tier, budget 512 MiB", ru.Maxrss>>10)
	}
}

// TestWarmSyncInstrumentationCost is the exact gate on what observability
// costs the steady state. A warm re-sync of the unchanged synthetic world
// with metrics, tracer and flight recorder attached may allocate at most 8
// times more than the bare one (measured: 4, once per sync), and its trace
// is the root span alone: tier-1 reuse emits no span. A per-module span or a
// heap-allocating metric update on the warm path costs at least one
// allocation per module, 721 here.
func TestWarmSyncInstrumentationCost(t *testing.T) {
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		t.Fatal(err)
	}
	warmAllocs := func(hub *obs.Hub) float64 {
		v := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock, Obs: hub}, w.Anchor())
		syncOnce(t, v)
		return testing.AllocsPerRun(5, func() {
			if res := syncOnce(t, v); res.ModulesRevalidated != 0 {
				t.Fatalf("warm re-sync revalidated %d modules", res.ModulesRevalidated)
			}
		})
	}
	hub := obs.NewHub(w.Clock)
	bare, instrumented := warmAllocs(nil), warmAllocs(hub)
	t.Logf("warm sync allocations: bare %.0f, instrumented %.0f", bare, instrumented)
	if instrumented-bare > 8 {
		t.Errorf("instrumented warm sync: %.0f allocations, bare %.0f: %.0f more, budget 8",
			instrumented, bare, instrumented-bare)
	}
	raw, err := json.Marshal(hub.Tracer().Last())
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans int }
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Spans != 1 {
		t.Errorf("warm sync trace holds %d spans, want 1 (the root)", trace.Spans)
	}
}

// windowProbe is a fetcher that samples the in-flight-module gauge on every
// fetch — the moment a walk has just taken its slot.
type windowProbe struct {
	rp.StoreFetcher
	inflight *obs.Gauge

	mu sync.Mutex
	// peak is the largest gauge value seen. guarded by mu.
	peak float64
}

func (p *windowProbe) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	v := p.inflight.Value()
	p.mu.Lock()
	if v > p.peak {
		p.peak = v
	}
	p.mu.Unlock()
	return p.StoreFetcher.FetchAll(ctx, uri)
}

// TestModuleWindowBoundsInflight: on a hierarchy both wider and deeper than
// the window, a single-worker sync still completes — a module waiting for a
// slot never holds one, so parents cannot starve their children — and no
// more than 2×Workers modules are ever between fetch and commit. A warm
// second sync in which every spine point changed revalidates the spine
// while the walkers reuse its leaves: each revalidation holds its slot
// until its commit and queues its children without waiting for a walker,
// so this sync completes under the same bound too.
func TestModuleWindowBoundsInflight(t *testing.T) {
	const width, depth, workers = 50, 10, 1
	epoch := time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return epoch }
	stores := rp.StoreFetcher{}
	newStore := func(module string) (*repo.Store, repo.URI) {
		s := repo.NewStore()
		stores[module] = s
		return s, repo.URI{Host: module + ".example:8873", Module: module}
	}
	store, uri := newStore("ta")
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("10.0.0.0/8"), store, uri, ca.Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	spine := ta
	var spines []*ca.Authority
	for d := 0; d < depth; d++ {
		for i := 0; i < width; i++ {
			prefix := fmt.Sprintf("10.%d.%d.0/24", d, i)
			store, uri := newStore(fmt.Sprintf("leaf-%d-%d", d, i))
			leaf, err := spine.CreateChild(uri.Module, ipres.MustParseSet(prefix), store, uri)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := leaf.IssueROA("r", ipres.ASN(64512+i), roa.MustParsePrefix(prefix)); err != nil {
				t.Fatal(err)
			}
		}
		store, uri := newStore(fmt.Sprintf("spine-%d", d))
		if spine, err = spine.CreateChild(uri.Module, ipres.MustParseSet("10.0.0.0/8"), store, uri); err != nil {
			t.Fatal(err)
		}
		spines = append(spines, spine)
	}

	hub := obs.NewHub(clock)
	probe := &windowProbe{
		StoreFetcher: stores,
		inflight:     hub.Registry().Gauge("rpki_streaming_modules_inflight", ""),
	}
	v := rp.New(rp.Config{Fetcher: probe, Clock: clock, Workers: workers, Obs: hub},
		rp.TrustAnchor{CertDER: ta.Cert.Raw, URI: ta.URI})
	check := func(label string, roas, revalidated int) {
		t.Helper()
		res := syncOnce(t, v)
		if res.ROAsAccepted != roas {
			t.Fatalf("%s: accepted %d ROAs, want %d", label, res.ROAsAccepted, roas)
		}
		if res.PubPointsVisited != len(stores) {
			t.Fatalf("%s: visited %d points, want %d", label, res.PubPointsVisited, len(stores))
		}
		if res.ModulesRevalidated != revalidated {
			t.Fatalf("%s: revalidated %d modules, want %d", label, res.ModulesRevalidated, revalidated)
		}
		probe.mu.Lock()
		peak := probe.peak
		probe.peak = 0
		probe.mu.Unlock()
		if peak < 1 || peak > 2*workers {
			t.Fatalf("%s: peak modules in flight = %v, want within [1, %d]", label, peak, 2*workers)
		}
		if now := probe.inflight.Value(); now != 0 {
			t.Fatalf("%s: %v module slots still held after the sync", label, now)
		}
	}
	check("cold", width*depth, len(stores))
	for d, s := range spines {
		prefix := fmt.Sprintf("10.%d.255.0/24", d)
		if _, err := s.IssueROA("extra", ipres.ASN(65000), roa.MustParsePrefix(prefix)); err != nil {
			t.Fatal(err)
		}
	}
	check("warm, every spine point changed", width*depth+depth, depth)
}
