package rp_test

// Oracles for the module-windowed walk that need no second walk to compare
// against: ground truth read straight from the publication points, a
// recorded golden digest, and the window bound itself. The test package is
// external because the worlds come from modelgen, which itself imports rp.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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

// tier10kChildEnv marks the process TestStreamingEquivalence10k re-executes
// to run the tier alone.
const tier10kChildEnv = "RP_TEST_10K_TIER_CHILD"

// peakRSSKiB returns the peak resident set of this process's own address
// space (VmHWM, KiB), and false where /proc/self/status does not report
// it. Unlike getrusage's Maxrss it starts afresh at exec: the kernel
// carries the exec-ing image's high-water mark into Maxrss, and a child
// that os/exec starts from a large test binary would report the parent's.
func peakRSSKiB() (int64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d kB", &kib); err == nil {
				return kib, true
			}
		}
	}
	return 0, false
}

// TestStreamingEquivalence10k validates the 10k tier cold and warm at 1 and
// 4 workers against its ground truth and golden digest, and holds the tier
// to a memory budget: 512 MiB of peak RSS. The tier runs in the test
// binary re-executed with only this test selected, which gates its own
// peak, so the budget is the tier's alone: the test binary's peak includes
// every test that ran before, and under -race -count=20 it grew past the
// budget with the tier unchanged.
func TestStreamingEquivalence10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k tier generation in -short mode")
	}
	if os.Getenv(tier10kChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStreamingEquivalence10k$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), tier10kChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("the 10k tier, run alone: %v\n%s", err, out)
		}
		// A child that selected no test, or did not gate its peak, exits 0
		// too.
		want := []string{"--- PASS: TestStreamingEquivalence10k"}
		if runtime.GOOS == "linux" {
			want = append(want, "peak RSS of the tier alone")
		}
		for _, w := range want {
			if !strings.Contains(string(out), w) {
				t.Fatalf("the 10k tier, run alone, printed no %q:\n%s", w, out)
			}
		}
		for _, line := range strings.Split(string(out), "\n") {
			if _, msg, ok := strings.Cut(line, ": "); ok && (strings.Contains(msg, "retained heap") || strings.Contains(msg, "peak RSS")) {
				t.Log(msg)
			}
		}
		return
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
	peak, ok := peakRSSKiB()
	if !ok {
		if runtime.GOOS == "linux" {
			t.Fatal("no VmHWM in /proc/self/status: the peak RSS budget cannot be checked")
		}
		t.Log("no VmHWM in /proc/self/status: the peak RSS budget is not checked here")
		return
	}
	t.Logf("peak RSS of the tier alone: %d MiB", peak>>10)
	if peak > 512<<10 {
		t.Errorf("peak RSS %d MiB running the 10k tier alone, budget 512 MiB", peak>>10)
	}
}

// windowProbe is a fetcher that samples the in-flight-module gauge on every
// fetch — the moment a walker has just counted its point in flight.
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
// the window, a sync completes at one worker and at four — a walker waits
// only on its own point's object tasks, which never wait on a walker, so
// parents cannot starve their children — and no more than 2×Workers modules
// are ever between fetch and commit. A warm second sync in which every
// spine point changed revalidates the spine while the walkers reuse its
// leaves: each revalidation holds its walker until its commit and queues
// its children without waiting for one, so this sync completes under the
// same bound too.
func TestModuleWindowBoundsInflight(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkModuleWindow(t, workers)
		})
	}
}

func checkModuleWindow(t *testing.T, workers int) {
	const width, depth = 50, 10
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
		if peak < 1 || peak > float64(2*workers) {
			t.Fatalf("%s: peak modules in flight = %v, want within [1, %d]", label, peak, 2*workers)
		}
		if now := probe.inflight.Value(); now != 0 {
			t.Fatalf("%s: %v modules still in flight after the sync", label, now)
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
