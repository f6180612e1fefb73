package rpkirisk

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md's per-experiment index). Run with:
//
//	go test -bench=. -benchmem .
//
// Each BenchmarkFigure*/BenchmarkTable*/BenchmarkSideEffect* executes the
// corresponding experiment end to end — building the hierarchy with real
// cryptographic objects, performing the manipulation, validating, and
// checking the paper's shape claims. Micro-benchmarks for the hot paths
// follow at the bottom.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/ipres"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rtr"
)

func benchExperiment(b *testing.B, run func() (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Passed() {
			b.Fatalf("shape checks failed: %+v", r.Failed())
		}
	}
}

// BenchmarkFigure1DependencyLoop exercises every edge of the paper's
// Figure 1 dependency loop.
func BenchmarkFigure1DependencyLoop(b *testing.B) {
	benchExperiment(b, experiments.Figure1)
}

// BenchmarkFigure2ModelRPKI builds and fully validates the model hierarchy.
func BenchmarkFigure2ModelRPKI(b *testing.B) {
	benchExperiment(b, experiments.Figure2)
}

// BenchmarkFigure3MakeBeforeBreak plans and executes the grandparent whack
// with make-before-break reissuance.
func BenchmarkFigure3MakeBeforeBreak(b *testing.B) {
	benchExperiment(b, experiments.Figure3)
}

// BenchmarkTable4CrossBorder reproduces the cross-jurisdiction table and
// the synthetic rate measurement.
func BenchmarkTable4CrossBorder(b *testing.B) {
	benchExperiment(b, experiments.Table4)
}

// BenchmarkFigure5Validity computes both validity-grid panels.
func BenchmarkFigure5Validity(b *testing.B) {
	benchExperiment(b, experiments.Figure5)
}

// BenchmarkTable6PolicyTradeoff measures reachability under policy × threat.
func BenchmarkTable6PolicyTradeoff(b *testing.B) {
	benchExperiment(b, experiments.Table6)
}

// BenchmarkSideEffect12Reclamation contrasts revocation with stealthy
// deletion.
func BenchmarkSideEffect12Reclamation(b *testing.B) {
	benchExperiment(b, experiments.SideEffects12)
}

// BenchmarkSideEffect34TargetedWhack quantifies surgical whacking against
// the revocation baseline, including the deep (great-grandchild) variant.
func BenchmarkSideEffect34TargetedWhack(b *testing.B) {
	benchExperiment(b, experiments.SideEffects34)
}

// BenchmarkSideEffect6MissingROA flips a route to invalid by losing a ROA.
func BenchmarkSideEffect6MissingROA(b *testing.B) {
	benchExperiment(b, experiments.SideEffect6)
}

// BenchmarkSideEffect7Circularity runs the transient-fault persistence
// timeline on the RPKI↔BGP loop.
func BenchmarkSideEffect7Circularity(b *testing.B) {
	benchExperiment(b, experiments.SideEffect7)
}

// --- Micro-benchmarks for the substrates' hot paths. ---

// BenchmarkValidateModelWorld is the in-process relying-party sync of the
// Figure 2 world (certificate chains, CMS verification, manifests).
func BenchmarkValidateModelWorld(b *testing.B) {
	w, err := NewModelWorld(false)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Validate(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.ROAsAccepted != 8 {
			b.Fatalf("ROAs = %d", res.ROAsAccepted)
		}
	}
}

// liveSizeVRPs is a seeded VRP set of live-RPKI size and shape: 80 % IPv4
// /16–/24, 20 % IPv6 /32–/48, so nesting and equal prefixes both occur.
// The result is canonical.
func liveSizeVRPs(n int) []rov.VRP {
	rng := rand.New(rand.NewSource(7))
	vrps := make([]rov.VRP, 0, n)
	for i := 0; i < n; i++ {
		var p ipres.Prefix
		limit := 24
		if i%5 == 0 {
			var a [16]byte
			a[0], a[1] = 0x20, 0x01
			rng.Read(a[2:6])
			p, limit = ipres.MustPrefixFrom(ipres.AddrFrom16(a), 32+rng.Intn(17)), 48
		} else {
			p = ipres.MustPrefixFrom(ipres.AddrFromUint32(rng.Uint32()), 16+rng.Intn(9))
		}
		vrps = append(vrps, rov.VRP{Prefix: p, MaxLength: p.Bits() + rng.Intn(limit-p.Bits()+1), ASN: ipres.ASN(1 + rng.Intn(400_000))})
	}
	rov.SortVRPs(vrps)
	return slices.Compact(vrps)
}

// BenchmarkROVClassify measures route classification against the model
// VRP set and against a set of live-RPKI size.
func BenchmarkROVClassify(b *testing.B) {
	b.Run("model", func(b *testing.B) {
		w, err := NewModelWorld(true)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Validate(context.Background(), w)
		if err != nil {
			b.Fatal(err)
		}
		ix := res.Index()
		route := rov.Route{Prefix: MustParsePrefix("63.174.17.0/24"), Origin: 17054}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := ix.State(route); s != rov.Invalid {
				b.Fatalf("state = %v", s)
			}
		}
	})
	b.Run("200k", func(b *testing.B) {
		vrps := liveSizeVRPs(200_000)
		ix := rov.NewIndex(vrps...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every VRP's own prefix announced by its own AS is valid.
			v := vrps[i*7919%len(vrps)]
			if s := ix.State(rov.Route{Prefix: v.Prefix, Origin: v.ASN}); s != rov.Valid {
				b.Fatalf("state of %v = %v", v, s)
			}
		}
	})
}

// BenchmarkROVIndexBuild measures building the index over 200,000 VRPs
// from canonical input (what rp and the RTR client hand over: a copy and
// one linear pass) and from shuffled input (sort and dedupe first).
func BenchmarkROVIndexBuild(b *testing.B) {
	canonical := liveSizeVRPs(200_000)
	shuffled := slices.Clone(canonical)
	rand.New(rand.NewSource(11)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tc := range []struct {
		name string
		in   []rov.VRP
	}{{"canonical", canonical}, {"shuffled", shuffled}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ix := rov.NewIndex(tc.in...); ix.Len() != len(canonical) {
					b.Fatalf("index holds %d VRPs, want %d", ix.Len(), len(canonical))
				}
			}
		})
	}
}

// BenchmarkValidityGrid computes the Figure 5 grid for one origin.
func BenchmarkValidityGrid(b *testing.B) {
	w, err := NewModelWorld(true)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Validate(context.Background(), w)
	if err != nil {
		b.Fatal(err)
	}
	ix := res.Index()
	base := MustParsePrefix("63.160.0.0/12")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := ix.ValidityGrid(base, 24, []ipres.ASN{17054})
		if len(cells) == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkResourceSetSubtract measures the set algebra used by whack
// planning.
func BenchmarkResourceSetSubtract(b *testing.B) {
	parent := ipres.MustParseSet("63.160.0.0/12")
	holes := ipres.MustParseSet("63.174.16.0/22, 63.174.20.0/22, 63.174.25.0/24, 63.174.26.0/23")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parent.Subtract(holes).IsEmpty() {
			b.Fatal("unexpected empty")
		}
	}
}

// BenchmarkSyntheticWorldValidation validates a production-scale synthetic
// deployment (~1300 ROAs, footnote 4).
func BenchmarkSyntheticWorldValidation(b *testing.B) {
	w, err := NewSyntheticWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Validate(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.ROAsAccepted < 1200 {
			b.Fatalf("ROAs = %d", res.ROAsAccepted)
		}
	}
}

// BenchmarkValidateSyntheticParallel measures the parallel validation
// pipeline on the production-scale synthetic world at several worker
// counts. workers=1 is the sequential baseline; every sub-benchmark builds
// a fresh relying party per iteration, so the verification cache is always
// cold and the numbers isolate the pipeline itself.
func BenchmarkValidateSyntheticParallel(b *testing.B) {
	w, err := NewSyntheticWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ValidateParallel(ctx, w, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.ROAsAccepted < 1200 {
					b.Fatalf("ROAs = %d", res.ROAsAccepted)
				}
			}
		})
	}
}

// BenchmarkValidateSyntheticWarmReuse is the steady state: a re-sync of an
// unchanged synthetic world. Every publication point proves itself unchanged
// and reuses its validated outputs wholesale — no hashing, no manifest
// cross-checks, no chain walks.
func BenchmarkValidateSyntheticWarmReuse(b *testing.B) {
	w, err := NewSyntheticWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	relying := NewRelyingParty(w, 0)
	if _, err := relying.Sync(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := relying.Sync(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.ROAsAccepted < 1200 {
			b.Fatalf("ROAs = %d", res.ROAsAccepted)
		}
		if res.ModulesRevalidated != 0 {
			b.Fatalf("warm re-sync re-validated %d modules", res.ModulesRevalidated)
		}
	}
}

// BenchmarkSyntheticOneModuleChanged measures the incremental cost of real
// churn: each iteration flips one ROA in one ISP's publication point, so
// exactly that module re-validates and every other one is reused.
func BenchmarkSyntheticOneModuleChanged(b *testing.B) {
	w, err := NewSyntheticWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	relying := NewRelyingParty(w, 0)
	if _, err := relying.Sync(ctx); err != nil {
		b.Fatal(err)
	}
	isp := w.MustAuthority("rir-0-isp-0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 8.0.240.0/20 sits inside the ISP's /16, clear of its generated
		// ROA blocks and customer /24s.
		if i%2 == 0 {
			if _, err := isp.IssueROA("bench-toggle", 65000, roa.MustParsePrefix("8.0.240.0/20")); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := isp.DeleteROA("bench-toggle"); err != nil {
				b.Fatal(err)
			}
		}
		res, err := relying.Sync(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.ModulesRevalidated != 1 {
			b.Fatalf("revalidated %d modules, want 1", res.ModulesRevalidated)
		}
	}
}

// BenchmarkRTRFanOut measures propagating a one-VRP delta to N concurrently
// connected RTR clients. The serialized frames are shared across clients, so
// per-client cost is a write of pre-built bytes; each iteration waits until
// every client has applied the update.
func BenchmarkRTRFanOut(b *testing.B) {
	base := make([]rov.VRP, 0, 500)
	for i := 0; i < 500; i++ {
		p := MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/250, i%250))
		base = append(base, rov.VRP{Prefix: p, MaxLength: 24, ASN: ipres.ASN(64496 + i%100)})
	}
	extra := rov.VRP{Prefix: MustParsePrefix("192.0.2.0/24"), MaxLength: 24, ASN: 64500}
	snapshot := func(withExtra bool) []rov.VRP {
		out := append([]rov.VRP(nil), base...)
		if withExtra {
			out = append(out, extra)
		}
		return out
	}

	for _, clients := range []int{10, 100} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			bound, cache, stop, err := ServeRTR("127.0.0.1:0", snapshot(false))
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = stop() }()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			synced := make(chan struct{}, clients*4)
			for i := 0; i < clients; i++ {
				c := rtr.NewClient(bound)
				c.OnSync(func([]rov.VRP) { synced <- struct{}{} })
				go func() { _ = c.Run(ctx) }()
			}
			await := func() {
				for i := 0; i < clients; i++ {
					select {
					case <-synced:
					case <-time.After(10 * time.Second):
						b.Fatal("client did not sync")
					}
				}
			}
			await() // initial full sync of every client
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.SetVRPs(snapshot(i%2 == 0))
				await()
			}
		})
	}
}

// BenchmarkRTRSetVRPs measures the cache update alone at live-RPKI size
// (200,000 VRPs): the same canonical set again (the polling loop's no-op),
// ten VRPs spread over the set flipping, and a contiguous 20,000-VRP subtree
// whacked and restored. Allocation per op is the O(delta) signal: a few
// chunks for delta10, the whacked run for whack20k, nothing for unchanged.
func BenchmarkRTRSetVRPs(b *testing.B) {
	full := liveSizeVRPs(200_000)
	without := func(drop func(i int) bool) []rov.VRP {
		out := make([]rov.VRP, 0, len(full))
		for i, v := range full {
			if !drop(i) {
				out = append(out, v)
			}
		}
		return out
	}
	for _, bc := range []struct {
		name  string
		other []rov.VRP
	}{
		{"unchanged", full},
		{"delta10", without(func(i int) bool { return i%(len(full)/10) == 7 && i < len(full)/10*10 })},
		{"whack20k", without(func(i int) bool { return i >= 60_000 && i < 80_000 })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cache := rtr.NewCache(1)
			cache.SetVRPs(full)
			changes := uint32(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					cache.SetVRPs(bc.other)
				} else {
					cache.SetVRPs(full)
				}
				if len(bc.other) != len(full) {
					changes++
				}
			}
			b.StopTimer()
			if got := cache.Serial(); got != 1+changes {
				b.Fatalf("serial %d after %d changes", got, changes)
			}
			want := len(full)
			if b.N%2 == 1 {
				want = len(bc.other)
			}
			if cache.Len() != want {
				b.Fatalf("cache holds %d VRPs, want %d", cache.Len(), want)
			}
		})
	}
}

// BenchmarkGeoSynthetic measures the jurisdiction model generation and
// analysis at production scale.
func BenchmarkGeoSynthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats := geo.Analyze(geo.Synthetic(geo.SyntheticConfig{
			Seed: 2013, Holdings: 1300, CrossBorderProb: 0.15, SubAllocationsPerHolding: 6,
		}))
		if stats.CrossBorder == 0 {
			b.Fatal("no cross-border holdings")
		}
	}
}

// BenchmarkExtSuspenders runs the fail-safe ablation (grace cache vs the
// circular dependency).
func BenchmarkExtSuspenders(b *testing.B) {
	benchExperiment(b, experiments.ExtSuspenders)
}

// BenchmarkExtCollateral measures the collateral-damage distribution on a
// synthetic deployment.
func BenchmarkExtCollateral(b *testing.B) {
	benchExperiment(b, experiments.ExtCollateral)
}

// BenchmarkExtMonitor measures monitor precision under benign churn.
func BenchmarkExtMonitor(b *testing.B) {
	benchExperiment(b, experiments.ExtMonitor)
}

// BenchmarkWhackPlanning isolates the planner (no crypto) on the model.
func BenchmarkWhackPlanning(b *testing.B) {
	w, err := NewModelWorld(false)
	if err != nil {
		b.Fatal(err)
	}
	planner := &core.Planner{Manipulator: w.MustAuthority("sprint")}
	target := core.Target{Holder: w.MustAuthority("continental"), Name: "cont-20"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := planner.Plan(target)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Method != core.MethodShrink {
			b.Fatalf("method = %v", plan.Method)
		}
	}
}

// BenchmarkBGPConvergence measures route propagation on the Table 6
// topology.
func BenchmarkBGPConvergence(b *testing.B) {
	n := bgp.NewNetwork()
	for _, asn := range []ipres.ASN{1, 666, 10, 20, 30, 40} {
		n.AddAS(asn, bgp.PolicyDropInvalid)
	}
	_ = n.PeerOf(10, 20)
	_ = n.ProviderOf(10, 30)
	_ = n.ProviderOf(20, 40)
	_ = n.ProviderOf(10, 1)
	_ = n.ProviderOf(30, 1)
	_ = n.ProviderOf(20, 666)
	_ = n.ProviderOf(40, 666)
	_ = n.Originate(1, MustParsePrefix("63.174.16.0/22"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Originate(666, MustParsePrefix("63.174.17.0/24"))
		if err := n.Converge(); err != nil {
			b.Fatal(err)
		}
		_ = n.Withdraw(666, MustParsePrefix("63.174.17.0/24"))
		if err := n.Converge(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchFullVsIncremental is the sync-mode ablation: a full
// re-download against a STAT-driven incremental sync of an unchanged
// publication point, over real TCP.
func BenchmarkFetchFullVsIncremental(b *testing.B) {
	w, err := NewModelWorld(false)
	if err != nil {
		b.Fatal(err)
	}
	addr, stop, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	client := ClientFor(addr, 10*time.Second)
	ctx := context.Background()
	uri := repo.URI{Host: addr, Module: "continental"}

	prev, err := client.FetchAll(ctx, uri)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.FetchAll(ctx, uri); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := client.SyncIncremental(ctx, uri, prev)
			if err != nil {
				b.Fatal(err)
			}
			if res.Downloaded != 0 {
				b.Fatalf("unchanged module downloaded %d objects", res.Downloaded)
			}
		}
	})
}
