package rp_test

import (
	"context"
	"syscall"
	"testing"
	"time"

	"repro/internal/modelgen"
	"repro/internal/repo"
	"repro/internal/rp"
)

// cpuTime is the user plus system CPU the process has used.
func cpuTime(tb testing.TB) time.Duration {
	tb.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkWarmPoll is one warm poll of the benchmark's 721-point world with
// nothing changed, in process: a repo.Server on a loopback port, a
// repo.Client with the snapshot cache and last-known-good store, two
// workers — the steady_churn workload's poll without its timers. Each poll
// is one VERSIONS exchange and the re-proving LISTs that fall due; every
// module is reused. Beside ns/op and allocs/op it reports the process's
// CPU per poll (cpu-ns/op, server included) and the most goroutines alive
// at a fetch (goroutines).
//
//	go test -run '^$' -bench WarmPoll -benchtime 300x ./internal/rp
func BenchmarkWarmPoll(b *testing.B) { benchmarkWarmPoll(b, false) }

// BenchmarkWarmPollStalled is BenchmarkWarmPoll with the largest ISP-tier
// point refusing every request once the world is cached — the
// stalled_point workload's poll between its probes. The point's breaker is
// open before the measured polls, so each one fails it fast and serves it
// from last-known-good.
func BenchmarkWarmPollStalled(b *testing.B) { benchmarkWarmPoll(b, true) }

func benchmarkWarmPoll(b *testing.B, stalled bool) {
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		b.Fatal(err)
	}
	victim, faults := "", repo.NewFaults()
	if stalled {
		victim = largestISP(w.Stores)
	}
	srv := repo.NewServer()
	for module, store := range w.Stores {
		if module == victim {
			srv.AddModule(module, store, faults)
		} else {
			srv.AddModule(module, store, nil)
		}
	}
	probe := &goroutineProbe{IncrementalFetcher: serverClient(b, srv)}
	v := rp.New(rp.Config{
		Fetcher:        probe,
		Clock:          w.Clock,
		Workers:        2,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, w.Anchor())
	wantDiags := 0
	if stalled {
		wantDiags = 2 // point-unreachable and stale-fallback
	}
	poll := func() {
		res, err := v.Sync(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Diagnostics) != wantDiags || res.ModulesReused != len(w.Stores) {
			b.Fatalf("warm poll reused %d of %d modules, %d diagnostics (want %d)", res.ModulesReused, len(w.Stores), len(res.Diagnostics), wantDiags)
		}
	}
	// The cold sync, then one warm poll, so the measured ones start warm;
	// a stalled point's first poll trips its breaker.
	if _, err := v.Sync(context.Background()); err != nil {
		b.Fatal(err)
	}
	faults.Refuse(stalled)
	poll()
	probe.take()
	b.ReportAllocs()
	cpu := cpuTime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poll()
	}
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu)/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(probe.take()), "goroutines")
}

// BenchmarkRevalidateRegion is the steady_churn workload's slow op in
// process, without its timers: the 721-point world served as in
// BenchmarkWarmPoll, and per iteration one ROA toggled at each of the 13
// sibling ISP points the benchmark picks for seed 1, then one sync. Only
// the sync is timed. Beside ns/op and allocs/op it reports the process's
// CPU per sync (cpu-ns/op, server included) and the objects the 13
// revalidations admitted from their memo entries (memo-objects/op).
//
//	go test -run '^$' -bench RevalidateRegion -benchtime 100x ./internal/rp
func BenchmarkRevalidateRegion(b *testing.B) {
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		b.Fatal(err)
	}
	_, region := churnTargets(w, 1)
	srv := repo.NewServer()
	for module, store := range w.Stores {
		srv.AddModule(module, store, nil)
	}
	v := rp.New(rp.Config{
		Fetcher:        serverClient(b, srv),
		Clock:          w.Clock,
		Workers:        2,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, w.Anchor())
	sync := func() *rp.Result {
		res, err := v.Sync(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Diagnostics) != 0 {
			b.Fatalf("sync: %d diagnostics, first %v", len(res.Diagnostics), res.Diagnostics[0])
		}
		return res
	}
	sync()
	sync()
	b.ReportAllocs()
	b.ResetTimer()
	var cpu time.Duration
	fromMemo := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, a := range region {
			if err := toggleChurnROA(a); err != nil {
				b.Fatal(err)
			}
		}
		start := cpuTime(b)
		b.StartTimer()
		res := sync()
		b.StopTimer()
		cpu += cpuTime(b) - start
		if res.ModulesRevalidated != len(region) {
			b.Fatalf("revalidated %d points, want the %d toggled", res.ModulesRevalidated, len(region))
		}
		fromMemo += res.ObjectsFromMemo
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(fromMemo)/float64(b.N), "memo-objects/op")
}
