package rp_test

import (
	"context"
	"syscall"
	"testing"
	"time"

	"repro/internal/modelgen"
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
func BenchmarkWarmPoll(b *testing.B) {
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		b.Fatal(err)
	}
	probe := &goroutineProbe{IncrementalFetcher: loopbackClient(b, w.Stores)}
	v := rp.New(rp.Config{
		Fetcher:        probe,
		Clock:          w.Clock,
		Workers:        2,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, w.Anchor())
	poll := func() {
		res, err := v.Sync(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Diagnostics) > 0 || res.ModulesReused != len(w.Stores) {
			b.Fatalf("warm poll reused %d of %d modules, %d diagnostics", res.ModulesReused, len(w.Stores), len(res.Diagnostics))
		}
	}
	// The cold sync, then one warm poll, so the measured ones start warm.
	if _, err := v.Sync(context.Background()); err != nil {
		b.Fatal(err)
	}
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
