package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/rov"
)

// rig is a workload's system under test: it runs one op of a kind, timing
// it through tm and checking its outputs afterwards.
type rig interface {
	run(kind string, tm *timer) error
	routers() *rtrRig
	close()
}

// workloadDef is a workload's set-up and its cycle: the fixed schedule of
// op kinds one publisher issues, each only after the previous converged
// (closed loop). A run is a whole number of cycles, so the op mix is exact.
type workloadDef struct {
	cycle []string
	// pct is the percentile of an op kind's samples that is reported as its
	// timing: the one that repeats from run to run on a shared host. The
	// ROA workloads' ops are syscall- and scheduler-bound and spread evenly
	// about their median. rtr_bulk's stream a 9.6 MB set through memory and
	// pick up the neighbours' memory traffic, which only ever adds: a tight
	// floor with a long upper shoulder whose weight changes by the second.
	// Over ten seeds the run medians of its 10 ms poll spread by 24 % (IQR /
	// median) and the lower deciles of the same samples by 9 %; on the ROA
	// workloads the median repeats as well or better (5-13 % against
	// 10-13 %). A slower program moves every percentile, so either gates the
	// same regressions; the median is always printed beside the value.
	pct float64
	// setup builds the rig. It calls baseline once the inputs exist and
	// before any of the system under test does.
	setup func(name string, cfg runConfig, tr *tracer, baseline func()) (rig, error)
}

// repeat returns kind n times.
func repeat(kind string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = kind
	}
	return out
}

func schedule(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// pairs returns n changes, each followed by a poll of the then unchanged
// world. The cheap ops are scheduled many times a cycle so that their
// medians have at least as many samples as the expensive ones'.
func pairs(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, opChange, opPoll)
	}
	return out
}

var roaEnd = schedule(repeat(opBoot, 2), repeat(opReval, 3))

var workloads = map[string]workloadDef{
	"steady_churn": {
		cycle: schedule(pairs(4), []string{opSlow}, roaEnd),
		pct:   50,
		setup: setupROA,
	},
	"cold_bootstrap": {
		cycle: schedule(pairs(2), []string{opSlow}, roaEnd),
		pct:   50,
		setup: setupROA,
	},
	"rtr_bulk": {
		cycle: schedule(pairs(16), repeat(opSlow, 4), repeat(opBoot, 2), []string{opReval}),
		pct:   10,
		setup: setupBulk,
	},
	// Ten syncs a cycle, the slow op last: the breaker clock makes exactly
	// the tenth sync the half-open probe of the stalled point.
	"stalled_point": {
		cycle: schedule(pairs(4), []string{opChange, opSlow}, roaEnd),
		pct:   50,
		setup: setupROA,
	},
}

func workloadNames() []string {
	return []string{"steady_churn", "cold_bootstrap", "rtr_bulk", "stalled_point"}
}

// setups is how many times a run sets up; setup_s is the median.
const setups = 3

// heapSamples is how many of the first cycles end with a retained-heap
// reading.
const heapSamples = 3

func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func cpuTimes() (user, sys float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure shows as cpu 0
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return ms(ru.Utime), ms(ru.Stime)
}

// runWorkload sets the workload up, runs whole cycles for cfg.Seconds, and
// reports the end-to-end metrics (untraced) or the per-layer ones (traced).
func runWorkload(cfg runConfig) (*runResult, error) {
	w := workloads[cfg.Workload]
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}

	// Set up several times and keep the last: setup_s is a median, and the
	// heap baseline is read with the earlier rigs already gone.
	var g rig
	var setupS []float64
	var baseHeap float64
	for i := 0; i < setups; i++ {
		if g != nil {
			g.close()
			g = nil
		}
		t0 := time.Now()
		var err error
		if g, err = w.setup(cfg.Workload, cfg, tr, func() { baseHeap = liveHeap() }); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if cfg.Small {
			break
		}
	}
	defer func() { g.close() }()
	g.routers().corrupt = cfg.Corrupt

	res := &runResult{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace}
	// samples[kind] are the op latencies in ms with tracing off, traced
	// those with it on.
	samples, traced := map[string][]float64{}, map[string][]float64{}
	var heap []float64
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	userBefore, sysBefore := cpuTimes()
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	cycles, opID := 0, 0
	// A run ends when another cycle as long as the longest so far would not
	// fit, so it measures for at most cfg.Seconds whatever a cycle takes.
	var longest time.Duration
	more := func() bool {
		if cfg.Cycles > 0 {
			return cycles < cfg.Cycles
		}
		return cycles < 2 || time.Now().Add(longest).Before(deadline)
	}
	for ; more(); cycles++ {
		cycleStart := time.Now()
		if tr != nil {
			tr.on.Store(cycles%2 == 0)
		}
		for _, kind := range w.cycle {
			opID++
			tm := &timer{tr: tr, kind: kind}
			var before map[string]float64
			if tr.active() {
				tr.op.Store(int64(opID))
				before = tr.snapshot()
			}
			err := g.run(kind, tm)
			tm.stop()
			res.Attempted++
			if err != nil {
				// A failed op has no latency sample.
				res.Failed++
				fmt.Fprintf(os.Stderr, "bench: %s op %d (%s) failed: %v\n", cfg.Workload, opID, kind, err)
				continue
			}
			ms := float64(tm.d) / float64(time.Millisecond)
			if tr.active() {
				after := tr.snapshot()
				for k := range after {
					after[k] -= before[k]
				}
				tr.setCounts(tm.root, after)
				traced[kind] = append(traced[kind], ms)
			} else {
				samples[kind] = append(samples[kind], ms)
			}
		}
		if !cfg.Trace && cycles < heapSamples {
			heap = append(heap, (liveHeap()-baseHeap)/(1<<20))
		}
		longest = max(longest, time.Since(cycleStart))
	}
	userAfter, sysAfter := cpuTimes()
	runtime.ReadMemStats(&gcAfter)
	if tr != nil {
		tr.on.Store(false)
	}
	res.Correct = res.Failed == 0
	res.Counts = counts(g, cycles)

	ops := float64(res.Attempted)
	if !cfg.Trace {
		res.Metrics = map[string]value{
			"setup_s":                  reading(setupS, "s"),
			"change_to_router_ms":      timing(samples[opChange], "ms", w.pct),
			"unchanged_poll_ms":        timing(samples[opPoll], "ms", w.pct),
			"slow_change_to_router_ms": timing(samples[opSlow], "ms", w.pct),
			"route_revalidation_ms":    timing(samples[opReval], "ms", w.pct),
			"retained_heap_mb":         reading(heap, "MiB"),
			"cpu_ms_per_op":            {Value: (userAfter - userBefore + sysAfter - sysBefore) / ops, Unit: "ms", Samples: res.Attempted},
		}
		return res, nil
	}

	m, err := layerMetrics(g, tr, res.Counts, samples, traced, cfg.routes(), w.pct)
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero on failure shows as rss 0
	m["proc.cpu_user_ms_per_op"] = value{Value: (userAfter - userBefore) / ops, Unit: "ms", Samples: res.Attempted}
	m["proc.cpu_sys_ms_per_op"] = value{Value: (sysAfter - sysBefore) / ops, Unit: "ms", Samples: res.Attempted}
	m["proc.peak_rss_mb"] = value{Value: float64(ru.Maxrss) / 1024, Unit: "MiB"}
	m["proc.gc_cycles"] = value{Value: float64(gcAfter.NumGC - gcBefore.NumGC), Unit: "count"}
	m["proc.gc_pause_ms"] = value{Value: float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6, Unit: "ms"}
	all := append(append([]float64(nil), samples[opChange]...), traced[opChange]...)
	m["rtr.router_bootstrap_ms"] = timing(append(append([]float64(nil), samples[opBoot]...), traced[opBoot]...), "ms", w.pct)
	m["bench.change_p90_ms"] = value{Value: percentile(all, 90), Unit: "ms", Samples: len(all)}
	m["bench.samples"] = value{Value: float64(len(traced[opChange]) + len(samples[opChange])), Unit: "count"}
	res.Metrics = m
	if cfg.TraceOut != "" {
		if err := tr.write(cfg.TraceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// counts gathers what rp.Result and rtr.Server reported, keyed by the
// per-layer metric it is reported as: per-sync medians over the change
// ops, degradation totals per cycle, and the RTR counters. They are visible
// with and without tracing, and must not differ.
func counts(g rig, cycles int) map[string]float64 {
	c := map[string]float64{}
	if g, ok := g.(*roaRig); ok {
		c["ca.world_build_s"] = g.worldBuild.Seconds()
		per := map[string][]float64{}
		for _, s := range g.syncs {
			c["repo.retries_per_cycle"] += float64(s.res.Retries)
			c["repo.breaker_trips_per_cycle"] += float64(s.res.BreakerTrips)
			c["repo.breaker_fastfails_per_cycle"] += float64(s.res.BreakerFastFails)
			if s.res.Retries+s.res.BreakerTrips > 0 {
				c["repo.probe_syncs_per_cycle"]++
			}
			if s.kind != opChange {
				continue
			}
			for k, v := range map[string]int{
				"repo.objects_downloaded_per_sync":  s.res.ObjectsDownloaded,
				"repo.objects_reused_per_sync":      s.res.ObjectsReused,
				"rp.modules_reused_per_sync":        s.res.ModulesReused,
				"rp.modules_revalidated_per_sync":   s.res.ModulesRevalidated,
				"rp.verify_cache_hits_per_sync":     s.res.VerifyCacheHits,
				"rp.verify_cache_misses_per_sync":   s.res.VerifyCacheMisses,
				"rp.stale_fallbacks_per_sync":       s.res.StaleFallbacks,
				"rp.incremental_fallbacks_per_sync": s.res.IncrementalFallbacks,
				"rp.diagnostics_per_sync":           s.diagnostics,
			} {
				per[k] = append(per[k], float64(v))
			}
		}
		for k := range c {
			if strings.HasSuffix(k, "_per_cycle") {
				c[k] /= float64(cycles)
			}
		}
		for k, v := range per {
			c[k] = median(v)
		}
	}
	rc := g.routers().counts()
	c["rtr.cache_resets"], c["rtr.resumptions"], c["rtr.evictions"] = float64(rc.resets), float64(rc.resumptions), float64(rc.evictions)
	return c
}

// layerMetrics derives the per-layer metrics from the spans of the traced
// cycles. Per-sync figures are taken over the change ops, the workload's
// primary path.
func layerMetrics(g rig, tr *tracer, counts map[string]float64, untraced, traced map[string][]float64, routes int, pct float64) (map[string]value, error) {
	m := map[string]value{}
	for _, d := range perLayer {
		m[d.Name] = value{Unit: d.Unit}
	}
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()

	byOp := map[int][]span{}
	kindOf := map[int]string{}
	byName := map[string][]float64{} // every span of a name, ms
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
		if kind, ok := strings.CutPrefix(s.Name, "op."); ok && s.Parent == 0 {
			kindOf[s.Op] = kind
		}
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e6)
	}
	// in[kind][name] are the durations (ms) of spans of that name inside
	// ops of that kind; perOp values are one per op.
	in := map[string]map[string][]float64{}
	perOp := map[string][]float64{}
	for op, kind := range kindOf {
		if in[kind] == nil {
			in[kind] = map[string][]float64{}
		}
		var root span
		var fetches []span
		children, syncMS := 0.0, 0.0
		for _, s := range byOp[op] {
			ms := float64(s.dur()) / 1e6
			in[kind][s.Name] = append(in[kind][s.Name], ms)
			switch {
			case s.Parent == 0 && s.Name == "op."+kind:
				root = s
			case s.Name == "repo.fetch":
				fetches = append(fetches, s)
			case s.Name == "rp.sync":
				syncMS = ms
			}
		}
		for _, s := range byOp[op] {
			if s.Parent == root.ID {
				children += float64(s.dur()) / 1e6
			}
		}
		if kind != opChange {
			continue
		}
		busy := 0.0
		for _, f := range fetches {
			busy += float64(f.dur()) / 1e6
		}
		wall := float64(union(fetches)) / 1e6
		perOp["fetch_wall"] = append(perOp["fetch_wall"], wall)
		perOp["fetch_busy"] = append(perOp["fetch_busy"], busy)
		if syncMS > 0 {
			perOp["validate_self"] = append(perOp["validate_self"], syncMS-wall)
		}
		perOp["attributed"] = append(perOp["attributed"], 100*children/(float64(root.dur())/1e6))
		for k, v := range root.Counts {
			perOp[k] = append(perOp[k], v)
		}
	}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	change, slow, reval := in[opChange], in[opSlow], in[opReval]

	m["ca.publish_us"] = timing(scale(change["ca.publish"], 1e3), "us", pct)
	m["repo.fetch_wall_ms"] = timing(perOp["fetch_wall"], "ms", pct)
	m["repo.fetch_busy_ms"] = timing(perOp["fetch_busy"], "ms", pct)
	for name, v := range counts {
		m[name] = value{Value: v, Unit: m[name].Unit}
	}
	for name := range tr.snapshot() {
		m[name] = value{Value: median(perOp[name]), Unit: m[name].Unit, Samples: len(perOp[name])}
	}
	var rtt []float64
	for _, name := range []string{"repo.list", "repo.stat", "repo.get"} {
		rtt = append(rtt, byName[name]...)
	}
	m["repo.rtt_us"] = timing(scale(rtt, 1e3), "us", pct)
	m["repo.peak_inflight_fetches"] = value{Value: float64(tr.peakInflight.Load()), Unit: "count"}
	m["repo.peak_fds"] = value{Value: float64(tr.peakFDs.Load()), Unit: "count"}
	m["rp.peak_goroutines"] = value{Value: float64(tr.peakGoroutines.Load()), Unit: "count"}
	m["rp.sync_ms"] = timing(change["rp.sync"], "ms", pct)
	m["rp.validate_self_ms"] = timing(perOp["validate_self"], "ms", pct)

	m["rov.diff_us"] = timing(scale(byName["rov.diff"], 1e3), "us", pct)
	m["rov.sort_ms"] = timing(byName["rov.sort"], "ms", pct)
	m["rov.index_build_ms"] = timing(reval["rov.index"], "ms", pct)
	m["rov.classify_ns"] = timing(scale(reval["rov.classify"], 1e6/float64(routes)), "ns", pct)
	m["rtr.setvrps_ms"] = timing(change["rtr.setvrps"], "ms", pct)
	m["rtr.setvrps_slow_ms"] = timing(slow["rtr.setvrps"], "ms", pct)
	m["rtr.fanout_us"] = timing(scale(change["rtr.fanout"], 1e3), "us", pct)
	m["rtr.fanout_slow_ms"] = timing(slow["rtr.fanout"], "ms", pct)
	m["rtr.router_vrps_copy_ms"] = timing(reval["router.vrps"], "ms", pct)
	m["bench.attributed_pct"] = reading(perOp["attributed"], "%")
	if base := percentile(untraced[opChange], pct); base > 0 {
		m["bench.trace_overhead_pct"] = value{Value: 100 * (percentile(traced[opChange], pct) - base) / base, Unit: "%", Samples: len(traced[opChange])}
	}

	var current []rov.VRP
	switch g := g.(type) {
	case *bulkRig:
		current = g.current
	case *roaRig:
		current = g.want
		var allocs, allocKB []float64
		for _, s := range g.syncs {
			if s.traced && s.kind == opChange {
				allocs, allocKB = append(allocs, s.allocs), append(allocKB, s.allocKB)
			}
		}
		m["rp.allocs_per_sync"] = value{Value: median(allocs), Unit: "count", Samples: len(allocs)}
		m["rp.alloc_kb_per_sync"] = value{Value: median(allocKB), Unit: "KiB", Samples: len(allocKB)}
		objects, err := objectCosts(g.world)
		if err != nil {
			return nil, err
		}
		for k, v := range objects {
			m[k] = v
		}
	}
	m["rtr.snapshot_bytes"] = value{Value: snapshotBytes(current), Unit: "B"}
	_, _, histBytes := g.routers().cache.HistoryStats()
	m["rtr.history_bytes"] = value{Value: float64(histBytes), Unit: "B"}
	return m, nil
}

// printRun prints every metric by name with its unit, sample count and
// workload, then the same as one JSON object on the last line.
func printRun(w io.Writer, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-34s %14s %-6s %8s  %s\n", "workload", "metric", "value", "unit", "samples", "median, tail")
	for _, name := range names {
		v := res.Metrics[name]
		tail := ""
		if v.Median > 0 {
			tail = fmt.Sprintf("p50=%.4g", v.Median)
		}
		if v.Tail > 0 {
			tail += fmt.Sprintf(" p%.1f=%.4g", v.Tail, v.TailValue)
		}
		fmt.Fprintf(w, "%-15s %-34s %14.4f %-6s %8d  %s\n", res.Workload, name, v.Value, v.Unit, v.Samples, tail)
	}
	fmt.Fprintf(w, "%-15s ops attempted %d, failed %d (seed %d, %.0f s, trace %v)\n", res.Workload, res.Attempted, res.Failed, res.Seed, res.Seconds, res.Trace)
	type contractValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractValue{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = contractValue{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}
