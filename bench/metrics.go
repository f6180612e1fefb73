package main

import (
	"math"
	"sort"
)

// Op kinds. Every workload schedules the same five kinds, so every
// end-to-end metric is measured on every workload; what a kind *does* is
// the workload's (see README.md, "What each op kind is on each workload").
const (
	opChange = "change" // a small change travels to both routers
	opPoll   = "poll"   // a poll that finds nothing changed
	opSlow   = "slow"   // the workload's slow-path change
	opBoot   = "boot"   // two fresh routers connect and load the full set
	opReval  = "reval"  // a router revalidates its routes against its VRPs
)

// metricDef describes one metric of the ledger. BENCHMARK.json carries the
// same names, units, directions and bounds; smoke_test.go holds the two in
// step.
type metricDef struct {
	Name string
	Unit string
	// Moves names the end-to-end metric this per-layer metric should move.
	Moves string
	// Bound is the share of the base median by which an end-to-end metric
	// may get worse before it counts as a regression. Lower is better for
	// every one of them.
	Bound float64
}

// endToEnd lists the end-to-end metrics, timed with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "change_to_router_ms", Unit: "ms", Bound: 0.25},
	{Name: "unchanged_poll_ms", Unit: "ms", Bound: 0.25},
	{Name: "slow_change_to_router_ms", Unit: "ms", Bound: 0.25},
	{Name: "route_revalidation_ms", Unit: "ms", Bound: 0.25},
	{Name: "retained_heap_mb", Unit: "MiB", Bound: 0.05},
	{Name: "cpu_ms_per_op", Unit: "ms", Bound: 0.25},
}

// perLayer lists the per-layer metrics, collected in the traced run and
// named <package>.<metric> (proc and bench for the process as a whole). A
// metric whose layer does no work on a workload reads 0 there (every repo.*
// and rp.* metric on rtr_bulk): that zero is the prediction "no move".
var perLayer = []metricDef{
	{Name: "ca.publish_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "ca.world_build_s", Unit: "s", Moves: "setup_s"},

	{Name: "repo.fetch_wall_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "repo.fetch_busy_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "repo.fetch_calls_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.dials_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.list_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.stat_per_sync", Unit: "count", Moves: "unchanged_poll_ms"},
	{Name: "repo.get_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.bytes_in_per_sync", Unit: "B", Moves: "change_to_router_ms"},
	{Name: "repo.bytes_out_per_sync", Unit: "B", Moves: "change_to_router_ms"},
	{Name: "repo.rtt_us", Unit: "us", Moves: "unchanged_poll_ms"},
	{Name: "repo.objects_downloaded_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.objects_reused_per_sync", Unit: "count", Moves: "unchanged_poll_ms"},
	{Name: "repo.peak_inflight_fetches", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.peak_fds", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.retries_per_cycle", Unit: "count", Moves: "slow_change_to_router_ms"},
	{Name: "repo.breaker_trips_per_cycle", Unit: "count", Moves: "slow_change_to_router_ms"},
	{Name: "repo.breaker_fastfails_per_cycle", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "repo.probe_syncs_per_cycle", Unit: "count", Moves: "slow_change_to_router_ms"},

	{Name: "rp.sync_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "rp.validate_self_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "rp.modules_reused_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.modules_revalidated_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.verify_cache_hits_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.verify_cache_misses_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.stale_fallbacks_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.incremental_fallbacks_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.diagnostics_per_sync", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rp.allocs_per_sync", Unit: "count", Moves: "cpu_ms_per_op"},
	{Name: "rp.alloc_kb_per_sync", Unit: "KiB", Moves: "retained_heap_mb"},
	{Name: "rp.peak_goroutines", Unit: "count", Moves: "change_to_router_ms"},

	{Name: "roa.parse_signed_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "manifest.parse_signed_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "manifest.hash_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "cert.parse_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "cert.validate_child_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "cert.crl_parse_verify_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "rfc3779.unmarshal_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "objects.roa_count", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "objects.mft_count", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "objects.crl_count", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "objects.cer_count", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "objects.attributed_cold_ms", Unit: "ms", Moves: "change_to_router_ms"},

	{Name: "rov.diff_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "rov.sort_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "rov.index_build_ms", Unit: "ms", Moves: "route_revalidation_ms"},
	{Name: "rov.classify_ns", Unit: "ns", Moves: "route_revalidation_ms"},

	{Name: "rtr.setvrps_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "rtr.setvrps_slow_ms", Unit: "ms", Moves: "slow_change_to_router_ms"},
	{Name: "rtr.fanout_us", Unit: "us", Moves: "change_to_router_ms"},
	{Name: "rtr.fanout_slow_ms", Unit: "ms", Moves: "slow_change_to_router_ms"},
	{Name: "rtr.router_vrps_copy_ms", Unit: "ms", Moves: "route_revalidation_ms"},
	{Name: "rtr.router_bootstrap_ms", Unit: "ms", Moves: "cpu_ms_per_op"},
	{Name: "rtr.snapshot_bytes", Unit: "B", Moves: "cpu_ms_per_op"},
	{Name: "rtr.history_bytes", Unit: "B", Moves: "retained_heap_mb"},
	{Name: "rtr.cache_resets", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rtr.resumptions", Unit: "count", Moves: "change_to_router_ms"},
	{Name: "rtr.evictions", Unit: "count", Moves: "change_to_router_ms"},

	{Name: "proc.cpu_user_ms_per_op", Unit: "ms", Moves: "cpu_ms_per_op"},
	{Name: "proc.cpu_sys_ms_per_op", Unit: "ms", Moves: "cpu_ms_per_op"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Moves: "retained_heap_mb"},
	{Name: "proc.gc_cycles", Unit: "count", Moves: "cpu_ms_per_op"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "bench.change_p90_ms", Unit: "ms", Moves: "change_to_router_ms"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Moves: "change_to_router_ms"},
	{Name: "bench.attributed_pct", Unit: "%", Moves: "change_to_router_ms"},
	{Name: "bench.samples", Unit: "count", Moves: "change_to_router_ms"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarises (0 for a count
	// or a reading taken once).
	Samples int `json:"samples,omitempty"`
	// Median is the samples' median, for a timing: Value is the percentile
	// the workload reports, which is not the median everywhere.
	Median float64 `json:"median,omitempty"`
	// Tail is the highest percentile that still has at least ten samples
	// beyond it, and TailValue the timing at that percentile.
	Tail      float64 `json:"tail_pct,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for none.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := math.Floor(rank)
	hi := math.Ceil(rank)
	return s[int(lo)] + (s[int(hi)]-s[int(lo)])*(rank-lo)
}

// timing summarises latency samples (already in unit) as their pct-th
// percentile — the workload's (workloadDef.pct) — with the median and the
// highest percentile that still has ten samples beyond it.
func timing(samples []float64, unit string, pct float64) value {
	v := value{Value: percentile(samples, pct), Unit: unit, Samples: len(samples), Median: median(samples)}
	if n := len(samples); n >= 20 {
		v.Tail = 100 * float64(n-10) / float64(n)
		v.TailValue = percentile(samples, v.Tail)
	}
	return v
}

// reading summarises a few repeated readings that are not op latencies
// (set-up time, retained heap, a share) as their median.
func reading(samples []float64, unit string) value {
	return value{Value: median(samples), Unit: unit, Samples: len(samples)}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
