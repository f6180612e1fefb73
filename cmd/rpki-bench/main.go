// Command rpki-bench runs the repository's performance suites outside the
// go-test harness and writes the results as machine-readable JSON — a
// regression baseline that CI or a developer can diff across changes.
//
// Usage:
//
//	rpki-bench [-out BENCH_PR9.json] [-tiers 10000,100000,1000000]
//	           [-micro] [-benchtime 1s] [-workers N] [-rss-budget-mb M]
//	           [-worlddir DIR] [-rtr-scale 1000,5000,10000] [-rtr-deltas N]
//	           [-rtr-vrps N] [-rtr-rss-budget-mb M]
//
// Three suites:
//
//   - The micro suite (-micro, on by default) covers the steady-state
//     polling pipeline end to end: cold validation of the production-sized
//     synthetic world, the warm re-sync of an unchanged world, the same
//     warm re-sync with full observability attached (the report
//     records the overhead percentage), the one-module-changed incremental
//     sync, the VRP set diff, the RTR fan-out of a one-VRP delta to 100
//     concurrent router clients, and the internal/obs metric hot paths —
//     the obs_* benchmarks hard-fail if a counter/gauge/histogram update
//     allocates.
//
//   - The scaling suite (-tiers) generates seeded on-disk worlds at each
//     tier (ROA count) and measures, per tier: generation, cold
//     validation, and the warm re-sync. Each phase runs in a fresh
//     subprocess (the binary re-execs itself) so peak RSS — read from
//     /proc/self/status VmHWM — isolates that phase alone. The harness
//     fails if the cold and warm passes disagree on the VRP set
//     (byte-level digest compare), if a tier with a recorded golden digest
//     (the 10k tier at -seed 1) does not reproduce it, or if a validation
//     phase exceeds -rss-budget-mb.
//
//   - The rtr-scale suite (-rtr-scale) measures the router-fleet fan-out:
//     per client tier (e.g. 1k/5k/10k concurrent RTR clients), one fresh
//     server subprocess owns the cache, the RTR listener, a replication
//     feed with a live replica, and one deliberately stalled client, while
//     the router fleet runs in subprocesses of at most 8000 clients each
//     (a TCP connection costs a descriptor on both ends, and per-process
//     RLIMIT_NOFILE hard limits are not raisable without
//     CAP_SYS_RESOURCE). The server drives -rtr-deltas cache updates
//     through the sharded notify path and records the delta-propagation
//     p50/p99/max across every client×delta sample plus the process tree's
//     peak RSS. The phase hard-fails unless the stalled client was
//     evicted, every surviving client's final VRP set equals the cache's
//     canonical set, and the replica frontend ends byte-identical to the
//     primary (StateDigest compare — session, serial, and snapshot frame).
//
// Worlds live in per-tier temp directories removed after the tier finishes;
// pass -worlddir to keep them (and to reuse an already-generated world on
// the next run — generation is skipped when a matching world.json exists).
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	rpkirisk "repro"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/obs"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rp"
	"repro/internal/rtr"
)

type benchResult struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	GoVersion    string  `json:"go_version"`
	CPUs         int     `json:"cpus"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
}

// scaleResult is one scaling-suite phase, measured in its own subprocess.
type scaleResult struct {
	Name            string  `json:"name"` // scale_<tier>_<phase>
	Tier            int     `json:"tier"`
	Phase           string  `json:"phase"`
	Workers         int     `json:"workers"`
	WallSeconds     float64 `json:"wall_seconds"`
	PeakRSSBytes    int64   `json:"peak_rss_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	GoVersion       string  `json:"go_version"`
	CPUs            int     `json:"cpus"`
	Modules         int     `json:"modules,omitempty"`
	VRPs            int     `json:"vrps,omitempty"`
	VRPDigest       string  `json:"vrp_digest,omitempty"`
}

// rtrScaleResult is one rtr-scale tier, measured in its own subprocess.
type rtrScaleResult struct {
	Name    string `json:"name"` // rtr_scale_<clients>
	Clients int    `json:"clients"`
	Deltas  int    `json:"deltas"`
	VRPs    int    `json:"vrps"`
	// Delta-propagation latency over every client×delta sample: SetVRPs
	// call to the client's End of Data for that serial.
	P50DeltaMS float64 `json:"p50_delta_ms"`
	P99DeltaMS float64 `json:"p99_delta_ms"`
	MaxDeltaMS float64 `json:"max_delta_ms"`
	// SyncSeconds is the initial fleet connect+snapshot time; WallSeconds
	// covers the whole phase.
	SyncSeconds  float64 `json:"sync_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"` // whole tier: server process (cache+replica) plus every fleet subprocess
	// Evictions must be >= 1: the deliberately stalled client.
	Evictions uint64 `json:"evictions"`
	// EquivalentClients counts clients whose final VRP digest matched the
	// cache's canonical set; the phase fails unless it equals Clients.
	EquivalentClients int    `json:"equivalent_clients"`
	VRPDigest         string `json:"vrp_digest"`
	// ReplicaDigestOK: the replica frontend's StateDigest (session, serial,
	// snapshot frame) is byte-identical to the primary's.
	ReplicaDigestOK bool   `json:"replica_digest_ok"`
	GoVersion       string `json:"go_version"`
	CPUs            int    `json:"cpus"`
}

type report struct {
	Date      string           `json:"date"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	CPUs      int              `json:"cpus"`
	Results   []benchResult    `json:"results,omitempty"`
	Scale     []scaleResult    `json:"scale,omitempty"`
	RTRScale  []rtrScaleResult `json:"rtr_scale,omitempty"`
	// ObsOverheadPct is the warm re-sync cost of full instrumentation:
	// (warm_resync_instrumented - warm_resync_module_reuse) /
	// warm_resync_module_reuse, as a percentage. Nil when the micro suite
	// did not run.
	ObsOverheadPct *float64 `json:"obs_warm_resync_overhead_pct,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_PR9.json", "write the JSON report to this file (empty: stdout only)")
	benchtime := flag.Duration("benchtime", time.Second, "target run time per micro-benchmark")
	micro := flag.Bool("micro", true, "run the micro-benchmark suite")
	tiers := flag.String("tiers", "", "comma-separated ROA tiers for the scaling suite (e.g. 10000,100000,1000000)")
	workers := flag.Int("workers", 4, "generation/validation worker count for the scaling suite")
	seed := flag.Int64("seed", 1, "world-generation seed for the scaling suite")
	worlddir := flag.String("worlddir", "", "keep/reuse generated worlds under this directory (default: per-tier temp dirs)")
	rssBudgetMB := flag.Int("rss-budget-mb", 0, "fail if a validation phase's peak RSS exceeds this many MiB (0: no budget)")
	rtrScale := flag.String("rtr-scale", "", "comma-separated concurrent-client tiers for the rtr-scale suite (e.g. 1000,5000,10000)")
	rtrDeltas := flag.Int("rtr-deltas", 10, "cache updates to propagate per rtr-scale tier")
	rtrVRPs := flag.Int("rtr-vrps", 2000, "base VRP count served by the rtr-scale cache")
	rtrRSSBudgetMB := flag.Int("rtr-rss-budget-mb", 0, "fail if an rtr-scale tier's peak RSS exceeds this many MiB (0: no budget)")
	phase := flag.String("phase", "", "internal: run a single scaling phase in this process and print its JSON record")
	tier := flag.Int("tier", 0, "internal: ROA tier for -phase")
	rtrClients := flag.Int("rtr-clients", 0, "internal: concurrent-client count for -phase rtr_scale / rtr_fleet")
	rtrAddr := flag.String("rtr-addr", "", "internal: RTR server address for -phase rtr_fleet")
	testing.Init() // registers the test.* flags testing.Benchmark reads
	flag.Parse()

	if *phase == "rtr_scale" {
		if err := runRTRScalePhase(*rtrClients, *rtrDeltas, *rtrVRPs); err != nil {
			fatal(err)
		}
		return
	}
	if *phase == "rtr_fleet" {
		if err := runRTRFleetPhase(*rtrAddr, *rtrClients, *rtrDeltas, *rtrVRPs); err != nil {
			fatal(err)
		}
		return
	}
	if *phase != "" {
		if err := runPhase(*phase, *tier, *worlddir, *seed, *workers); err != nil {
			fatal(err)
		}
		return
	}

	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}
	rep := &report{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
	}
	if *micro {
		runMicro(rep)
	}
	if *tiers != "" {
		if err := runScale(rep, *tiers, *worlddir, *seed, *workers, *rssBudgetMB); err != nil {
			writeReport(rep, *out) // keep partial results for debugging
			fatal(err)
		}
	}
	if *rtrScale != "" {
		if err := runRTRScale(rep, *rtrScale, *rtrDeltas, *rtrVRPs, *rtrRSSBudgetMB); err != nil {
			writeReport(rep, *out) // keep partial results for debugging
			fatal(err)
		}
	}
	writeReport(rep, *out)
}

func writeReport(rep *report, out string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	} else {
		fmt.Println(string(data))
	}
}

// peakRSSBytes reads the process high-water RSS from /proc/self/status
// (VmHWM). Returns 0 on platforms without procfs.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// digestVRPs hashes a canonically sorted VRP set; two runs agree on the
// digest iff they produced the identical VRP list.
func digestVRPs(vrps []rov.VRP) string {
	h := sha256.New()
	var buf bytes.Buffer
	for _, v := range vrps {
		buf.Reset()
		fmt.Fprintf(&buf, "%s|%d|%d\n", v.Prefix, v.MaxLength, v.ASN)
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPhase executes one scaling phase in-process and prints its scaleResult
// as a single JSON line on stdout (everything else goes to stderr).
func runPhase(phase string, tier int, dir string, seed int64, workers int) error {
	if tier <= 0 || dir == "" {
		return fmt.Errorf("phase %q needs -tier and -worlddir", phase)
	}
	ctx := context.Background()
	rec := scaleResult{
		Name:      fmt.Sprintf("scale_%d_%s", tier, phase),
		Tier:      tier,
		Phase:     phase,
		Workers:   workers,
		GoVersion: runtime.Version(),
		CPUs:      runtime.GOMAXPROCS(0),
	}

	// open builds a relying party over the world in dir.
	open := func() (*rp.RelyingParty, error) {
		w, err := modelgen.OpenScaled(dir)
		if err != nil {
			return nil, err
		}
		anchor, err := w.Anchor()
		if err != nil {
			return nil, err
		}
		rec.Modules = w.Meta.Modules
		return rp.New(rp.Config{Fetcher: w.Fetcher(), Clock: w.Clock(), Workers: workers}, anchor), nil
	}
	record := func(res *rp.Result) error {
		if len(res.Diagnostics) > 0 {
			return fmt.Errorf("tier %d: %d diagnostics, first: %v", tier, len(res.Diagnostics), res.Diagnostics[0])
		}
		rec.VRPs = len(res.VRPs)
		rec.VRPDigest = digestVRPs(res.VRPs)
		return nil
	}

	start := time.Now()
	switch phase {
	case "generate":
		w, err := modelgen.GenerateScaled(modelgen.ScaleConfig{
			Seed: seed, ROAs: tier, Dir: dir, Workers: workers,
		})
		if err != nil {
			return err
		}
		rec.Modules = w.Meta.Modules
	case "cold_streaming":
		v, err := open()
		if err != nil {
			return err
		}
		res, err := v.Sync(ctx)
		if err != nil {
			return err
		}
		if err := record(res); err != nil {
			return err
		}
	case "warm_resync":
		// Run the cold pass untimed, then time the warm re-sync; peak RSS
		// still covers the whole process (cold + warm), which is the honest
		// number for a long-lived polling relying party.
		v, err := open()
		if err != nil {
			return err
		}
		if _, err := v.Sync(ctx); err != nil {
			return err
		}
		start = time.Now() // time only the warm pass
		res, err := v.Sync(ctx)
		if err != nil {
			return err
		}
		if res.ModulesRevalidated != 0 {
			return fmt.Errorf("warm re-sync revalidated %d modules, want 0", res.ModulesRevalidated)
		}
		if err := record(res); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown phase %q", phase)
	}
	rec.WallSeconds = time.Since(start).Seconds()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.TotalAllocBytes = ms.TotalAlloc
	rec.Mallocs = ms.Mallocs
	rec.PeakRSSBytes = peakRSSBytes()

	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// goldenDigests are the recorded vrp_digest values of the seed-1 worlds, by
// tier (BENCH_PR6.json): with one walk left there is no second path to
// compare against, so the record is the reference.
var goldenDigests = map[int]string{
	modelgen.Tier10k: "3ab6f62e1a143b4c51b8a8654ed96601493ffb06de74229fcb378d2698fe85dc",
}

// runScale drives the scaling suite: per tier, generate (or reuse) the world
// and run each validation phase in a fresh subprocess so peak RSS is
// attributable to that phase alone.
func runScale(rep *report, tiersCSV, worlddir string, seed int64, workers, rssBudgetMB int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var tiers []int
	for _, part := range strings.Split(tiersCSV, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return fmt.Errorf("bad tier %q", part)
		}
		tiers = append(tiers, n)
	}

	spawn := func(phase string, tier int, dir string) (scaleResult, error) {
		fmt.Fprintf(os.Stderr, "== tier %d: %s (workers=%d)\n", tier, phase, workers)
		cmd := exec.Command(exe,
			"-phase", phase,
			"-tier", strconv.Itoa(tier),
			"-worlddir", dir,
			"-seed", strconv.FormatInt(seed, 10),
			"-workers", strconv.Itoa(workers),
		)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return scaleResult{}, fmt.Errorf("tier %d phase %s: %w", tier, phase, err)
		}
		var rec scaleResult
		if err := json.Unmarshal(bytes.TrimSpace(out), &rec); err != nil {
			return scaleResult{}, fmt.Errorf("tier %d phase %s: bad record %q: %w", tier, phase, out, err)
		}
		fmt.Fprintf(os.Stderr, "   %-14s %8.2fs  peak RSS %7.1f MiB  vrps=%d\n",
			phase, rec.WallSeconds, float64(rec.PeakRSSBytes)/(1<<20), rec.VRPs)
		rep.Scale = append(rep.Scale, rec)
		return rec, nil
	}

	for _, tier := range tiers {
		dir := filepath.Join(os.TempDir(), fmt.Sprintf("rpki-bench-world-%d", tier))
		keep := false
		if worlddir != "" {
			dir = filepath.Join(worlddir, fmt.Sprintf("tier-%d", tier))
			keep = true
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}

		// Reuse an existing world only when its metadata matches exactly.
		generate := true
		if w, err := modelgen.OpenScaled(dir); err == nil && w.Meta.Seed == seed && w.Meta.ROAs == tier {
			fmt.Fprintf(os.Stderr, "== tier %d: reusing world in %s\n", tier, dir)
			generate = false
		}
		if generate {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			if _, err := spawn("generate", tier, dir); err != nil {
				return err
			}
		}

		cold, err := spawn("cold_streaming", tier, dir)
		if err != nil {
			return err
		}
		warm, err := spawn("warm_resync", tier, dir)
		if err != nil {
			return err
		}

		// Correctness gate: the warm re-sync must reproduce the cold VRP set
		// bit for bit, and a tier with a recorded golden must reproduce that.
		if warm.VRPDigest != cold.VRPDigest || warm.VRPs != cold.VRPs {
			return fmt.Errorf("tier %d: warm re-sync VRP set (%d, %s) != cold (%d, %s)",
				tier, warm.VRPs, warm.VRPDigest, cold.VRPs, cold.VRPDigest)
		}
		if golden, ok := goldenDigests[tier]; ok && seed == 1 && cold.VRPDigest != golden {
			return fmt.Errorf("tier %d: VRP digest %s != recorded golden %s", tier, cold.VRPDigest, golden)
		}

		// Memory gate: both validation phases must fit the budget.
		if rssBudgetMB > 0 {
			budget := int64(rssBudgetMB) << 20
			for _, rec := range []scaleResult{cold, warm} {
				if rec.PeakRSSBytes > budget {
					return fmt.Errorf("%s: peak RSS %d bytes exceeds budget %d MiB",
						rec.Name, rec.PeakRSSBytes, rssBudgetMB)
				}
			}
		}

		if !keep {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

func runMicro(rep *report) {
	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		res := benchResult{
			Name:         name,
			Iterations:   r.N,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			GoVersion:    runtime.Version(),
			CPUs:         runtime.GOMAXPROCS(0),
			PeakRSSBytes: peakRSSBytes(),
		}
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-32s %10d iter  %14.0f ns/op  %8d allocs/op  %10d B/op\n",
			name, res.Iterations, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}

	ctx := context.Background()
	world, err := rpkirisk.NewSyntheticWorld(1)
	if err != nil {
		fatal(err)
	}

	run("validate_synthetic_cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := rpkirisk.Validate(ctx, world)
			if err != nil {
				b.Fatal(err)
			}
			if res.ROAsAccepted < 1200 {
				b.Fatalf("ROAs = %d", res.ROAsAccepted)
			}
		}
	})

	run("warm_resync_module_reuse", func(b *testing.B) {
		relying := rpkirisk.NewRelyingParty(world, 0)
		if _, err := relying.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := relying.Sync(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if res.ModulesRevalidated != 0 {
				b.Fatalf("re-validated %d modules", res.ModulesRevalidated)
			}
		}
	})

	run("warm_resync_instrumented", func(b *testing.B) {
		// The module-reuse warm re-sync again, this time with the full
		// observability plane attached: metrics, per-sync trace, flight
		// recorder. The delta against warm_resync_module_reuse is the
		// instrumentation tax on the steady-state hot path.
		hub := obs.NewHub(world.Clock)
		relying := rp.New(rp.Config{Fetcher: world.Stores, Clock: world.Clock, Obs: hub}, world.Anchor())
		if _, err := relying.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := relying.Sync(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if res.ModulesRevalidated != 0 {
				b.Fatalf("re-validated %d modules", res.ModulesRevalidated)
			}
		}
	})

	if base, inst := lastResult(rep, "warm_resync_module_reuse"), lastResult(rep, "warm_resync_instrumented"); base != nil && inst != nil && base.NsPerOp > 0 {
		pct := (inst.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		rep.ObsOverheadPct = &pct
		fmt.Printf("%-32s %+.2f%%\n", "obs overhead (warm re-sync)", pct)
	}

	run("one_module_changed", func(b *testing.B) {
		relying := rpkirisk.NewRelyingParty(world, 0)
		if _, err := relying.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		isp := world.MustAuthority("rir-0-isp-0")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
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
		b.StopTimer()
		_ = isp.DeleteROA("bench-toggle") // leave the world as found (best effort)
	})

	baseline, err := rpkirisk.Validate(ctx, world)
	if err != nil {
		fatal(err)
	}
	vrps := baseline.VRPs

	run("vrp_diff_unchanged", func(b *testing.B) {
		next := append([]rov.VRP(nil), vrps...)
		for i := 0; i < b.N; i++ {
			announced, withdrawn := rov.DiffVRPs(vrps, next)
			if announced != nil || withdrawn != nil {
				b.Fatal("unchanged set produced a delta")
			}
		}
	})

	// Metric hot paths: the observability contract is that an update on a
	// held handle is a few atomic operations and never allocates. These
	// fail the whole run on a single alloc/op — a heap-allocating counter
	// would tax every object of every sync.
	runZeroAlloc := func(name string, fn func(b *testing.B)) {
		run(name, fn)
		if last := lastResult(rep, name); last != nil && last.AllocsPerOp != 0 {
			fatal(fmt.Errorf("%s: %d allocs/op, want 0 — metric updates must not allocate", name, last.AllocsPerOp))
		}
	}
	mreg := obs.NewRegistry()
	mctr := mreg.Counter("bench_counter_total", "bench")
	mgauge := mreg.Gauge("bench_gauge", "bench")
	mhist := mreg.Histogram("bench_hist_seconds", "bench", obs.DurationBuckets())
	mchild := mreg.CounterVec("bench_vec_total", "bench", "module").With("rir-0-isp-0")
	runZeroAlloc("obs_counter_inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mctr.Inc()
		}
	})
	runZeroAlloc("obs_gauge_set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgauge.Set(float64(i))
		}
	})
	runZeroAlloc("obs_histogram_observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mhist.Observe(float64(i%1000) / 1000)
		}
	})
	runZeroAlloc("obs_countervec_held_child_inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mchild.Inc()
		}
	})

	run("rtr_fanout_100_clients", func(b *testing.B) {
		const clients = 100
		extra := rov.VRP{Prefix: rpkirisk.MustParsePrefix("192.0.2.0/24"), MaxLength: 24, ASN: ipres.ASN(64500)}
		snapshot := func(withExtra bool) []rov.VRP {
			out := append([]rov.VRP(nil), vrps...)
			if withExtra {
				out = append(out, extra)
			}
			return out
		}
		bound, cache, stop, err := rpkirisk.ServeRTR("127.0.0.1:0", snapshot(false))
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = stop() }()
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		synced := make(chan struct{}, clients*4)
		for i := 0; i < clients; i++ {
			c := rtr.NewClient(bound)
			c.OnSync(func([]rov.VRP) { synced <- struct{}{} })
			go func() { _ = c.Run(cctx) }()
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
		await()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.SetVRPs(snapshot(i%2 == 0))
			await()
		}
	})
}

// lastResult finds the most recent micro result with the given name.
func lastResult(rep *report, name string) *benchResult {
	for i := len(rep.Results) - 1; i >= 0; i-- {
		if rep.Results[i].Name == name {
			return &rep.Results[i]
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
