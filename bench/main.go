// Command bench is the repository's benchmark: publication-to-router over
// loopback TCP, end to end and layer by layer. It wires the public
// functions of every layer the way cmd/rpki-rp does — ca mutations behind a
// repo.Server, a repo.Client under an rp.RelyingParty, its VRPs into an
// rtr.Cache served to rtr.Clients — in one process, and measures each layer
// from outside, by timing the calls into it. See README.md.
//
// Usage:
//
//	bench [-workload all|name] [-seed N] [-seconds S] [-trace 0|1] [-trace-out spans.jsonl] [-runs N] [-out results.json]
//	bench -compare a.json b.json
//	bench -selfcheck [-runs N] [-out prefix]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceOut string
	// Small shrinks the inputs to the Figure 2 model world and 2,000 VRPs,
	// and Cycles fixes the number of cycles instead of running for Seconds:
	// the smoke test's scale.
	Small  bool
	Cycles int
	// Corrupt flips a bit of every expected digest once set-up is done, so
	// every output check fails: the test that a failed check fails the run.
	Corrupt bool
}

// routes is how many routes the revalidation op classifies.
func (c runConfig) routes() int {
	switch {
	case c.Small:
		return 1_000
	case c.Workload == "rtr_bulk":
		return 100_000
	}
	return 10_000
}

// runResult is what one run reports.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"run_seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Counts are what rp.Result and the rtr.Server counters reported, which
	// the traced and the untraced run must agree on.
	Counts map[string]float64 `json:"counts"`
}

// report is the result file: -out writes it, -compare reads two.
type report struct {
	Env  map[string]any `json:"env"`
	Runs []*runResult   `json:"runs"`
}

func environment(seconds float64) map[string]any {
	var lim syscall.Rlimit
	_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) // recorded for the reader; 0 if unavailable
	return map[string]any{
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"rlimit_nofile": lim.Cur,
		"run_seconds":   seconds,
		"transport":     "loopback TCP, one process",
	}
}

// pinProcess fixes what the numbers depend on: two cores at most (the load
// shape is sized for them) and the soft descriptor limit raised to the hard
// one.
func pinProcess() {
	procs := 2
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	var lim syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) == nil && lim.Cur < lim.Max {
		lim.Cur = lim.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) // best effort: the workloads need ~10 descriptors
	}
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "seed for the generated world, VRPs, routes and op schedule")
	seconds := flag.Float64("seconds", 26, "how long each run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans here as JSON lines")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "write every run's metrics to this JSON file")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two result sets")
	flag.Parse()
	pinProcess()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *runs, *out)
	default:
		var rep *report
		rep, err = runSuite(*workload, *seed, *seconds, *trace != 0, *traceOut, *runs)
		if rep != nil && *out != "" {
			if werr := writeReport(*out, rep); err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runSuite runs the named workload (or all of them) runs times each and
// prints every run. It returns an error if any op failed its output check.
func runSuite(workload string, seed int64, seconds float64, trace bool, traceOut string, runs int) (*report, error) {
	names := workloadNames()
	if workload != "all" {
		if _, ok := workloads[workload]; !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", workload, names)
		}
		names = []string{workload}
	}
	rep := &report{Env: environment(seconds)}
	failed := 0
	for _, name := range names {
		for i := 0; i < runs; i++ {
			res, err := runWorkload(runConfig{Workload: name, Seed: seed + int64(i), Seconds: seconds, Trace: trace, TraceOut: traceOut})
			if err != nil {
				return rep, fmt.Errorf("%s: %w", name, err)
			}
			rep.Runs = append(rep.Runs, res)
			failed += res.Failed
			printRun(os.Stdout, res)
		}
	}
	if failed > 0 {
		return rep, fmt.Errorf("%d ops failed their output check", failed)
	}
	return rep, nil
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// timer marks the timed interval of one op. The rig starts it when the op
// proper begins and stops it before checking outputs, so no check is ever
// inside a latency sample; the op's root span covers the same interval.
type timer struct {
	tr   *tracer
	kind string
	root int
	t0   time.Time
	d    time.Duration
	open bool
}

func (t *timer) start() {
	t.root = t.tr.begin("op."+t.kind, 0)
	t.t0, t.open = time.Now(), true
}

func (t *timer) stop() {
	if t.open {
		t.d, t.open = time.Since(t.t0), false
		t.tr.end(t.root)
	}
}
