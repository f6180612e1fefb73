package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"repro/internal/rp"
)

// benchmarkFile is the contract in /BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestContract holds BENCHMARK.json and the metric tables in step and
// inside the contract's limits.
func TestContract(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		use(w.Name)
		if names := workloadNames(); i >= len(names) || names[i] != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, the program has %v", i, w.Name, names)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no definition", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		use(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Bound != d.Bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		moved := false
		for _, e := range endToEnd {
			moved = moved || e.Name == d.Moves
		}
		if !moved {
			t.Errorf("%s should move %q, which is no end-to-end metric", d.Name, d.Moves)
		}
	}
}

// TestFetcherDecorator: rp type-asserts its fetcher for the incremental
// protocol and the degradation counters. A decorator that hid either would
// make the traced run measure a different program.
func TestFetcherDecorator(t *testing.T) {
	var f rp.Fetcher = &tracedFetcher{}
	if _, ok := f.(rp.IncrementalFetcher); !ok {
		t.Error("tracedFetcher does not forward SyncIncremental")
	}
	if _, ok := f.(rp.DegradationReporter); !ok {
		t.Error("tracedFetcher does not forward Stats")
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json names, that
// no op fails, and that the two runs agree on every count both can see.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			runs := map[bool]*runResult{}
			for _, trace := range []bool{false, true} {
				res, err := runWorkload(runConfig{Workload: name, Seed: 7, Small: true, Cycles: 2, Trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(workloads[name].cycle) {
					t.Errorf("trace %v: correct %v, %d of %d ops failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics emitted, %d named", trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("trace %v: metric %s not emitted", trace, d.Name)
					} else if v.Unit != d.Unit {
						t.Errorf("%s: unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v: must never be 0", d.Name, v.Value)
					}
				}
				printRun(io.Discard, res)
				runs[trace] = res
			}
			for k, v := range runs[false].Counts {
				if k != "ca.world_build_s" && runs[true].Counts[k] != v {
					t.Errorf("count %s: %v untraced, %v traced", k, v, runs[true].Counts[k])
				}
			}
			if len(runs[true].Counts) != len(runs[false].Counts) {
				t.Errorf("traced run has %d counts, untraced %d", len(runs[true].Counts), len(runs[false].Counts))
			}
		})
	}
}

// TestFailedCheckFailsRun corrupts the expected digest: every op with an
// output check must fail, carry no latency sample, and fail the run.
func TestFailedCheckFailsRun(t *testing.T) {
	res, err := runWorkload(runConfig{Workload: "steady_churn", Seed: 7, Small: true, Cycles: 1, Corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest: correct %v, %d ops failed", res.Correct, res.Failed)
	}
	if n := res.Metrics["change_to_router_ms"].Samples; n != 0 {
		t.Errorf("%d latency samples from failed ops", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got, want := (side{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(), 5.5/5.5; got != want {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	steady := side{100, 101, 99, 100}
	noisy := side{80, 100, 120, 140}
	for _, c := range []struct {
		base, new side
		want      string
	}{
		{steady, side{104, 105, 103}, "same"},
		{steady, side{120, 121, 119}, "worse"},
		{steady, side{80, 81, 79}, "better"},
		{steady, noisy, "unresolved"},
	} {
		if got := verdict(c.base, c.new, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.base, c.new, got, c.want)
		}
	}
}
