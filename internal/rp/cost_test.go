package rp_test

// The exact-cost record of the steady_churn workload's ops: what each op
// makes the relying party and its repository client do, read from the
// process's own counters and pinned to a golden file. A change that moves
// any count shows it in its golden diff.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rp"
)

var update = flag.Bool("update", false, "rewrite golden files")

// costSeries are the exact counts recorded per op, each the delta of one
// obs.Registry series across the op.
var costSeries = []string{
	`rpki_repo_requests_total{verb="versions"}`,
	`rpki_repo_requests_total{verb="get"}`,
	`rpki_repo_requests_total{verb="list"}`,
	"rpki_repo_dials_total",
	"rpki_repo_conn_reuses_total",
	"rpki_repo_feed_skips_total",
	"rpki_verify_cache_hits_total",
	"rpki_verify_cache_misses_total",
	"rpki_modules_reused_total",
	"rpki_modules_revalidated_total",
	"rpki_objects_downloaded_total",
	"rpki_objects_reused_total",
	"rpki_objects_from_memo_total",
}

// churnTargets returns the authorities the steady_churn workload publishes
// at, chosen as the benchmark chooses them for seed: the ISP tier in name
// order, and the region, the tier's members under one randomly picked
// parent, at which the slow op toggles a ROA each.
func churnTargets(w *modelgen.World, seed int64) (tier, region []*ca.Authority) {
	var names []string
	for name, a := range w.Authorities {
		if a.Parent != nil && a.Parent.Parent != nil && a.Parent.Parent.Parent == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		tier = append(tier, w.Authorities[name])
	}
	pick := tier[rand.New(rand.NewSource(seed)).Intn(len(tier))]
	for _, a := range tier {
		if a.Parent == pick.Parent {
			region = append(region, a)
		}
	}
	return tier, region
}

// toggleChurnROA publishes or withdraws a's churn ROA, as the benchmark
// does: the last /20 of its first block, from an origin nothing else uses.
func toggleChurnROA(a *ca.Authority) error {
	name := a.Name + "-bench"
	if _, ok := a.ROA(name); ok {
		return a.DeleteROA(name)
	}
	p := a.Resources().Prefixes()[0]
	if p.Bits() < 20 && p.Family() == ipres.IPv4 {
		b := p.Addr().As4()
		last := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		last |= (uint32(1)<<(32-p.Bits()) - 1) &^ 0xFFF
		p = ipres.MustPrefixFrom(ipres.AddrFromUint32(last), 20)
	}
	_, err := a.IssueROA(name, 4_100_000_000, roa.Prefix{Prefix: p, MaxLength: p.Bits()})
	return err
}

// TestSteadyChurnCosts pins one cost vector per steady_churn op at seed 1:
// the cold sync, an unchanged poll, one ROA published at one ISP point, and
// the slow op's 13 sibling ISP points each toggling one. The world is
// served by a repo.Server on a loopback port to a repo.Client wired as the
// benchmark wires one, and the relying party runs one worker. Each count is
// the op's delta of an obs.Registry series, but verifications, which no
// metric exports, are read off the Result.
//
// Every count kept repeated exactly over 20 runs, with and without the race
// detector, and over 20 more under it with two other race-built test
// packages running beside it on 2 vCPUs, as `go test -race ./...` runs.
// LISTs, dials and connection reuses are exact for a fixed op sequence: a
// host re-proves its peer on every 32nd fetch, its first re-proof staggered
// by a hash of its name, so how many hosts re-prove in a poll depends only
// on the poll's place in that 32-poll cycle (20 LISTs for this sequence's
// unchanged poll). The benchmark's "23 or 24 LISTs" per sync is a median
// over whichever places its ops fell on, which the run's length decides.
// Dials and reuses also assume each op starts within a second of the last,
// while the connections it parked are still live: a runner that takes over
// a second to publish the region's 13 ROAs would dial where the golden
// reuses.
// Left out: the bytes fetched, because every run signs with fresh keys and
// an ECDSA signature's DER length varies.
//
// Run with -update to rewrite the golden file.
func TestSteadyChurnCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 721-point world")
	}
	w, err := modelgen.Synthetic(modelgen.ProductionSized(1))
	if err != nil {
		t.Fatal(err)
	}
	tier, region := churnTargets(w, 1)
	hub := obs.NewHub(w.Clock)
	srv := repo.NewServer()
	for module, store := range w.Stores {
		srv.AddModule(module, store, nil)
	}
	client := serverClient(t, srv)
	client.Instrument(hub)
	v := rp.New(rp.Config{
		Fetcher:        client,
		Clock:          w.Clock,
		Workers:        1,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
		Obs:            hub,
	}, w.Anchor())

	var record strings.Builder
	op := func(name string, publish func() error) {
		t.Helper()
		if err := publish(); err != nil {
			t.Fatal(err)
		}
		before := make([]float64, len(costSeries))
		for i, series := range costSeries {
			before[i] = sample(t, hub, series)
		}
		res := syncOnce(t, v)
		fmt.Fprintf(&record, "%s\n", name)
		for i, series := range costSeries {
			fmt.Fprintf(&record, "\t%s %.0f\n", series, sample(t, hub, series)-before[i])
		}
		fmt.Fprintf(&record, "\tverifications %d\n", rp.Verifications(res))
	}
	nothing := func() error { return nil }
	op("cold", nothing)
	op("unchanged poll", nothing)
	op("one ROA added", func() error { return toggleChurnROA(tier[0]) })
	op(fmt.Sprintf("region: %d ISP points toggle one ROA each", len(region)), func() error {
		for _, a := range region {
			if err := toggleChurnROA(a); err != nil {
				return err
			}
		}
		return nil
	})
	got := record.String()

	golden := filepath.Join("testdata", "steady_churn_costs.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("steady_churn costs moved:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// sample reads one series off hub's registry.
func sample(t *testing.T, hub *obs.Hub, series string) float64 {
	t.Helper()
	v, ok := hub.Registry().Sample(series)
	if !ok {
		t.Fatalf("no series %s", series)
	}
	return v
}
