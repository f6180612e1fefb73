package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/modelgen"
	"repro/internal/monitor"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/suspenders"
)

// ExtSuspenders is the fail-safe ablation: it reruns the Side Effect 7
// timeline with a Suspenders-style grace cache between the relying party
// and the routers, and shows the circular dependency no longer latches —
// answering the paper's open question about architectures "not brittle in
// case of missing information", and measuring the cost (delayed reaction
// to legitimate whacks).
func ExtSuspenders() (*Result, error) {
	r := &Result{ID: "ext-suspenders", Title: "Ablation: Suspenders-style grace cache vs Side Effect 7"}

	run := func(grace time.Duration) (persisted bool, timeline []string, err error) {
		sim, _, err := circularLoop(Clock)
		if err != nil {
			return false, nil, err
		}
		defer sim.Close()
		step := 0
		if grace > 0 {
			cache := suspenders.NewCache(grace)
			sim.PostSync = func(vrps []rov.VRP) []rov.VRP {
				// One simulator step = ten minutes of wall time.
				return cache.Update(Epoch.Add(time.Duration(step)*10*time.Minute), vrps)
			}
		}
		ctx := context.Background()
		advance := func(label string) error {
			step++
			rep, err := sim.Step(ctx)
			if err != nil {
				return err
			}
			s, _ := sim.RouteState("continental")
			timeline = append(timeline, fmt.Sprintf("  %-24s route=%-8v unreachable=%v", label, s, rep.Unreachable))
			return nil
		}
		if err := advance("t0 bootstrap"); err != nil {
			return false, nil, err
		}
		sim.Faults("continental").Corrupt("cont-20.roa")
		if err := advance("t1 corruption"); err != nil {
			return false, nil, err
		}
		sim.Faults("continental").Restore("")
		if err := advance("t2 fault fixed"); err != nil {
			return false, nil, err
		}
		if err := advance("t3 next sync"); err != nil {
			return false, nil, err
		}
		s, _ := sim.RouteState("continental")
		return s != rov.Valid, timeline, nil
	}

	persistedPlain, plainTimeline, err := run(0)
	if err != nil {
		return nil, err
	}
	persistedGrace, graceTimeline, err := run(time.Hour)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("without suspenders (grace 0):\n")
	sb.WriteString(strings.Join(plainTimeline, "\n"))
	sb.WriteString("\nwith suspenders (grace 1h ≈ 6 sync intervals):\n")
	sb.WriteString(strings.Join(graceTimeline, "\n"))
	sb.WriteString("\n")
	r.Text = sb.String()
	r.check("plain_rp_latches", persistedPlain, "the failure persists without a fail-safe")
	r.check("suspenders_self_heals", !persistedGrace, "the grace window bridges the transient fault")
	return r, nil
}

// ExtLKG is the resilience ablation for this repository's own fail-safe: it
// reruns the Side Effect 7 timeline with the relying party's last-known-good
// fallback at three settings. TTL 0 reproduces the paper's latch; a generous
// TTL lets the relying party serve the pre-fault snapshot while its
// repository is gated off, breaking the circular dependency without manual
// intervention; a TTL shorter than the outage shows the staleness bound
// doing its job — a dead repository cannot pin the validated cache forever.
func ExtLKG() (*Result, error) {
	r := &Result{ID: "ext-lkg", Title: "Ablation: last-known-good fallback vs Side Effect 7"}

	run := func(ttl time.Duration) (healed bool, fallbacks int, timeline []string, err error) {
		// One simulator step = ten minutes of wall time; the relying
		// party's clock (and with it LKG snapshot ages) advances in step.
		step := 0
		sim, _, err := circularLoop(func() time.Time { return Epoch.Add(time.Duration(step) * 10 * time.Minute) })
		if err != nil {
			return false, 0, nil, err
		}
		defer sim.Close()
		sim.StaleTTL = ttl
		ctx := context.Background()
		advance := func(label string) error {
			rep, err := sim.Step(ctx)
			if err != nil {
				return err
			}
			fallbacks += rep.StaleFallbacks
			s, _ := sim.RouteState("continental")
			timeline = append(timeline, fmt.Sprintf("  %-24s route=%-8v unreachable=%v fallbacks=%d",
				label, s, rep.Unreachable, rep.StaleFallbacks))
			step++
			return nil
		}
		if err := advance("t0 bootstrap"); err != nil {
			return false, 0, nil, err
		}
		sim.Faults("continental").Corrupt("cont-20.roa")
		if err := advance("t1 corruption"); err != nil {
			return false, 0, nil, err
		}
		sim.Faults("continental").Restore("")
		if err := advance("t2 fault fixed"); err != nil {
			return false, 0, nil, err
		}
		if err := advance("t3 next sync"); err != nil {
			return false, 0, nil, err
		}
		s, _ := sim.RouteState("continental")
		return s == rov.Valid, fallbacks, timeline, nil
	}

	healedPlain, _, plainTimeline, err := run(0)
	if err != nil {
		return nil, err
	}
	healedLKG, fallbacksLKG, lkgTimeline, err := run(time.Hour)
	if err != nil {
		return nil, err
	}
	healedShort, _, shortTimeline, err := run(5 * time.Minute)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("without LKG (stale-ttl 0):\n")
	sb.WriteString(strings.Join(plainTimeline, "\n"))
	sb.WriteString("\nwith LKG (stale-ttl 1h; outage ≈ 20 min):\n")
	sb.WriteString(strings.Join(lkgTimeline, "\n"))
	sb.WriteString("\nwith LKG (stale-ttl 5 min < outage):\n")
	sb.WriteString(strings.Join(shortTimeline, "\n"))
	sb.WriteString("\n")
	r.Text = sb.String()

	r.metric("lkg_fallback_syncs", float64(fallbacksLKG))
	r.check("plain_rp_latches", !healedPlain, "without fallback the transient fault persists")
	r.check("lkg_self_heals", healedLKG && fallbacksLKG >= 1,
		"the stale snapshot bridges the unreachable window (%d fallback syncs)", fallbacksLKG)
	r.check("ttl_bounds_staleness", !healedShort,
		"a snapshot older than the TTL is retired, not served forever")
	return r, nil
}

// ExtCollateral measures collateral damage and detectability of whack
// methods at scale on a synthetic deployment: for every leaf ROA, the blunt
// revocation cost against the surgical plan's footprint — the quantitative
// version of Side Effects 3–4.
func ExtCollateral() (*Result, error) {
	r := &Result{ID: "ext-collateral", Title: "Extension: collateral-damage distribution at deployment scale"}
	w, err := modelgen.Synthetic(modelgen.SyntheticConfig{
		Seed: 2013, RIRs: 2, ISPsPerRIR: 4, ROAsPerISP: 4, CustomersPerISP: 4, Clock: Clock,
	})
	if err != nil {
		return nil, err
	}

	var (
		targets          int
		bluntTotal       int
		bluntMax         int
		surgicalTotal    int
		surgicalDetect   int
		deepDetectTotal  int
		deepTargets      int
		surgicalFailures int
	)
	for r2 := 0; r2 < 2; r2++ {
		rir := w.MustAuthority(fmt.Sprintf("rir-%d", r2))
		planner := &core.Planner{Manipulator: rir}
		for _, ispName := range rir.Children() {
			isp, _ := rir.Child(ispName)
			// Grandchild targets: the ISP's own ROAs (depth 1 from RIR).
			for _, roaName := range isp.ROAs() {
				t := core.Target{Holder: isp, Name: roaName}
				blunt, err := planner.PlanRevokeSubtree(t)
				if err != nil {
					return nil, err
				}
				surgical, err := planner.Plan(t)
				if err != nil {
					return nil, err
				}
				targets++
				bluntTotal += len(blunt.Collateral)
				if len(blunt.Collateral) > bluntMax {
					bluntMax = len(blunt.Collateral)
				}
				surgicalTotal += len(surgical.Collateral)
				surgicalDetect += surgical.Detectability()
				if len(surgical.Collateral) != 0 {
					surgicalFailures++
				}
			}
			// Great-grandchild targets: customer ROAs (depth 2 from RIR).
			for _, custName := range isp.Children() {
				cust, _ := isp.Child(custName)
				for _, roaName := range cust.ROAs() {
					deep, err := planner.Plan(core.Target{Holder: cust, Name: roaName})
					if err != nil {
						return nil, err
					}
					deepTargets++
					deepDetectTotal += deep.Detectability()
				}
			}
		}
	}
	meanBlunt := float64(bluntTotal) / float64(targets)
	meanDeepDetect := float64(deepDetectTotal) / float64(deepTargets)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %8s %8s\n", "method", "mean", "max")
	fmt.Fprintf(&sb, "%-28s %8.2f %8d   (collateral ROAs per whack)\n", "revoke-subtree", meanBlunt, bluntMax)
	fmt.Fprintf(&sb, "%-28s %8.2f %8d\n", "surgical (grandchild)", float64(surgicalTotal)/float64(targets), 0)
	fmt.Fprintf(&sb, "\n%-28s %8.2f        (suspicious objects per whack)\n", "surgical detectability", float64(surgicalDetect)/float64(targets))
	fmt.Fprintf(&sb, "%-28s %8.2f\n", "deep-whack detectability", meanDeepDetect)
	fmt.Fprintf(&sb, "\n%d grandchild targets, %d great-grandchild targets\n", targets, deepTargets)
	r.Text = sb.String()

	r.metric("targets", float64(targets))
	r.metric("blunt_mean_collateral", meanBlunt)
	r.metric("surgical_mean_collateral", float64(surgicalTotal)/float64(targets))
	r.metric("deep_mean_detectability", meanDeepDetect)
	r.check("blunt_always_costs", meanBlunt > 1,
		"revocation whacks %.2f extra ROAs on average", meanBlunt)
	r.check("surgical_never_costs", surgicalFailures == 0,
		"every grandchild target had a zero-collateral plan")
	r.check("deep_is_more_detectable", meanDeepDetect > float64(surgicalDetect)/float64(targets),
		"deep %.2f vs surgical %.2f suspicious objects", meanDeepDetect, float64(surgicalDetect)/float64(targets))
	return r, nil
}

// ExtMonitor measures the monitor's signal quality: alerts raised across
// rounds of benign churn (new ROAs, key rollovers, reissues) versus the
// round containing a real targeted whack.
func ExtMonitor() (*Result, error) {
	r := &Result{ID: "ext-monitor", Title: "Extension: monitor precision under benign churn"}
	w, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	watcher := monitor.NewWatcher()
	observeAll := func() []monitor.Event {
		var events []monitor.Event
		for _, module := range []string{"arin", "sprint", "etb", "continental"} {
			events = append(events, watcher.Observe(module, w.Stores[module].Snapshot())...)
		}
		return events
	}
	observeAll() // baseline

	sprint := w.MustAuthority("sprint")
	continental := w.MustAuthority("continental")

	benignAlerts, benignEvents := 0, 0
	churn := []func() error{
		func() error {
			_, err := sprint.IssueROA("churn-1", 1239, roa.MustParsePrefix("63.169.0.0/16"))
			return err
		},
		func() error { return continental.RollKey() },
		func() error {
			_, err := continental.IssueROA("churn-2", 17054, roa.MustParsePrefix("63.174.28.0/24"))
			return err
		},
		func() error { return sprint.RollKey() },
		func() error { return continental.DeleteROA("churn-2") }, // self-delete: warning-grade
	}
	var warnings int
	for _, op := range churn {
		if err := op(); err != nil {
			return nil, err
		}
		events := observeAll()
		benignEvents += len(events)
		benignAlerts += len(monitor.Filter(events, monitor.Alert))
		warnings += len(monitor.Filter(events, monitor.Warning))
	}

	// The attack round: Sprint surgically whacks Continental's /20 ROA.
	planner := &core.Planner{Manipulator: sprint}
	plan, err := planner.Plan(core.Target{Holder: continental, Name: "cont-20"})
	if err != nil {
		return nil, err
	}
	if err := planner.Execute(plan); err != nil {
		return nil, err
	}
	attackEvents := observeAll()
	attackAlerts := len(monitor.Filter(attackEvents, monitor.Alert))

	var sb strings.Builder
	fmt.Fprintf(&sb, "benign churn rounds: %d events, %d alerts (false positives), %d warnings\n",
		benignEvents, benignAlerts, warnings)
	fmt.Fprintf(&sb, "attack round:        %d events, %d alerts\n", len(attackEvents), attackAlerts)
	for _, e := range monitor.Filter(attackEvents, monitor.Alert) {
		fmt.Fprintf(&sb, "  %v\n", e)
	}
	r.Text = sb.String()
	r.metric("benign_alerts", float64(benignAlerts))
	r.metric("attack_alerts", float64(attackAlerts))
	r.check("no_false_alerts_on_churn", benignAlerts == 0,
		"key rollovers and issuance look like routine overwrites/additions")
	r.check("attack_detected", attackAlerts > 0,
		"the RC shrink fingerprint fires")
	return r, nil
}
