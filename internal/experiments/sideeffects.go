package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/monitor"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rp"
)

// SideEffects12 contrasts transparent revocation (Side Effect 1) with
// stealthy deletion (Side Effect 2) through a monitor's eyes.
func SideEffects12() (*Result, error) {
	r := &Result{ID: "se12", Title: "Unilateral reclamation vs. stealthy revocation (Side Effects 1–2)"}

	// Transparent: revoke ETB's RC.
	w1, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	watcher1 := monitor.NewWatcher()
	watcher1.Observe("sprint", w1.Stores["sprint"].Snapshot())
	if err := w1.MustAuthority("sprint").RevokeChild("etb"); err != nil {
		return nil, err
	}
	revEvents := watcher1.Observe("sprint", w1.Stores["sprint"].Snapshot())

	// Stealthy: delete ETB's RC without revoking.
	w2, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	watcher2 := monitor.NewWatcher()
	watcher2.Observe("sprint", w2.Stores["sprint"].Snapshot())
	if err := w2.MustAuthority("sprint").DeleteChildCert("etb"); err != nil {
		return nil, err
	}
	delEvents := watcher2.Observe("sprint", w2.Stores["sprint"].Snapshot())

	// Both reclaim the space: ETB's ROA is gone from the validated cache.
	res1, err := syncWorld(w1)
	if err != nil {
		return nil, err
	}
	res2, err := syncWorld(w2)
	if err != nil {
		return nil, err
	}
	etbRoute := rov.Route{Prefix: ipres.MustParsePrefix("63.161.0.0/16"), Origin: 19429}

	var sb strings.Builder
	sb.WriteString("revocation (Side Effect 1):\n")
	for _, e := range revEvents {
		fmt.Fprintf(&sb, "  %v\n", e)
	}
	sb.WriteString("stealthy deletion (Side Effect 2):\n")
	for _, e := range delEvents {
		fmt.Fprintf(&sb, "  %v\n", e)
	}
	r.Text = sb.String()

	revHasCRL := false
	for _, e := range revEvents {
		if e.Kind == monitor.EventRevocation {
			revHasCRL = true
		}
	}
	delStealthy := false
	for _, e := range delEvents {
		if e.Kind == monitor.EventStealthyDelete {
			delStealthy = true
		}
	}
	r.metric("revocation_events", float64(len(revEvents)))
	r.metric("deletion_events", float64(len(delEvents)))
	r.check("both_reclaim_space",
		res1.Index().State(etbRoute) != rov.Valid && res2.Index().State(etbRoute) != rov.Valid,
		"ETB's route loses its valid ROA either way")
	r.check("revocation_is_on_the_crl", revHasCRL, "relying parties could detect and react")
	r.check("deletion_leaves_no_crl_trace", delStealthy,
		"only the object's absence is observable — 'less transparent'")
	return r, nil
}

// SideEffects34 quantifies targeted whacking: the blunt revocation baseline
// against the surgical shrink (grandchild, Side Effect 3) and the deep
// whack (beyond grandchildren, Side Effect 4).
func SideEffects34() (*Result, error) {
	r := &Result{ID: "se34", Title: "Targeted whacking of distant descendants (Side Effects 3–4)"}

	build := func() (*modelgen.World, *core.Planner, error) {
		w, err := modelgen.Figure2(Clock, false)
		if err != nil {
			return nil, nil, err
		}
		return w, &core.Planner{Manipulator: w.MustAuthority("sprint")}, nil
	}

	// Baseline: revoke Continental's RC to kill one ROA.
	w, planner, err := build()
	if err != nil {
		return nil, err
	}
	blunt, err := planner.PlanRevokeSubtree(core.Target{Holder: w.MustAuthority("continental"), Name: "cont-20"})
	if err != nil {
		return nil, err
	}

	// Side Effect 3: clean shrink of the same target.
	w3, planner3, err := build()
	if err != nil {
		return nil, err
	}
	surgical, err := planner3.Plan(core.Target{Holder: w3.MustAuthority("continental"), Name: "cont-20"})
	if err != nil {
		return nil, err
	}
	if err := planner3.Execute(surgical); err != nil {
		return nil, err
	}
	res3, err := syncWorld(w3)
	if err != nil {
		return nil, err
	}

	// Side Effect 4: a great-grandchild target.
	w4, planner4, err := build()
	if err != nil {
		return nil, err
	}
	smallStore := repo.NewStore()
	w4.Stores["smallco"] = smallStore
	small, err := w4.MustAuthority("continental").CreateChild("smallco",
		ipres.MustParseSet("63.174.18.0/23"), smallStore,
		repo.URI{Host: "smallco.example:8873", Module: "smallco"})
	if err != nil {
		return nil, err
	}
	if _, err := small.IssueROA("small-a", 64501, roa.MustParsePrefix("63.174.18.0/24")); err != nil {
		return nil, err
	}
	if _, err := small.IssueROA("small-b", 64502, roa.MustParsePrefix("63.174.19.0/24")); err != nil {
		return nil, err
	}
	deep, err := planner4.Plan(core.Target{Holder: small, Name: "small-a"})
	if err != nil {
		return nil, err
	}
	if err := planner4.Execute(deep); err != nil {
		return nil, err
	}
	res4, err := syncWorld(w4)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-18s %10s %10s %6s\n", "plan", "method", "collateral", "reissued", "CRL")
	row := func(name string, p *core.Plan) {
		fmt.Fprintf(&sb, "%-22s %-18s %10d %10d %6v\n", name, p.Method, len(p.Collateral), len(p.Reissued), p.CRLVisible)
	}
	row("revoke-subtree", blunt)
	row("grandchild-shrink", surgical)
	row("great-grandchild", deep)
	r.Text = sb.String()

	r.metric("blunt_collateral", float64(len(blunt.Collateral)))
	r.metric("surgical_collateral", float64(len(surgical.Collateral)))
	r.metric("surgical_detectability", float64(surgical.Detectability()))
	r.metric("deep_detectability", float64(deep.Detectability()))

	r.check("blunt_whacks_four_extra_roas", len(blunt.Collateral) == 4,
		"the paper: 'this would whack four additional ROAs as collateral damage' — got %d", len(blunt.Collateral))
	r.check("surgical_has_zero_collateral", len(surgical.Collateral) == 0 && surgical.Detectability() == 0,
		"fine-grained control without collateral damage")
	r.check("surgical_hole_is_the_papers", surgical.Hole.String() == "63.174.24.0/24",
		"the planner finds the paper's exact hole: %v", surgical.Hole)
	r.check("deep_needs_more_suspicious_objects", deep.Detectability() > surgical.Detectability(),
		"deep %d vs grandchild %d — 'requires more suspiciously-reissued objects'",
		deep.Detectability(), surgical.Detectability())
	r.check("surgical_target_whacked",
		res3.Index().State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054}) != rov.Valid,
		"target gone after shrink")
	r.check("deep_sibling_survives",
		res4.Index().State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.19.0/24"), Origin: 64502}) == rov.Valid,
		"small-b still valid after the deep whack")
	return r, nil
}

// SideEffect6 shows a missing ROA flipping a route to invalid (not
// unknown) and the resulting loss of connectivity under drop-invalid.
func SideEffect6() (*Result, error) {
	r := &Result{ID: "se6", Title: "A missing ROA can cause a route to become invalid (Side Effect 6)"}
	w, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	target := rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/22"), Origin: 7341}
	outside := rov.Route{Prefix: ipres.MustParsePrefix("63.163.0.0/16"), Origin: 7018}

	before, err := syncWorld(w)
	if err != nil {
		return nil, err
	}
	// The ROA goes missing from the relying party's cache: here, the
	// authority's repository loses it (a fault, a delayed renewal, a
	// stealthy delete — the cache cannot tell).
	if err := w.MustAuthority("continental").DeleteROA("cont-22"); err != nil {
		return nil, err
	}
	after, err := syncWorld(w)
	if err != nil {
		return nil, err
	}

	beforeIx, afterIx := before.Index(), after.Index()
	targetAfter := afterIx.State(target)

	var sb strings.Builder
	fmt.Fprintf(&sb, "route %v: %v → %v (covering /20 ROA remains)\n",
		target, beforeIx.State(target), targetAfter)
	fmt.Fprintf(&sb, "route %v: %v → %v (never had a covering ROA)\n",
		outside, beforeIx.State(outside), afterIx.State(outside))
	r.Text = sb.String()

	r.check("missing_roa_invalid_not_unknown",
		targetAfter == rov.Invalid,
		"unlike DNSSEC or the web PKI, absence ⇒ invalid when covered: %v", targetAfter)
	r.check("uncovered_stays_unknown",
		afterIx.State(outside) == rov.Unknown,
		"absence without coverage is merely unknown")
	return r, nil
}

// SideEffect7 runs the transient-fault-to-persistent-failure timeline on
// the full Figure 1 loop.
func SideEffect7() (*Result, error) {
	r := &Result{ID: "se7", Title: "Transient faults cause long-term failures (Side Effect 7)"}
	w, err := modelgen.Figure2(Clock, true)
	if err != nil {
		return nil, err
	}
	n := bgp.NewNetwork()
	const (
		rpAS       = ipres.ASN(64999)
		providerAS = ipres.ASN(3356)
		contAS     = ipres.ASN(17054)
	)
	for _, asn := range []ipres.ASN{rpAS, providerAS, contAS} {
		n.AddAS(asn, bgp.PolicyDropInvalid)
	}
	steps := []error{
		n.ProviderOf(providerAS, rpAS),
		n.ProviderOf(providerAS, contAS),
		n.Originate(contAS, ipres.MustParsePrefix("63.174.16.0/20")),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	corrupting := core.NewCorruptingFetcher(w.Stores)
	sim := &core.CircularSim{
		Anchors: []rp.TrustAnchor{w.Anchor()},
		Fetch:   corrupting,
		Sites: map[string]core.RepoSite{
			"continental": {
				Module:      "continental",
				Addr:        ipres.MustParseAddr("63.174.23.0"),
				RoutePrefix: ipres.MustParsePrefix("63.174.16.0/20"),
				OriginAS:    contAS,
			},
		},
		Network: n,
		RPAS:    rpAS,
		Clock:   Clock,
	}

	// The circular dependency is statically detectable.
	cont20, _ := w.MustAuthority("continental").ROA("cont-20")
	cycles := core.FindCircularDependencies(sim.Sites, map[string][]rov.VRP{
		"continental": rov.FromROA(cont20),
	})

	ctx := context.Background()
	var timeline []string
	record := func(phase string) error {
		rep, err := sim.Step(ctx)
		if err != nil {
			return err
		}
		s, _ := sim.RouteState("continental")
		timeline = append(timeline, fmt.Sprintf("%-28s route=%v unreachable=%v vrps=%d",
			phase, s, rep.Unreachable, rep.VRPCount))
		return nil
	}
	if err := record("t0 bootstrap"); err != nil {
		return nil, err
	}
	corrupting.Corrupt("continental", "cont-20.roa")
	if err := record("t1 transient corruption"); err != nil {
		return nil, err
	}
	corrupting.Heal("continental")
	if err := record("t2 fault fixed"); err != nil {
		return nil, err
	}
	if err := record("t3 still broken"); err != nil {
		return nil, err
	}
	stuckState, _ := sim.RouteState("continental")
	sim.ManualOverride("continental", true)
	if err := record("t4 manual intervention"); err != nil {
		return nil, err
	}
	finalState, _ := sim.RouteState("continental")

	var sb strings.Builder
	fmt.Fprintf(&sb, "circular dependencies detected: %v\n\n", cycles)
	for _, line := range timeline {
		sb.WriteString(line + "\n")
	}
	r.Text = sb.String()

	r.metric("cycles_found", float64(len(cycles)))
	r.check("self_loop_detected", len(cycles) == 1 && len(cycles[0]) == 1,
		"the repository hosts the ROA for its own route: %v", cycles)
	r.check("fault_persists_after_fix", stuckState == rov.Invalid,
		"route still invalid two steps after the repository recovered")
	r.check("manual_fix_recovers", finalState == rov.Valid,
		"only out-of-band intervention breaks the cycle")
	return r, nil
}

// Figure1 narrates the dependency loop by exercising each edge once.
func Figure1() (*Result, error) {
	r := &Result{ID: "figure1", Title: "Dependencies: RPKI → route validity → BGP → RPKI (Figure 1)"}
	w, err := modelgen.Figure2(Clock, true)
	if err != nil {
		return nil, err
	}
	res, err := syncWorld(w)
	if err != nil {
		return nil, err
	}
	ix := res.Index()
	route := rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054}

	n := bgp.NewNetwork()
	n.AddAS(1, bgp.PolicyDropInvalid)
	n.AddAS(17054, bgp.PolicyDropInvalid)
	if err := n.ProviderOf(1, 17054); err != nil {
		return nil, err
	}
	if err := n.Originate(17054, route.Prefix); err != nil {
		return nil, err
	}
	n.SetSharedIndex(ix)
	withROA, err := n.CanReach(1, ipres.MustParseAddr("63.174.23.0"), 17054)
	if err != nil {
		return nil, err
	}

	// Whack the ROA: validity flips, BGP selection flips, and the RPKI
	// repository hosted on that prefix becomes unreachable.
	if err := w.MustAuthority("continental").DeleteROA("cont-20"); err != nil {
		return nil, err
	}
	res2, err := syncWorld(w)
	if err != nil {
		return nil, err
	}
	ix2 := res2.Index()
	n.SetSharedIndex(ix2)
	withoutROA, err := n.CanReach(1, ipres.MustParseAddr("63.174.23.0"), 17054)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "edge 1 (RPKI → validity):  ROA present: %v = %v;  ROA whacked: %v\n",
		route, ix.State(route), ix2.State(route))
	fmt.Fprintf(&sb, "edge 2 (validity → BGP):   reachable with ROA: %v;  without: %v\n", withROA, withoutROA)
	fmt.Fprintf(&sb, "edge 3 (BGP → RPKI):       the repository at 63.174.23.0 serves the RPKI itself —\n")
	fmt.Fprintf(&sb, "                           losing the route means losing future RPKI updates (see se7)\n")
	r.Text = sb.String()
	r.check("validity_flips", ix.State(route) == rov.Valid && ix2.State(route) == rov.Invalid,
		"valid → invalid when the ROA is whacked (covering /12-13 ROA remains)")
	r.check("reachability_flips", withROA && !withoutROA,
		"drop-invalid turns the validity flip into an outage")
	return r, nil
}
