package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rp"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

func clock() time.Time { return testEpoch }

type fixture struct {
	arin, sprint, etb, continental *ca.Authority
	stores                         rp.StoreFetcher
}

// newFigure2 builds the paper's model RPKI (Figure 2) with Sprint's
// covering ROA from Figure 5 (right) included when withSprintCover is set.
func newFigure2(t *testing.T, withSprintCover bool) *fixture {
	t.Helper()
	cfg := ca.Config{Clock: clock}
	f := &fixture{stores: rp.StoreFetcher{}}
	newStore := func(module string) (*repo.Store, repo.URI) {
		s := repo.NewStore()
		f.stores[module] = s
		return s, repo.URI{Host: module + ".example:8873", Module: module}
	}
	var err error
	taStore, taURI := newStore("arin")
	f.arin, err = ca.NewTrustAnchor("arin", ipres.MustParseSet("63.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sprintStore, sprintURI := newStore("sprint")
	f.sprint, err = f.arin.CreateChild("sprint", ipres.MustParseSet("63.160.0.0/12"), sprintStore, sprintURI)
	if err != nil {
		t.Fatal(err)
	}
	etbStore, etbURI := newStore("etb")
	f.etb, err = f.sprint.CreateChild("etb", ipres.MustParseSet("63.161.0.0/16"), etbStore, etbURI)
	if err != nil {
		t.Fatal(err)
	}
	contStore, contURI := newStore("continental")
	f.continental, err = f.sprint.CreateChild("continental", ipres.MustParseSet("63.174.16.0/20"), contStore, contURI)
	if err != nil {
		t.Fatal(err)
	}
	mustROA := func(a *ca.Authority, name string, asn ipres.ASN, prefix string) {
		t.Helper()
		if _, err := a.IssueROA(name, asn, roa.MustParsePrefix(prefix)); err != nil {
			t.Fatal(err)
		}
	}
	mustROA(f.sprint, "sprint-168", 1239, "63.168.0.0/16-24")
	mustROA(f.sprint, "sprint-170", 1239, "63.170.0.0/16-24")
	if withSprintCover {
		mustROA(f.sprint, "sprint-cover", 1239, "63.160.0.0/12-13")
	}
	mustROA(f.etb, "etb", 19429, "63.161.0.0/16")
	mustROA(f.continental, "cont-20", 17054, "63.174.16.0/20")
	mustROA(f.continental, "cont-22", 7341, "63.174.16.0/22")
	mustROA(f.continental, "cont-20-24", 26821, "63.174.20.0/22-24")
	mustROA(f.continental, "cont-25", 17054, "63.174.25.0/24")
	mustROA(f.continental, "cont-26", 17054, "63.174.26.0/23")
	return f
}

func (f *fixture) sync(t *testing.T) *rp.Result {
	t.Helper()
	relying := rp.New(rp.Config{Fetcher: f.stores, Clock: clock},
		rp.TrustAnchor{CertDER: f.arin.Cert.Raw, URI: f.arin.URI})
	result, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return result
}

func state(t *testing.T, res *rp.Result, prefix string, asn ipres.ASN) rov.State {
	t.Helper()
	return res.Index().State(rov.Route{Prefix: ipres.MustParsePrefix(prefix), Origin: asn})
}

func TestPlanDeleteOwnROA(t *testing.T) {
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.sprint}
	plan, err := planner.Plan(Target{Holder: f.sprint, Name: "sprint-168"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodDelete || plan.Depth != 0 || plan.Detectability() != 0 {
		t.Fatalf("plan = %v", plan)
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	res := f.sync(t)
	if got := state(t, res, "63.168.0.0/16", 1239); got == rov.Valid {
		t.Errorf("deleted ROA's route still valid")
	}
	if res.Incomplete() {
		t.Errorf("stealthy delete must leave no diagnostics: %v", res.Diagnostics)
	}
}

func TestPlanCleanShrinkFindsPaperHole(t *testing.T) {
	// Sprint whacks (63.174.16.0/20, AS17054). The minimal free hole the
	// planner finds must be 63.174.24.0/24 — the exact hole from the
	// paper's Section 3.1 example.
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.sprint}
	plan, err := planner.Plan(Target{Holder: f.continental, Name: "cont-20"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodShrink {
		t.Fatalf("method = %v, want shrink; plan:\n%v", plan.Method, plan)
	}
	if plan.Hole.String() != "63.174.24.0/24" {
		t.Errorf("hole = %v, want 63.174.24.0/24", plan.Hole)
	}
	if plan.Detectability() != 0 || len(plan.Collateral) != 0 {
		t.Errorf("clean shrink should have zero footprint: %v", plan)
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	res := f.sync(t)
	if got := state(t, res, "63.174.16.0/20", 17054); got == rov.Valid {
		t.Error("target should be whacked")
	}
	// Zero collateral: every other ROA still valid.
	for _, probe := range []struct {
		prefix string
		asn    ipres.ASN
	}{
		{"63.174.16.0/22", 7341},
		{"63.174.21.0/24", 26821},
		{"63.174.25.0/24", 17054},
		{"63.174.26.0/23", 17054},
		{"63.161.0.0/16", 19429},
		{"63.168.0.0/16", 1239},
	} {
		if got := state(t, res, probe.prefix, probe.asn); got != rov.Valid {
			t.Errorf("collateral damage: (%s, %v) = %v", probe.prefix, probe.asn, got)
		}
	}
}

func TestPlanMakeBeforeBreakFigure3(t *testing.T) {
	// Sprint whacks (63.174.16.0/22, AS7341). No free hole exists (the
	// /20 ROA covers everything), so the plan must reissue the damaged
	// /20 ROA first — Figure 3.
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.sprint}
	plan, err := planner.Plan(Target{Holder: f.continental, Name: "cont-22"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodMakeBeforeBreak {
		t.Fatalf("method = %v, want make-before-break; plan:\n%v", plan.Method, plan)
	}
	if plan.Detectability() == 0 {
		t.Error("make-before-break must be detectable (reissued objects)")
	}
	// The reissue step must come before the shrink step.
	if plan.Steps[len(plan.Steps)-1].Kind != StepShrinkChild {
		t.Error("shrink must be the final (break) step")
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	res := f.sync(t)
	if got := state(t, res, "63.174.16.0/22", 7341); got != rov.Invalid {
		t.Errorf("target = %v, want invalid (covered by the reissued /20)", got)
	}
	// The /20 route survives via Sprint's reissued ROA.
	if got := state(t, res, "63.174.16.0/20", 17054); got != rov.Valid {
		t.Errorf("reissued /20 should keep the route valid, got %v", got)
	}
	// Off-hole ROAs untouched.
	if got := state(t, res, "63.174.25.0/24", 17054); got != rov.Valid {
		t.Errorf("collateral damage on /24: %v", got)
	}
}

func TestPlanDeepWhackGreatGrandchild(t *testing.T) {
	f := newFigure2(t, false)
	// Continental suballocates to smallco — a great-grandchild of ARIN,
	// grandchild of Sprint... and Sprint's target sits at depth 2.
	smallStore := repo.NewStore()
	f.stores["smallco"] = smallStore
	smallco, err := f.continental.CreateChild("smallco", ipres.MustParseSet("63.174.18.0/23"),
		smallStore, repo.URI{Host: "smallco.example:8873", Module: "smallco"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smallco.IssueROA("small-a", 64501, roa.MustParsePrefix("63.174.18.0/24")); err != nil {
		t.Fatal(err)
	}
	if _, err := smallco.IssueROA("small-b", 64502, roa.MustParsePrefix("63.174.19.0/24")); err != nil {
		t.Fatal(err)
	}

	planner := &Planner{Manipulator: f.sprint}
	plan, err := planner.Plan(Target{Holder: smallco, Name: "small-a"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodDeepWhack || plan.Depth != 2 {
		t.Fatalf("plan = %v", plan)
	}
	// Deep whacks need more suspicious objects than grandchild whacks:
	// at least the replacement RC for smallco, plus reissues for the
	// overlapping /20 and /22 ROAs at the continental level.
	if plan.Detectability() < 2 {
		t.Errorf("deep whack detectability = %d, want >= 2;\n%v", plan.Detectability(), plan)
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	res := f.sync(t)
	if got := state(t, res, "63.174.18.0/24", 64501); got == rov.Valid {
		t.Error("deep target should be whacked")
	}
	// Sibling at the same level survives (reissued or untouched).
	if got := state(t, res, "63.174.19.0/24", 64502); got != rov.Valid {
		t.Errorf("sibling small-b = %v, want valid", got)
	}
	// Continental's own ROAs survive (reissued where needed).
	for _, probe := range []struct {
		prefix string
		asn    ipres.ASN
	}{
		{"63.174.16.0/20", 17054},
		{"63.174.25.0/24", 17054},
	} {
		if got := state(t, res, probe.prefix, probe.asn); got != rov.Valid {
			t.Errorf("(%s, %v) = %v, want valid", probe.prefix, probe.asn, got)
		}
	}
}

func TestPlanRevokeSubtreeCollateral(t *testing.T) {
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.sprint}
	plan, err := planner.PlanRevokeSubtree(Target{Holder: f.continental, Name: "cont-20"})
	if err != nil {
		t.Fatal(err)
	}
	// "this would whack four additional ROAs as collateral damage"
	if len(plan.Collateral) != 4 {
		t.Errorf("collateral = %d ROAs, want 4 (the paper's count)", len(plan.Collateral))
	}
	if !plan.CRLVisible {
		t.Error("revocation must be CRL-visible")
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	res := f.sync(t)
	for _, probe := range []struct {
		prefix string
		asn    ipres.ASN
	}{
		{"63.174.16.0/20", 17054},
		{"63.174.16.0/22", 7341},
		{"63.174.25.0/24", 17054},
	} {
		if got := state(t, res, probe.prefix, probe.asn); got == rov.Valid {
			t.Errorf("(%s, %v) should be whacked with the subtree", probe.prefix, probe.asn)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.continental}
	// Continental is NOT an ancestor of sprint.
	if _, err := planner.Plan(Target{Holder: f.sprint, Name: "sprint-168"}); err == nil {
		t.Error("non-ancestor must fail")
	}
	if _, err := planner.Plan(Target{Holder: f.sprint, Name: "no-such"}); err == nil {
		t.Error("unknown ROA must fail")
	}
}

func TestFindCircularDependencies(t *testing.T) {
	sites := map[string]RepoSite{
		"continental": {
			Module:      "continental",
			Addr:        ipres.MustParseAddr("63.174.23.10"),
			RoutePrefix: ipres.MustParsePrefix("63.174.16.0/20"),
			OriginAS:    17054,
		},
		"sprint": {
			Module:      "sprint",
			Addr:        ipres.MustParseAddr("63.168.0.10"),
			RoutePrefix: ipres.MustParsePrefix("63.168.0.0/16"),
			OriginAS:    1239,
		},
	}
	vrps := map[string][]rov.VRP{
		"continental": {{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), MaxLength: 20, ASN: 17054}},
		"sprint":      {{Prefix: ipres.MustParsePrefix("63.168.0.0/16"), MaxLength: 24, ASN: 1239}},
	}
	cycles := FindCircularDependencies(sites, vrps)
	// Both repos host their own matching ROA: two self-loops.
	if len(cycles) != 2 {
		t.Fatalf("cycles = %v", cycles)
	}
	for _, c := range cycles {
		if len(c) != 1 {
			t.Errorf("expected self-loop, got %v", c)
		}
	}
	// Cross-cycle: A's ROA in B and B's ROA in A.
	vrps2 := map[string][]rov.VRP{
		"continental": vrps["sprint"],
		"sprint":      vrps["continental"],
	}
	cycles = FindCircularDependencies(sites, vrps2)
	if len(cycles) != 1 || len(cycles[0]) != 2 {
		t.Errorf("want one 2-cycle, got %v", cycles)
	}
}

// buildCircularWorld wires the Figure 2 hierarchy (with Sprint's covering
// ROA) into a BGP topology where Continental self-hosts its repository at
// 63.174.23.0 — the paper's Side Effect 7 configuration.
func buildCircularWorld(t *testing.T) (*fixture, *CircularSim) {
	t.Helper()
	f := newFigure2(t, true)

	n := bgp.NewNetwork()
	const (
		rpAS       = ipres.ASN(64999)
		providerAS = ipres.ASN(3356)
		contAS     = ipres.ASN(17054)
	)
	for _, asn := range []ipres.ASN{rpAS, providerAS, contAS} {
		n.AddAS(asn, bgp.PolicyDropInvalid)
	}
	if err := n.ProviderOf(providerAS, rpAS); err != nil {
		t.Fatal(err)
	}
	if err := n.ProviderOf(providerAS, contAS); err != nil {
		t.Fatal(err)
	}
	if err := n.Originate(contAS, ipres.MustParsePrefix("63.174.16.0/20")); err != nil {
		t.Fatal(err)
	}

	sim := &CircularSim{
		Anchors: []rp.TrustAnchor{{CertDER: f.arin.Cert.Raw, URI: f.arin.URI}},
		Stores:  f.stores,
		Sites: map[string]RepoSite{
			"continental": {
				Module:      "continental",
				Addr:        ipres.MustParseAddr("63.174.23.0"),
				RoutePrefix: ipres.MustParsePrefix("63.174.16.0/20"),
				OriginAS:    contAS,
			},
		},
		Network: n,
		RPAS:    rpAS,
		Clock:   clock,
	}
	t.Cleanup(func() { _ = sim.Close() })
	return f, sim
}

func TestSideEffect7TransientFaultPersists(t *testing.T) {
	_, sim := buildCircularWorld(t)
	ctx := context.Background()

	// Step 1: bootstrap — everything reachable, full cache.
	rep, err := sim.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("bootstrap unreachable: %v", rep.Unreachable)
	}
	s, _ := sim.RouteState("continental")
	if s != rov.Valid {
		t.Fatalf("repo route should start valid, got %v", s)
	}

	// Step 2: transient fault — the ROA for the repo's own route arrives
	// corrupted. The corrupted ROA is a missing ROA (Side Effect 6).
	sim.Faults("continental").Corrupt("cont-20.roa")
	if _, err := sim.Step(ctx); err != nil {
		t.Fatal(err)
	}
	s, _ = sim.RouteState("continental")
	if s != rov.Invalid {
		t.Fatalf("after corruption, route = %v, want invalid (covered by Sprint's /12-13 ROA)", s)
	}

	// Step 3: the fault is FIXED — but the relying party can no longer
	// reach the repository to learn that. The failure persists.
	sim.Faults("continental").Restore("")
	rep, err = sim.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != "continental" {
		t.Fatalf("repo should be unreachable, got %v", rep.Unreachable)
	}
	s, _ = sim.RouteState("continental")
	if s != rov.Invalid {
		t.Fatalf("persistent failure expected, route = %v", s)
	}

	// Step 4: still stuck — the circularity does not self-heal.
	rep, _ = sim.Step(ctx)
	if len(rep.Unreachable) != 1 {
		t.Fatal("failure should persist indefinitely")
	}

	// Step 5: manual operator intervention breaks the cycle.
	sim.ManualOverride("continental", true)
	rep, err = sim.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("override should restore fetching, got %v", rep.Unreachable)
	}
	s, _ = sim.RouteState("continental")
	if s != rov.Valid {
		t.Fatalf("after manual fix, route = %v, want valid", s)
	}

	// Step 6: the override can be removed; the system is self-consistent
	// again.
	sim.ManualOverride("continental", false)
	rep, _ = sim.Step(ctx)
	if len(rep.Unreachable) != 0 {
		t.Error("recovered system should stay recovered")
	}
}

func TestSideEffect7DeprefAvoidsPersistence(t *testing.T) {
	// The same fault under depref-invalid routers: the repository stays
	// reachable (invalid routes are still usable), so the fault heals on
	// the next sync — the other side of the paper's Table 6 tradeoff.
	_, sim := buildCircularWorld(t)
	for _, asn := range sim.Network.ASes() {
		if err := sim.Network.SetPolicy(asn, bgp.PolicyDeprefInvalid); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := sim.Step(ctx); err != nil {
		t.Fatal(err)
	}
	sim.Faults("continental").Corrupt("cont-20.roa")
	if _, err := sim.Step(ctx); err != nil {
		t.Fatal(err)
	}
	s, _ := sim.RouteState("continental")
	if s != rov.Invalid {
		t.Fatalf("route should be invalid after fault, got %v", s)
	}
	sim.Faults("continental").Restore("")
	rep, err := sim.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("depref keeps the repo reachable, got unreachable=%v", rep.Unreachable)
	}
	s, _ = sim.RouteState("continental")
	if s != rov.Valid {
		t.Fatalf("fault should self-heal under depref, route = %v", s)
	}
}

func TestPlanAndStepStrings(t *testing.T) {
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.sprint}
	plan, err := planner.Plan(Target{Holder: f.continental, Name: "cont-22"})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, want := range []string{"make-before-break", "sprint whacks continental", "step 1", "reissue-roa"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan string missing %q:\n%s", want, out)
		}
	}
	for _, m := range []Method{MethodDelete, MethodRevokeOwnROA, MethodRevokeSubtree, MethodShrink, MethodMakeBeforeBreak, MethodDeepWhack} {
		if m.String() == "" || strings.Contains(m.String(), "Method(") {
			t.Errorf("method %d has bad string %q", m, m.String())
		}
	}
	for _, k := range []StepKind{StepDeleteROA, StepRevokeROA, StepRevokeChild, StepReissueROA, StepReplacementRC, StepShrinkChild} {
		if k.String() == "" || strings.Contains(k.String(), "StepKind(") {
			t.Errorf("step kind %d has bad string %q", k, k.String())
		}
	}
}

func TestCollateralOfHole(t *testing.T) {
	f := newFigure2(t, false)
	target := Target{Holder: f.continental, Name: "cont-22"}
	hole := ipres.MustParseSet("63.174.16.0/22")
	collateral := CollateralOfHole(f.continental, hole, target)
	// Only cont-20 (the /20 ROA) overlaps the /22 hole besides the target.
	if len(collateral) != 1 || collateral[0].Name != "cont-20" {
		t.Errorf("collateral = %v", collateral)
	}
	// The paper's clean hole damages nothing.
	clean := CollateralOfHole(f.continental, ipres.MustParseSet("63.174.24.0/24"),
		Target{Holder: f.continental, Name: "cont-20"})
	if len(clean) != 0 {
		t.Errorf("clean hole collateral = %v", clean)
	}
}

func TestCircularSimDrop(t *testing.T) {
	// An object withheld by the served repository reaches the relying party
	// as a missing object, and Restore brings it back.
	_, sim := buildCircularWorld(t)
	ctx := context.Background()
	sim.Faults("continental").Drop("cont-22.roa")
	rep, err := sim.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	missing := false
	for _, d := range rep.Diagnostics {
		if d.Kind == rp.DiagMissingObject && d.Module == "continental" && d.Object == "cont-22.roa" {
			missing = true
		}
	}
	if !missing {
		t.Fatalf("dropped object should be diagnosed missing, got %v", rep.Diagnostics)
	}
	sim.Faults("continental").Restore("")
	rep, err = sim.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("restored object should return, got %v", rep.Diagnostics)
	}
}

func TestCircularSimVRPsAccessorAndErrors(t *testing.T) {
	_, sim := buildCircularWorld(t)
	if _, err := sim.RouteState("nope"); err == nil {
		t.Error("unknown module must error")
	}
	if _, err := sim.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sim.VRPs()) == 0 {
		t.Error("VRPs accessor empty after sync")
	}
}

func TestExecuteUnknownStep(t *testing.T) {
	f := newFigure2(t, false)
	planner := &Planner{Manipulator: f.sprint}
	bad := &Plan{Steps: []Step{{Kind: StepKind(99)}}}
	if err := planner.Execute(bad); err == nil {
		t.Error("unknown step kind must fail")
	}
	// Executing against missing objects fails cleanly.
	bad2 := &Plan{Steps: []Step{{Kind: StepDeleteROA, Subject: "ghost"}}}
	if err := planner.Execute(bad2); err == nil {
		t.Error("missing subject must fail")
	}
}

func TestPlanDeepWhackDepthThree(t *testing.T) {
	// The technical-report generalization: the target sits THREE RC hops
	// below the manipulator (ARIN whacks a ROA issued by smallco, a child
	// of continental, a grandchild of sprint). Every path RC below the
	// direct child needs a replacement, so detectability grows with depth.
	f := newFigure2(t, false)
	smallStore := repo.NewStore()
	f.stores["smallco"] = smallStore
	smallco, err := f.continental.CreateChild("smallco", ipres.MustParseSet("63.174.18.0/23"),
		smallStore, repo.URI{Host: "smallco.example:8873", Module: "smallco"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smallco.IssueROA("small-a", 64501, roa.MustParsePrefix("63.174.18.0/24")); err != nil {
		t.Fatal(err)
	}
	if _, err := smallco.IssueROA("small-b", 64502, roa.MustParsePrefix("63.174.19.0/24")); err != nil {
		t.Fatal(err)
	}

	// Depth 2 plan (sprint) for comparison.
	sprintPlan, err := (&Planner{Manipulator: f.sprint}).Plan(Target{Holder: smallco, Name: "small-a"})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 3 plan (arin).
	planner := &Planner{Manipulator: f.arin}
	plan, err := planner.Plan(Target{Holder: smallco, Name: "small-a"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodDeepWhack || plan.Depth != 3 {
		t.Fatalf("plan = %v", plan)
	}
	if plan.Detectability() <= sprintPlan.Detectability() {
		t.Errorf("depth-3 detectability %d should exceed depth-2's %d",
			plan.Detectability(), sprintPlan.Detectability())
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	res := f.sync(t)
	if got := state(t, res, "63.174.18.0/24", 64501); got == rov.Valid {
		t.Error("depth-3 target should be whacked")
	}
	if got := state(t, res, "63.174.19.0/24", 64502); got != rov.Valid {
		t.Errorf("sibling = %v, want valid", got)
	}
	// ETB (off-path under sprint) is untouched.
	if got := state(t, res, "63.161.0.0/16", 19429); got != rov.Valid {
		t.Errorf("ETB = %v, want valid", got)
	}
}

func TestCircularSimLKGBreaksFaultLatch(t *testing.T) {
	// The Side Effect 7 timeline again, but the relying party keeps
	// last-known-good snapshots: when the healed repository is gated off by
	// its own invalid route, the stale snapshot revalidates the route and
	// the loop self-heals — no manual override needed.
	_, sim := buildCircularWorld(t)
	step := 0
	sim.Clock = func() time.Time { return testEpoch.Add(time.Duration(step) * 10 * time.Minute) }
	sim.StaleTTL = time.Hour
	ctx := context.Background()
	advance := func() *StepReport {
		t.Helper()
		rep, err := sim.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		step++
		return rep
	}

	advance() // bootstrap: clean snapshot committed
	sim.Faults("continental").Corrupt("cont-20.roa")
	advance()
	if s, _ := sim.RouteState("continental"); s != rov.Invalid {
		t.Fatalf("after corruption, route = %v, want invalid", s)
	}

	// Fault fixed, repository unreachable — LKG bridges the gap with the
	// PRE-corruption snapshot (the dirty sync never overwrote it).
	sim.Faults("continental").Restore("")
	rep := advance()
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != "continental" {
		t.Fatalf("repo should be unreachable this step, got %v", rep.Unreachable)
	}
	if rep.StaleFallbacks != 1 {
		t.Fatalf("StaleFallbacks = %d, want 1 (diags %v)", rep.StaleFallbacks, rep.Diagnostics)
	}
	if s, _ := sim.RouteState("continental"); s != rov.Valid {
		t.Fatalf("LKG should revalidate the route, got %v", s)
	}

	// With the route valid again the repository is reachable: the next sync
	// fetches fresh data and the system is fully recovered.
	rep = advance()
	if len(rep.Unreachable) != 0 || rep.StaleFallbacks != 0 {
		t.Fatalf("recovered step: unreachable=%v fallbacks=%d", rep.Unreachable, rep.StaleFallbacks)
	}
	if s, _ := sim.RouteState("continental"); s != rov.Valid {
		t.Fatalf("recovery should hold, got %v", s)
	}
}

func TestCircularSimLKGBoundedStaleness(t *testing.T) {
	// A TTL shorter than the outage: the snapshot expires mid-latch and the
	// failure persists — bounded staleness means LKG is a bridge, not a
	// permanent override (a coerced-offline authority cannot pin the cache).
	_, sim := buildCircularWorld(t)
	step := 0
	sim.Clock = func() time.Time { return testEpoch.Add(time.Duration(step) * 10 * time.Minute) }
	sim.StaleTTL = 5 * time.Minute
	ctx := context.Background()
	advance := func() *StepReport {
		t.Helper()
		rep, err := sim.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		step++
		return rep
	}

	advance()
	sim.Faults("continental").Corrupt("cont-20.roa")
	advance()
	sim.Faults("continental").Restore("")
	rep := advance() // snapshot is 20 minutes old > 5 minute TTL
	if rep.StaleFallbacks != 0 {
		t.Fatalf("expired snapshot must not serve, fallbacks = %d", rep.StaleFallbacks)
	}
	// The point is diagnosed twice (unreachable, then snapshot expired) but
	// listed once.
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != "continental" {
		t.Fatalf("Unreachable = %v, want [continental] (diags %v)", rep.Unreachable, rep.Diagnostics)
	}
	if s, _ := sim.RouteState("continental"); s == rov.Valid {
		t.Fatal("with an expired snapshot the latch should persist")
	}
}
