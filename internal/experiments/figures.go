package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/monitor"
	"repro/internal/rov"
	"repro/internal/rp"
)

// syncWorld runs a relying party over a world's stores.
func syncWorld(w *modelgen.World) (*rp.Result, error) {
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: Clock}, w.Anchor())
	return relying.Sync(context.Background())
}

// Figure2 reproduces the paper's model RPKI: it builds the hierarchy with
// real certificates, validates it end to end, and renders the tree.
func Figure2() (*Result, error) {
	r := &Result{ID: "figure2", Title: "Model RPKI excerpt (Figure 2)"}
	w, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	res, err := syncWorld(w)
	if err != nil {
		return nil, err
	}
	r.Text = renderTree(w, "arin", "") + "\n"
	r.metric("roas_issued", float64(w.CountROAs()))
	r.metric("roas_validated", float64(res.ROAsAccepted))
	r.metric("cas_validated", float64(res.CertsAccepted))
	r.check("all_objects_validate", !res.Incomplete(), "diagnostics: %d", len(res.Diagnostics))
	r.check("eight_roas", res.ROAsAccepted == 8, "validated %d ROAs (2 Sprint + 1 ETB + 5 Continental)", res.ROAsAccepted)
	r.check("four_authorities", res.CertsAccepted == 4, "ARIN, Sprint, ETB, Continental = %d", res.CertsAccepted)
	return r, nil
}

func renderTree(w *modelgen.World, name, indent string) string {
	a := w.MustAuthority(name)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s%s  RC %v\n", indent, a.Name, a.Resources())
	for _, roaName := range a.ROAs() {
		ro, _ := a.ROA(roaName)
		fmt.Fprintf(&sb, "%s  ROA %v\n", indent, ro)
	}
	for _, child := range a.Children() {
		sb.WriteString(renderTree(w, child, indent+"    "))
	}
	return sb.String()
}

// Figure3 reproduces the grandparent whack with make-before-break: Sprint
// targets (63.174.16.0/22, AS 7341), must first reissue the damaged /20
// ROA, then overwrites Continental Broadband's RC.
func Figure3() (*Result, error) {
	r := &Result{ID: "figure3", Title: "A ROA whacked by its grandparent (Figure 3)"}
	w, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	target := rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/22"), Origin: 7341}
	bystander := rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054}

	before, err := syncWorld(w)
	if err != nil {
		return nil, err
	}
	stateBefore := before.Index().State(target)

	watcher := monitor.NewWatcher()
	watcher.Observe("sprint", w.Stores["sprint"].Snapshot())

	planner := &core.Planner{Manipulator: w.MustAuthority("sprint")}
	plan, err := planner.Plan(core.Target{Holder: w.MustAuthority("continental"), Name: "cont-22"})
	if err != nil {
		return nil, err
	}
	if err := planner.Execute(plan); err != nil {
		return nil, err
	}
	after, err := syncWorld(w)
	if err != nil {
		return nil, err
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	alerts := monitor.Filter(events, monitor.Alert)
	afterIx := after.Index()
	targetAfter, bystanderAfter := afterIx.State(target), afterIx.State(bystander)

	var sb strings.Builder
	sb.WriteString(plan.String())
	fmt.Fprintf(&sb, "\ntarget   %v: %v → %v\n", target, stateBefore, targetAfter)
	fmt.Fprintf(&sb, "bystander %v: %v (via reissued ROA)\n", bystander, bystanderAfter)
	fmt.Fprintf(&sb, "monitor alerts: %d\n", len(alerts))
	for _, e := range alerts {
		fmt.Fprintf(&sb, "  %v\n", e)
	}
	r.Text = sb.String()
	r.metric("reissued_objects", float64(len(plan.Reissued)))
	r.metric("collateral_roas", float64(len(plan.Collateral)))
	r.metric("monitor_alerts", float64(len(alerts)))
	r.check("method_is_make_before_break", plan.Method == core.MethodMakeBeforeBreak, "method = %v", plan.Method)
	r.check("target_whacked", targetAfter == rov.Invalid, "target = %v", targetAfter)
	r.check("bystander_survives", bystanderAfter == rov.Valid, "bystander = %v", bystanderAfter)
	r.check("no_crl_trace", !plan.CRLVisible, "CRL visible = %v", plan.CRLVisible)
	r.check("detectable_by_reissue", len(alerts) > 0, "the paper: 'easier to detect, due to the suspiciously-reissued ROA'")
	return r, nil
}

// figure5Origins are the origins shown in the validity grids.
var figure5Origins = []ipres.ASN{1239, 17054, 7341, 26821}

// Figure5 computes the validity grids for 63.160.0.0/12 and its
// subprefixes, without (left) and with (right) Sprint's new ROA
// (63.160.0.0/12-13, AS1239).
func Figure5() (*Result, error) {
	r := &Result{ID: "figure5", Title: "Route validity for 63.160.0.0/12 and subprefixes (Figure 5)"}
	base := ipres.MustParsePrefix("63.160.0.0/12")

	left, err := modelgen.Figure2(Clock, false)
	if err != nil {
		return nil, err
	}
	right, err := modelgen.Figure2(Clock, true)
	if err != nil {
		return nil, err
	}
	leftRes, err := syncWorld(left)
	if err != nil {
		return nil, err
	}
	rightRes, err := syncWorld(right)
	if err != nil {
		return nil, err
	}
	leftIx, rightIx := leftRes.Index(), rightRes.Index()

	var sb strings.Builder
	sb.WriteString("LEFT (Figure 2 ROAs):\n")
	leftCells := leftIx.ValidityGrid(base, 24, figure5Origins)
	sb.WriteString(rov.FormatGrid(summarizeGrid(leftCells)))
	sb.WriteString("\nRIGHT (plus ROA (63.160.0.0/12-13, AS1239)):\n")
	rightCells := rightIx.ValidityGrid(base, 24, figure5Origins)
	sb.WriteString(rov.FormatGrid(summarizeGrid(rightCells)))
	r.Text = sb.String()

	// Count states at the /24 level for the flip metric.
	countStates := func(cells []rov.GridCell) map[rov.State]int {
		out := map[rov.State]int{}
		for _, c := range cells {
			out[c.State] += c.Count()
		}
		return out
	}
	leftCount, rightCount := countStates(leftCells), countStates(rightCells)
	r.metric("left_unknown", float64(leftCount[rov.Unknown]))
	r.metric("left_invalid", float64(leftCount[rov.Invalid]))
	r.metric("right_unknown", float64(rightCount[rov.Unknown]))
	r.metric("right_invalid", float64(rightCount[rov.Invalid]))

	// Paper-stated facts.
	r.check("left_/12_unknown",
		leftIx.State(rov.Route{Prefix: base, Origin: 1239}) == rov.Unknown &&
			leftIx.State(rov.Route{Prefix: base, Origin: 17054}) == rov.Unknown,
		"no covering ROA for the /12 on the left")
	r.check("left_63.174.17.0/24_invalid",
		leftIx.State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.17.0/24"), Origin: 17054}) == rov.Invalid,
		"covered by the /20 ROA, maxLength 20")
	r.check("right_/12_valid_for_AS1239",
		rightIx.State(rov.Route{Prefix: base, Origin: 1239}) == rov.Valid,
		"the new ROA authorizes AS1239")
	r.check("right_unknowns_become_invalid",
		rightCount[rov.Unknown] == 0 && rightCount[rov.Invalid] > leftCount[rov.Invalid],
		"unknown %d→%d, invalid %d→%d (Side Effect 5)",
		leftCount[rov.Unknown], rightCount[rov.Unknown], leftCount[rov.Invalid], rightCount[rov.Invalid])
	return r, nil
}

// summarizeGrid keeps the grid readable: only rows at depths that matter
// (the /12, /13, /16, /20, /22, /24 levels).
func summarizeGrid(cells []rov.GridCell) []rov.GridCell {
	keep := map[int]bool{12: true, 13: true, 16: true, 20: true, 22: true, 24: true}
	var out []rov.GridCell
	for _, c := range cells {
		if keep[c.Bits] {
			out = append(out, c)
		}
	}
	return out
}
