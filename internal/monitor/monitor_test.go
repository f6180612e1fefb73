package monitor

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/repo"
	"repro/internal/roa"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

func clock() time.Time { return testEpoch }

func world(t *testing.T) *modelgen.World {
	t.Helper()
	w, err := modelgen.Figure2(clock, false)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func hasKind(events []Event, kind EventKind) bool {
	for _, e := range events {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func TestBaselineIsSilent(t *testing.T) {
	w := world(t)
	watcher := NewWatcher()
	for module, store := range w.Stores {
		events := watcher.Observe(module, store.Snapshot())
		if len(events) != 0 {
			t.Errorf("baseline of %s should be silent, got %v", module, events)
		}
	}
}

func TestBenignChurnIsInfo(t *testing.T) {
	w := world(t)
	watcher := NewWatcher()
	watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	// Routine activity: a new ROA appears (no shrink anywhere).
	if _, err := w.MustAuthority("sprint").IssueROA("new-roa", 1239, roa.MustParsePrefix("63.172.0.0/16")); err != nil {
		t.Fatal(err)
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if MaxSeverity(events) > Info {
		t.Errorf("benign churn should stay at info: %v", events)
	}
	if !hasKind(events, EventAdded) {
		t.Errorf("want added event, got %v", events)
	}
}

func TestTransparentRevocationIsNotice(t *testing.T) {
	w := world(t)
	watcher := NewWatcher()
	watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if err := w.MustAuthority("sprint").RevokeChild("continental"); err != nil {
		t.Fatal(err)
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if !hasKind(events, EventRevocation) {
		t.Fatalf("want revocation event, got %v", events)
	}
	if MaxSeverity(events) != Notice {
		t.Errorf("revocation is visible-by-design: severity %v", MaxSeverity(events))
	}
}

func TestStealthyDeleteIsWarning(t *testing.T) {
	w := world(t)
	watcher := NewWatcher()
	watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if err := w.MustAuthority("sprint").DeleteChildCert("continental"); err != nil {
		t.Fatal(err)
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if !hasKind(events, EventStealthyDelete) {
		t.Fatalf("want stealthy-delete event, got %v", events)
	}
}

func TestRCShrinkIsAlert(t *testing.T) {
	w := world(t)
	watcher := NewWatcher()
	watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	planner := &core.Planner{Manipulator: w.MustAuthority("sprint")}
	plan, err := planner.Plan(core.Target{Holder: w.MustAuthority("continental"), Name: "cont-20"})
	if err != nil {
		t.Fatal(err)
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if !hasKind(events, EventRCShrink) {
		t.Fatalf("want rc-shrink alert, got %v", events)
	}
	if MaxSeverity(events) != Alert {
		t.Errorf("shrink should be an alert")
	}
	// The clean shrink produces exactly one alert and no reissue noise.
	alerts := Filter(events, Alert)
	if len(alerts) != 1 {
		t.Errorf("clean shrink should produce one alert, got %v", alerts)
	}
}

func TestMakeBeforeBreakReissueDetected(t *testing.T) {
	w := world(t)
	watcher := NewWatcher()
	watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	watcher.Observe("continental", w.Stores["continental"].Snapshot())

	planner := &core.Planner{Manipulator: w.MustAuthority("sprint")}
	plan, err := planner.Plan(core.Target{Holder: w.MustAuthority("continental"), Name: "cont-22"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != core.MethodMakeBeforeBreak {
		t.Fatalf("method = %v", plan.Method)
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if !hasKind(events, EventRCShrink) {
		t.Errorf("want rc-shrink, got %v", events)
	}
	if !hasKind(events, EventSuspiciousReissue) {
		t.Errorf("want suspicious-reissue (the paper: 'easier to detect, due to the suspiciously-reissued ROA'), got %v", events)
	}
}

func TestDeepWhackReplacementRCDetected(t *testing.T) {
	w := world(t)
	smallStore := repo.NewStore()
	w.Stores["smallco"] = smallStore
	small, err := w.MustAuthority("continental").CreateChild("smallco",
		ipres.MustParseSet("63.174.18.0/23"), smallStore,
		repo.URI{Host: "smallco.example:8873", Module: "smallco"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.IssueROA("small-a", 64501, roa.MustParsePrefix("63.174.18.0/24")); err != nil {
		t.Fatal(err)
	}

	watcher := NewWatcher()
	for module, store := range w.Stores {
		watcher.Observe(module, store.Snapshot())
	}
	planner := &core.Planner{Manipulator: w.MustAuthority("sprint")}
	plan, err := planner.Plan(core.Target{Holder: small, Name: "small-a"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != core.MethodDeepWhack {
		t.Fatalf("method = %v", plan.Method)
	}
	if err := planner.Execute(plan); err != nil {
		t.Fatal(err)
	}
	events := watcher.Observe("sprint", w.Stores["sprint"].Snapshot())
	if !hasKind(events, EventReplacementRC) {
		t.Errorf("want replacement-rc alert (deep whacks are 'easier to detect'), got %v", events)
	}
}

func TestFilterAndMaxSeverity(t *testing.T) {
	events := []Event{
		{Kind: EventAdded, Severity: Info},
		{Kind: EventRevocation, Severity: Notice},
		{Kind: EventRCShrink, Severity: Alert},
	}
	if MaxSeverity(events) != Alert {
		t.Error("max severity wrong")
	}
	if len(Filter(events, Notice)) != 2 {
		t.Error("filter wrong")
	}
	if MaxSeverity(nil) != Info {
		t.Error("empty max severity wrong")
	}
}
