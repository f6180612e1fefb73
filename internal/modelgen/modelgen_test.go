package modelgen

import (
	"context"
	"testing"

	"repro/internal/ipres"
	"repro/internal/rov"
	"repro/internal/rp"
)

func TestFigure2Validates(t *testing.T) {
	w, err := Figure2(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.CountROAs() != 8 {
		t.Errorf("ROAs = %d, want 8", w.CountROAs())
	}
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock}, w.Anchor())
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete() {
		t.Fatalf("figure 2 should validate cleanly: %v", res.Diagnostics)
	}
	ix := res.Index()
	// The two paper-stated facts about Figure 5 left.
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.160.0.0/12"), Origin: 1239}); got != rov.Unknown {
		t.Errorf("/12 = %v, want unknown", got)
	}
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.17.0/24"), Origin: 17054}); got != rov.Invalid {
		t.Errorf("63.174.17.0/24 = %v, want invalid", got)
	}
}

func TestFigure2WithCover(t *testing.T) {
	w, err := Figure2(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if w.CountROAs() != 9 {
		t.Errorf("ROAs = %d, want 9", w.CountROAs())
	}
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock}, w.Anchor())
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ix := res.Index()
	// Side Effect 5: the /12 route is now valid for AS1239, and invalid
	// for everyone else.
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.160.0.0/12"), Origin: 1239}); got != rov.Valid {
		t.Errorf("/12 AS1239 = %v, want valid", got)
	}
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.163.0.0/16"), Origin: 7018}); got != rov.Invalid {
		t.Errorf("/16 AS7018 = %v, want invalid", got)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	w1, err := Synthetic(SyntheticConfig{Seed: 7, RIRs: 2, ISPsPerRIR: 2, ROAsPerISP: 2, CustomersPerISP: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Synthetic(SyntheticConfig{Seed: 7, RIRs: 2, ISPsPerRIR: 2, ROAsPerISP: 2, CustomersPerISP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w1.CountROAs() != w2.CountROAs() {
		t.Error("same seed must give same shape")
	}
	// 2 RIRs × 2 ISPs × (2 + 1) = 12 ROAs.
	if w1.CountROAs() != 12 {
		t.Errorf("ROAs = %d, want 12", w1.CountROAs())
	}
}

func TestSyntheticValidates(t *testing.T) {
	w, err := Synthetic(SyntheticConfig{Seed: 1, RIRs: 2, ISPsPerRIR: 3, ROAsPerISP: 3, CustomersPerISP: 2})
	if err != nil {
		t.Fatal(err)
	}
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock}, w.Anchor())
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete() {
		t.Fatalf("synthetic world should validate: %v", res.Diagnostics[:min(3, len(res.Diagnostics))])
	}
	want := 2 * 3 * (3 + 2)
	if res.ROAsAccepted != want {
		t.Errorf("accepted %d ROAs, want %d", res.ROAsAccepted, want)
	}
}

func TestProductionSizedMatchesFootnote4(t *testing.T) {
	cfg := ProductionSized(1)
	total := cfg.RIRs * cfg.ISPsPerRIR * (cfg.ROAsPerISP + cfg.CustomersPerISP)
	if total < 1200 || total > 1400 {
		t.Errorf("production size = %d ROAs, want 1200-1400 (paper footnote 4)", total)
	}
}

func TestSyntheticBoundsChecked(t *testing.T) {
	if _, err := Synthetic(SyntheticConfig{RIRs: 100}); err == nil {
		t.Error("too many RIRs must fail")
	}
	if _, err := Synthetic(SyntheticConfig{ROAsPerISP: 11, RIRs: 1, ISPsPerRIR: 1}); err == nil {
		t.Error("too many ROAs per ISP must fail")
	}
}

func TestWorldAccessors(t *testing.T) {
	w, err := Figure2(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Authority("sprint"); err != nil {
		t.Error(err)
	}
	if _, err := w.Authority("nope"); err == nil {
		t.Error("unknown authority must fail")
	}
	if w.MustAuthority("continental").Name != "continental" {
		t.Error("MustAuthority wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBulkModeProducesConsistentWorld(t *testing.T) {
	// Bulk generation must yield exactly the same validation outcome as
	// the per-operation path: complete cache, correct ROA count.
	w, err := Synthetic(SyntheticConfig{Seed: 3, RIRs: 2, ISPsPerRIR: 5, ROAsPerISP: 5, CustomersPerISP: 5})
	if err != nil {
		t.Fatal(err)
	}
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock}, w.Anchor())
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete() {
		t.Fatalf("bulk-built world must validate completely: %v", res.Diagnostics[:min(3, len(res.Diagnostics))])
	}
	want := 2 * 5 * (5 + 5)
	if res.ROAsAccepted != want {
		t.Errorf("ROAs = %d, want %d", res.ROAsAccepted, want)
	}
}
