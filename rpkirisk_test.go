package rpkirisk

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rov"
	"repro/internal/rtr"
)

func TestNewModelWorldAndValidate(t *testing.T) {
	for _, tc := range []struct {
		name             string
		build            func() (*World, error)
		minROAs, maxROAs int
	}{
		{"figure2", func() (*World, error) { return NewModelWorld(false) }, 8, 8},
		{"synthetic", func() (*World, error) { return NewSyntheticWorld(1) }, 1200, 1400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Validate(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			if res.ROAsAccepted < tc.minROAs || res.ROAsAccepted > tc.maxROAs {
				t.Errorf("ROAs = %d, want within [%d, %d]", res.ROAsAccepted, tc.minROAs, tc.maxROAs)
			}
			if res.Incomplete() {
				t.Errorf("diagnostics: %v", res.Diagnostics)
			}
		})
	}
}

func TestServeAndValidateTCP(t *testing.T) {
	w, err := NewModelWorld(false)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	res, err := ValidateTCP(context.Background(), w, addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.ROAsAccepted != 8 {
		t.Errorf("ROAs over TCP = %d, want 8", res.ROAsAccepted)
	}
	if res.Incomplete() {
		t.Errorf("diagnostics: %v", res.Diagnostics)
	}
}

func TestTALRoundTrip(t *testing.T) {
	w, err := NewModelWorld(false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arin.tal")
	if err := WriteTAL(w, path); err != nil {
		t.Fatal(err)
	}
	anchor, err := ReadTAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(anchor.CertDER) != string(w.Anchor().CertDER) {
		t.Error("TAL cert mismatch")
	}
	if anchor.URI != w.Anchor().URI {
		t.Errorf("TAL URI = %v", anchor.URI)
	}
	if _, err := ReadTAL(filepath.Join(t.TempDir(), "missing.tal")); err == nil {
		t.Error("missing TAL must fail")
	}
}

func TestServeRTREndToEnd(t *testing.T) {
	w, err := NewModelWorld(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Validate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	addr, cache, stop, err := ServeRTR("127.0.0.1:0", res.VRPs)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	client := rtr.NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSynced(3 * time.Second) {
		t.Fatal("RTR sync failed")
	}
	if got := len(client.VRPs()); got != len(res.VRPs) {
		t.Errorf("router VRPs = %d, want %d", got, len(res.VRPs))
	}

	// A whack propagates through the whole stack: delete a ROA, revalidate,
	// push the update, and the router's table shrinks.
	if err := w.MustAuthority("continental").DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	res2, err := Validate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetVRPs(res2.VRPs)
	if !client.WaitSerial(cache.Serial(), 3*time.Second) {
		t.Fatal("RTR update never arrived")
	}
	for _, v := range client.VRPs() {
		if v.ASN == 7341 {
			t.Error("whacked VRP still in the router's table")
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	results, err := RunExperiment("se6")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Passed() {
		t.Errorf("results = %v", results)
	}
	if len(Experiments()) != 14 {
		t.Errorf("experiments = %d, want 14", len(Experiments()))
	}
	if len(Table4()) != 9 {
		t.Error("Table4 rows wrong")
	}
}

func TestParsersExported(t *testing.T) {
	if MustParsePrefix("10.0.0.0/8").Bits() != 8 {
		t.Error("prefix parse wrong")
	}
	if MustParseAddr("10.0.0.1").String() != "10.0.0.1" {
		t.Error("addr parse wrong")
	}
	_ = rov.Unknown // keep the import meaningful for examples
}
