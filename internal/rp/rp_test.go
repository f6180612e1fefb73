package rp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

func clock() time.Time { return testEpoch }

// buildFigure2 constructs the paper's model hierarchy:
// TA(ARIN) → Sprint → {ETB, Continental Broadband}, with the ROAs of
// Figure 2. Returns the TA and the stores by module name.
func buildFigure2(t *testing.T) (*ca.Authority, *ca.Authority, *ca.Authority, StoreFetcher) {
	t.Helper()
	cfg := ca.Config{Clock: clock}
	stores := StoreFetcher{}

	newStore := func(module string) (*repo.Store, repo.URI) {
		s := repo.NewStore()
		stores[module] = s
		return s, repo.URI{Host: module + ".example:8873", Module: module}
	}

	taStore, taURI := newStore("arin")
	arin, err := ca.NewTrustAnchor("arin", ipres.MustParseSet("63.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sprintStore, sprintURI := newStore("sprint")
	sprint, err := arin.CreateChild("sprint", ipres.MustParseSet("63.160.0.0/12"), sprintStore, sprintURI)
	if err != nil {
		t.Fatal(err)
	}
	etbStore, etbURI := newStore("etb")
	etb, err := sprint.CreateChild("etb", ipres.MustParseSet("63.161.0.0/16"), etbStore, etbURI)
	if err != nil {
		t.Fatal(err)
	}
	contStore, contURI := newStore("continental")
	continental, err := sprint.CreateChild("continental", ipres.MustParseSet("63.174.16.0/20"), contStore, contURI)
	if err != nil {
		t.Fatal(err)
	}

	// Sprint's two max-length-24 ROAs.
	mustROA(t, sprint, "sprint-168", 1239, "63.168.0.0/16-24")
	mustROA(t, sprint, "sprint-170", 1239, "63.170.0.0/16-24")
	// ETB's single-prefix ROA.
	mustROA(t, etb, "etb", 19429, "63.161.0.0/16")
	// Continental Broadband's five ROAs.
	mustROA(t, continental, "cont-20", 17054, "63.174.16.0/20")
	mustROA(t, continental, "cont-22", 7341, "63.174.16.0/22")
	mustROA(t, continental, "cont-20-24", 26821, "63.174.20.0/22-24")
	mustROA(t, continental, "cont-25", 17054, "63.174.25.0/24")
	mustROA(t, continental, "cont-26", 17054, "63.174.26.0/23")

	_ = etb
	return arin, sprint, continental, stores
}

func mustROA(t *testing.T, a *ca.Authority, name string, asn ipres.ASN, prefix string) {
	t.Helper()
	if _, err := a.IssueROA(name, asn, roa.MustParsePrefix(prefix)); err != nil {
		t.Fatal(err)
	}
}

func newRP(arin *ca.Authority, stores StoreFetcher, policy MissingPolicy) *RelyingParty {
	return New(Config{
		Fetcher: stores,
		Clock:   clock,
		Policy:  policy,
	}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
}

func TestSyncCleanHierarchy(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	result, err := newRP(arin, stores, BestEffort).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if result.Incomplete() {
		t.Fatalf("clean sync should be complete; diags: %v", result.Diagnostics)
	}
	if result.ROAsAccepted != 8 {
		t.Errorf("ROAs accepted = %d, want 8", result.ROAsAccepted)
	}
	if result.CertsAccepted != 4 { // arin, sprint, etb, continental
		t.Errorf("certs accepted = %d, want 4", result.CertsAccepted)
	}
	ix := result.Index()
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054}); got != rov.Valid {
		t.Errorf("Continental's route should be valid, got %v", got)
	}
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.160.0.0/12"), Origin: 1239}); got != rov.Unknown {
		t.Errorf("/12 should be unknown, got %v", got)
	}
}

func TestSyncMissingROATurnsRouteInvalid(t *testing.T) {
	arin, _, continental, stores := buildFigure2(t)
	// The authority deletes its own ROA (stealthy revocation). The
	// manifest is regenerated to match — the repository operator is the
	// attacker, so no hash mismatch is visible.
	if err := continental.DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	result, err := newRP(arin, stores, BestEffort).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if result.Incomplete() {
		t.Fatalf("stealthy deletion must produce NO diagnostics, got %v", result.Diagnostics)
	}
	ix := result.Index()
	r := rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/22"), Origin: 7341}
	if got := ix.State(r); got != rov.Invalid {
		t.Errorf("whacked route should be invalid (covered by /20 ROA), got %v", got)
	}
}

func TestSyncThirdPartyDropIsDetected(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	// A third party (fault, not the authority) removes the object without
	// fixing the manifest: the relying party must notice.
	stores["continental"].Delete("cont-22.roa")
	result, err := newRP(arin, stores, BestEffort).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !result.Incomplete() {
		t.Fatal("manifest mismatch must be diagnosed")
	}
	found := false
	for _, d := range result.Diagnostics {
		if d.Kind == DiagMissingObject && d.Object == "cont-22.roa" {
			found = true
		}
	}
	if !found {
		t.Errorf("want missing-object diagnostic, got %v", result.Diagnostics)
	}
}

func TestSyncCorruptObjectRejected(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	raw, _ := stores["continental"].Get("cont-22.roa")
	raw[len(raw)-1] ^= 0xFF
	stores["continental"].Put("cont-22.roa", raw)
	result, err := newRP(arin, stores, BestEffort).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !result.Incomplete() {
		t.Fatal("corruption must be diagnosed")
	}
	ix := result.Index()
	r := rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/22"), Origin: 7341}
	if got := ix.State(r); got != rov.Invalid {
		t.Errorf("route backed by corrupt ROA should be invalid, got %v", got)
	}
}

func TestSyncDropPublicationPointPolicy(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	stores["continental"].Delete("cont-22.roa") // manifest now inconsistent
	result, err := newRP(arin, stores, DropPublicationPoint).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// ALL of Continental's ROAs must be gone, not just the missing one.
	ix := result.Index()
	for _, probe := range []rov.Route{
		{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054},
		{Prefix: ipres.MustParsePrefix("63.174.25.0/24"), Origin: 17054},
	} {
		if got := ix.State(probe); got == rov.Valid {
			t.Errorf("%v should not be valid after dropping the pub point", probe)
		}
	}
	// Sprint's and ETB's ROAs survive.
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.168.0.0/16"), Origin: 1239}); got != rov.Valid {
		t.Errorf("sprint's ROA should survive, got %v", got)
	}
	dropped := false
	for _, d := range result.Diagnostics {
		if d.Kind == DiagDroppedPubPoint && d.Module == "continental" {
			dropped = true
		}
	}
	if !dropped {
		t.Error("want dropped-publication-point diagnostic")
	}
}

func TestSyncShrinkChildWhacksDescendantROA(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	// Figure 3 / Side Effect 3: Sprint overwrites Continental's RC to
	// exclude 63.174.24.0/24 — but here the hole is chosen inside the /20
	// target ROA and outside all other Continental ROAs.
	newRes := ipres.MustParseSet("63.174.16.0-63.174.23.255, 63.174.25.0-63.174.31.255")
	if err := sprint.ShrinkChild("continental", newRes); err != nil {
		t.Fatal(err)
	}
	result, err := newRP(arin, stores, BestEffort).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ix := result.Index()
	// The /20 ROA is whacked: its EE now overclaims relative to the RC.
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054}); got == rov.Valid {
		t.Error("target ROA should be whacked")
	}
	// All other Continental ROAs survive: zero collateral damage.
	for _, probe := range []rov.Route{
		{Prefix: ipres.MustParsePrefix("63.174.16.0/22"), Origin: 7341},
		{Prefix: ipres.MustParsePrefix("63.174.25.0/24"), Origin: 17054},
		{Prefix: ipres.MustParsePrefix("63.174.26.0/23"), Origin: 17054},
		{Prefix: ipres.MustParsePrefix("63.174.21.0/24"), Origin: 26821},
	} {
		if got := ix.State(probe); got != rov.Valid {
			t.Errorf("collateral damage: %v = %v", probe, got)
		}
	}
	// The overclaiming EE shows up as a diagnostic, not silence.
	overclaim := false
	for _, d := range result.Diagnostics {
		if d.Kind == DiagInvalidObject && d.Object == "cont-20.roa" {
			overclaim = true
		}
	}
	if !overclaim {
		t.Errorf("want invalid-object diagnostic for cont-20.roa, got %v", result.Diagnostics)
	}
}

func TestSyncRevokedChildSubtreeGone(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	if err := sprint.RevokeChild("continental"); err != nil {
		t.Fatal(err)
	}
	result, err := newRP(arin, stores, BestEffort).Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ix := result.Index()
	// The whole Continental subtree — all five ROAs — is whacked.
	for _, probe := range []rov.Route{
		{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054},
		{Prefix: ipres.MustParsePrefix("63.174.16.0/22"), Origin: 7341},
		{Prefix: ipres.MustParsePrefix("63.174.25.0/24"), Origin: 17054},
	} {
		if got := ix.State(probe); got == rov.Valid {
			t.Errorf("%v should be whacked after revocation", probe)
		}
	}
	if got := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.168.0.0/16"), Origin: 1239}); got != rov.Valid {
		t.Error("sprint's own ROA must survive")
	}
}

func TestSyncExpiredCertificates(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	late := func() time.Time { return testEpoch.Add(400 * 24 * time.Hour) }
	rpLate := New(Config{Fetcher: stores, Clock: late}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	result, err := rpLate.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(result.VRPs) != 0 {
		t.Errorf("expired hierarchy should yield no VRPs, got %d", len(result.VRPs))
	}
	if !result.Incomplete() {
		t.Error("expiry should be diagnosed")
	}
}

func TestSyncOverTCP(t *testing.T) {
	// End-to-end: hierarchy served over real rsynclite TCP servers.
	cfg := ca.Config{Clock: clock}
	srv := repo.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	taStore := repo.NewStore()
	taURI := repo.URI{Host: addr, Module: "ta"}
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("63.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	childStore := repo.NewStore()
	childURI := repo.URI{Host: addr, Module: "child"}
	child, err := ta.CreateChild("child", ipres.MustParseSet("63.160.0.0/12"), childStore, childURI)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.IssueROA("r", 1239, roa.MustParsePrefix("63.160.0.0/12-13")); err != nil {
		t.Fatal(err)
	}
	srv.AddModule("ta", taStore, nil)
	srv.AddModule("child", childStore, nil)

	rpTCP := New(Config{
		Fetcher: &repo.Client{Timeout: 5 * time.Second},
		Clock:   clock,
	}, TrustAnchor{CertDER: ta.Cert.Raw, URI: taURI})
	result, err := rpTCP.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if result.Incomplete() {
		t.Fatalf("TCP sync incomplete: %v", result.Diagnostics)
	}
	if len(result.VRPs) != 1 || result.VRPs[0].ASN != 1239 {
		t.Errorf("VRPs = %v", result.VRPs)
	}
}

func TestSyncStaleManifest(t *testing.T) {
	// Manifests issued with a short window; validation later in time.
	cfg := ca.Config{Clock: clock, ManifestValidity: time.Hour}
	stores := StoreFetcher{}
	taStore := repo.NewStore()
	stores["ta"] = taStore
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("63.0.0.0/8"), taStore, repo.URI{Host: "x:1", Module: "ta"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.IssueROA("r", 1239, roa.MustParsePrefix("63.160.0.0/12")); err != nil {
		t.Fatal(err)
	}
	later := func() time.Time { return testEpoch.Add(2 * time.Hour) }

	// A stale manifest is diagnosed and the ROA still used.
	rpLenient := New(Config{Fetcher: stores, Clock: later}, TrustAnchor{CertDER: ta.Cert.Raw, URI: ta.URI})
	result, err := rpLenient.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(result.VRPs) != 1 {
		t.Errorf("lenient: VRPs = %d, want 1", len(result.VRPs))
	}
	sawStale := false
	for _, d := range result.Diagnostics {
		if d.Kind == DiagStaleManifest {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("stale manifest should be diagnosed")
	}
}

func TestSyncNoFetcher(t *testing.T) {
	rpBad := New(Config{})
	if _, err := rpBad.Sync(context.Background()); err == nil {
		t.Error("nil fetcher must error")
	}
}

// TestDiagnosticStrings: every kind has a name of its own; none falls
// through to the numeric default.
func TestDiagnosticStrings(t *testing.T) {
	kinds := []DiagKind{DiagFetchFailure, DiagMissingObject, DiagHashMismatch,
		DiagInvalidObject, DiagStaleManifest, DiagMissingManifest, DiagDroppedPubPoint,
		DiagPointUnreachable, DiagStaleFallback}
	seen := map[string]DiagKind{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || name == fmt.Sprintf("DiagKind(%d)", uint8(k)) {
			t.Errorf("kind %d has no name: %q", uint8(k), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both %q", uint8(prev), uint8(k), name)
		}
		seen[name] = k
	}
	if next := DiagStaleFallback + 1; next.String() != fmt.Sprintf("DiagKind(%d)", uint8(next)) {
		t.Errorf("kind %d past the last is %q: a kind is missing from this list", uint8(next), next.String())
	}
}

// depthChain builds a delegation chain of points: a trust anchor and
// points-1 child CAs below it, each holding the anchor's resources, with one
// ROA at the deepest. It returns the anchor and the stores.
func depthChain(t *testing.T, points int) (TrustAnchor, StoreFetcher) {
	t.Helper()
	stores := StoreFetcher{}
	newStore := func(module string) (*repo.Store, repo.URI) {
		s := repo.NewStore()
		stores[module] = s
		return s, repo.URI{Host: "chain.example:8873", Module: module}
	}
	resources := ipres.MustParseSet("10.0.0.0/8")
	store, uri := newStore("c0")
	ta, err := ca.NewTrustAnchor("c0", resources, store, uri, ca.Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	deepest := ta
	for i := 1; i < points; i++ {
		store, uri := newStore(fmt.Sprintf("c%d", i))
		if deepest, err = deepest.CreateChild(uri.Module, resources, store, uri); err != nil {
			t.Fatal(err)
		}
	}
	mustROA(t, deepest, "leaf", 64512, "10.0.0.0/24")
	return TrustAnchor{CertDER: ta.Cert.Raw, URI: ta.URI}, stores
}

// TestSyncDepthLimit pins the depth bound at its edge: a chain of maxDepth
// points, whose deepest is walked at depth 1, validates whole; one point
// more is cut there with "hierarchy too deep", and its ROA is lost.
func TestSyncDepthLimit(t *testing.T) {
	for _, points := range []int{maxDepth, maxDepth + 1} {
		anchor, stores := depthChain(t, points)
		result, err := New(Config{Fetcher: stores, Clock: clock}, anchor).Sync(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if points == maxDepth {
			if result.Incomplete() || result.ROAsAccepted != 1 || result.PubPointsVisited != points {
				t.Errorf("%d-point chain: %d ROAs, %d points visited, diagnostics %v; want 1, %d, none",
					points, result.ROAsAccepted, result.PubPointsVisited, result.Diagnostics, points)
			}
			continue
		}
		deepest := fmt.Sprintf("c%d", points-1)
		d, ok := findDiag(result, DiagInvalidObject, deepest, "")
		if !ok || d.Err.Error() != "hierarchy too deep" || len(result.Diagnostics) != 1 {
			t.Errorf("%d-point chain: want one \"hierarchy too deep\" diagnostic on %s, got %v", points, deepest, result.Diagnostics)
		}
		if result.ROAsAccepted != 0 || result.PubPointsVisited != maxDepth {
			t.Errorf("%d-point chain: %d ROAs, %d points visited; want 0, %d", points, result.ROAsAccepted, result.PubPointsVisited, maxDepth)
		}
	}
}

func TestSyncBadTrustAnchor(t *testing.T) {
	_, _, _, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock},
		TrustAnchor{CertDER: []byte("garbage"), URI: repo.URI{Host: "x:1", Module: "arin"}})
	result, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(result.VRPs) != 0 || !result.Incomplete() {
		t.Error("garbage TA should yield diagnostics and nothing else")
	}
}

// TestTrustAnchorSignatureVerifiedOnce: a relying party verifies a trust
// anchor's self-signature once while the anchor's DER stays the same, and
// runs every other anchor check on every sync. An anchor that expires between
// two syncs is refused at the second; a bad signature, or a DER rewritten in
// place under the relying party, is diagnosed on every sync; and a second
// relying party over the same bytes verifies again.
func TestTrustAnchorSignatureVerifiedOnce(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	anchor := TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI}
	// anchorErr returns the diagnostic on the anchor itself, if any.
	anchorErr := func(res *Result) error {
		for _, d := range res.Diagnostics {
			if d.Module == anchor.URI.Module && d.Object == "" {
				return d.Err
			}
		}
		return nil
	}

	t.Run("once per relying party", func(t *testing.T) {
		first := New(Config{Fetcher: stores, Clock: clock}, anchor)
		cold := syncReuse(t, first)
		if warm := syncReuse(t, first); Verifications(warm) != 0 || warm.ModulesReused != 4 {
			t.Errorf("unchanged second sync: %d verifications, %d modules reused; want 0, 4", Verifications(warm), warm.ModulesReused)
		}
		second := New(Config{Fetcher: stores, Clock: clock}, anchor)
		if got, want := Verifications(syncReuse(t, second)), Verifications(cold); got != want {
			t.Errorf("a second relying party's cold sync ran %d verifications, want the first's %d", got, want)
		}
	})

	t.Run("expired between two syncs", func(t *testing.T) {
		now := testEpoch
		v := New(Config{Fetcher: stores, Clock: func() time.Time { return now }}, anchor)
		if res := syncReuse(t, v); res.Incomplete() || len(res.VRPs) == 0 {
			t.Fatalf("first sync: %d VRPs, diagnostics %v", len(res.VRPs), res.Diagnostics)
		}
		now = arin.Cert.NotAfter().Add(time.Second)
		res := syncReuse(t, v)
		if err := anchorErr(res); !errors.Is(err, cert.ErrExpired) || len(res.VRPs) != 0 {
			t.Errorf("past the anchor's notAfter: %d VRPs, anchor diagnostic %v; want 0, %v", len(res.VRPs), err, cert.ErrExpired)
		}
	})

	t.Run("bad signature, every sync", func(t *testing.T) {
		der := bytes.Clone(anchor.CertDER)
		v := New(Config{Fetcher: stores, Clock: clock}, TrustAnchor{CertDER: der, URI: anchor.URI})
		if res := syncReuse(t, v); res.Incomplete() {
			t.Fatalf("first sync: %v", res.Diagnostics)
		}
		// The last byte of the DER is the last of the signature's s: the
		// certificate still parses, and its signature no longer holds.
		der[len(der)-1] ^= 1
		for sync := 2; sync <= 4; sync++ {
			res := syncReuse(t, v)
			if err := anchorErr(res); !errors.Is(err, cert.ErrBadSignature) || len(res.VRPs) != 0 {
				t.Errorf("sync %d: %d VRPs, anchor diagnostic %v; want 0, %v", sync, len(res.VRPs), err, cert.ErrBadSignature)
			}
			if got := Verifications(res); got != 1 {
				t.Errorf("sync %d ran %d verifications, want 1: a failed signature is checked again", sync, got)
			}
		}
	})
}

// TestTrustAnchorDiagnosticsReachRecorder: a trust anchor's diagnostic goes
// through the same writer as every other, so it drops an event into the
// flight recorder as Config.Obs promises.
func TestTrustAnchorDiagnosticsReachRecorder(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	der := bytes.Clone(arin.Cert.Raw)
	der[len(der)-1] ^= 1 // the signature's last byte: still parses, no longer verifies
	hub := obs.NewHub(clock)
	res := syncReuse(t, New(Config{Fetcher: stores, Clock: clock, Obs: hub}, TrustAnchor{CertDER: der, URI: arin.URI}))
	if _, found := findDiag(res, DiagInvalidObject, "arin", ""); !found {
		t.Fatalf("want the anchor's bad signature diagnosed, got %v", res.Diagnostics)
	}
	events := 0
	for _, e := range hub.Recorder().Snapshot() {
		if e.Kind == obs.EventDiagnostic && e.Module == "arin" {
			events++
		}
	}
	if events == 0 {
		t.Errorf("flight recorder holds no diagnostic event for arin; recorded %v", hub.Recorder().Snapshot())
	}
}

func TestSyncMultipleTrustAnchors(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	// Second, disjoint anchor.
	cfg := ca.Config{Clock: clock}
	ripeStore := repo.NewStore()
	stores["ripe"] = ripeStore
	ripe, err := ca.NewTrustAnchor("ripe", ipres.MustParseSet("192.0.0.0/8"), ripeStore,
		repo.URI{Host: "ripe.example:8873", Module: "ripe"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ripe.IssueROA("r", 64500, roa.MustParsePrefix("192.71.0.0/16")); err != nil {
		t.Fatal(err)
	}
	relying := New(Config{Fetcher: stores, Clock: clock},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI},
		TrustAnchor{CertDER: ripe.Cert.Raw, URI: ripe.URI})
	result, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if result.ROAsAccepted != 9 {
		t.Errorf("ROAs across two anchors = %d, want 9", result.ROAsAccepted)
	}
	ix := result.Index()
	if ix.State(rov.Route{Prefix: ipres.MustParsePrefix("192.71.0.0/16"), Origin: 64500}) != rov.Valid {
		t.Error("second anchor's ROA should validate")
	}
}

func TestResultIncompleteSemantics(t *testing.T) {
	r := &Result{}
	if r.Incomplete() {
		t.Error("empty result should be complete")
	}
	r.Diagnostics = append(r.Diagnostics, Diagnostic{Kind: DiagFetchFailure, Module: "m", Err: context.Canceled})
	if !r.Incomplete() {
		t.Error("any diagnostic means incomplete")
	}
}

func TestSyncIncrementalMode(t *testing.T) {
	// Over TCP with snapshot caching: the second sync must reuse every
	// unchanged object and only download what the authority republished.
	cfg := ca.Config{Clock: clock}
	srv := repo.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	taStore := repo.NewStore()
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("63.0.0.0/8"), taStore,
		repo.URI{Host: addr, Module: "ta"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.IssueROA("r1", 1239, roa.MustParsePrefix("63.160.0.0/12")); err != nil {
		t.Fatal(err)
	}
	srv.AddModule("ta", taStore, nil)

	relying := New(Config{
		Fetcher:        &repo.Client{Timeout: 5 * time.Second},
		Clock:          clock,
		CacheSnapshots: true,
	}, TrustAnchor{CertDER: ta.Cert.Raw, URI: repo.URI{Host: addr, Module: "ta"}})

	first, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.ObjectsDownloaded == 0 || first.ObjectsReused != 0 {
		t.Fatalf("cold sync: %+v", first)
	}
	second, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.ObjectsDownloaded != 0 || second.ObjectsReused != first.ObjectsDownloaded {
		t.Errorf("warm sync: downloaded=%d reused=%d", second.ObjectsDownloaded, second.ObjectsReused)
	}
	if len(second.VRPs) != 1 {
		t.Errorf("VRPs = %d", len(second.VRPs))
	}
	// One new ROA: the delta is the new object plus the re-signed
	// manifest and CRL — everything else is reused.
	if _, err := ta.IssueROA("r2", 1239, roa.MustParsePrefix("63.170.0.0/16")); err != nil {
		t.Fatal(err)
	}
	third, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.ObjectsDownloaded != 3 { // r2.roa + ta.mft + ta.crl
		t.Errorf("delta sync downloaded %d, want 3", third.ObjectsDownloaded)
	}
	if len(third.VRPs) != 2 {
		t.Errorf("VRPs = %d", len(third.VRPs))
	}
}
