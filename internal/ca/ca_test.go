package ca

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/repo"
	"repro/internal/roa"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

func testConfig() Config {
	return Config{Clock: func() time.Time { return testEpoch }}
}

func newTA(t *testing.T, resources string) *Authority {
	t.Helper()
	ta, err := NewTrustAnchor("ta", ipres.MustParseSet(resources), repo.NewStore(),
		repo.URI{Host: "ta.example:8873", Module: "ta"}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ta
}

func addChild(t *testing.T, parent *Authority, name, resources string) *Authority {
	t.Helper()
	child, err := parent.CreateChild(name, ipres.MustParseSet(resources), repo.NewStore(),
		repo.URI{Host: name + ".example:8873", Module: name})
	if err != nil {
		t.Fatal(err)
	}
	return child
}

func TestTrustAnchorPublishes(t *testing.T) {
	ta := newTA(t, "0.0.0.0/0")
	want := map[string]bool{"ta.cer": true, "ta.crl": true, "ta.mft": true}
	for n := range ta.Store.Infos() {
		if !want[n] {
			t.Errorf("unexpected object %q", n)
		}
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing objects: %v", want)
	}
}

func TestCreateChildPublishesInParentRepo(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	// The child's RC lives in the PARENT's repository — issuer-controlled
	// storage is the design decision behind stealthy revocation.
	if _, ok := ta.Store.Get("sprint.cer"); !ok {
		t.Error("child cert should be in parent store")
	}
	if _, ok := sprint.Store.Get("sprint.cer"); ok {
		t.Error("child cert should NOT be in child store")
	}
	if !sprint.Resources().Equal(ipres.MustParseSet("63.160.0.0/12")) {
		t.Errorf("child resources = %v", sprint.Resources())
	}
	if sprint.Cert.SIA.CARepository != "rsynclite://sprint.example:8873/sprint/" {
		t.Errorf("child SIA = %q", sprint.Cert.SIA.CARepository)
	}
	if got := ta.Children(); len(got) != 1 || got[0] != "sprint" {
		t.Errorf("children = %v", got)
	}
}

func TestCreateChildOverclaimRejected(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	if _, err := ta.CreateChild("greedy", ipres.MustParseSet("64.0.0.0/8"), repo.NewStore(), repo.URI{Host: "x:1", Module: "g"}); err == nil {
		t.Error("overclaiming child must be rejected")
	}
	if _, err := ta.CreateChild("dup", ipres.MustParseSet("63.1.0.0/16"), repo.NewStore(), repo.URI{Host: "x:1", Module: "d"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.CreateChild("dup", ipres.MustParseSet("63.2.0.0/16"), repo.NewStore(), repo.URI{Host: "x:1", Module: "d"}); err == nil {
		t.Error("duplicate child name must be rejected")
	}
}

func TestIssueROA(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	r, err := sprint.IssueROA("roa-1239", 1239, roa.MustParsePrefix("63.160.0.0/12-13"))
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != "(63.160.0.0/12-13, AS1239)" {
		t.Errorf("roa = %v", r)
	}
	raw, ok := sprint.Store.Get("roa-1239.roa")
	if !ok {
		t.Fatal("ROA not published")
	}
	signed, err := roa.ParseSigned(raw)
	if err != nil {
		t.Fatal(err)
	}
	if signed.ROA.ASID != 1239 {
		t.Errorf("parsed ASID = %v", signed.ROA.ASID)
	}
	// EE must chain to sprint.
	if err := signed.EE.Cert.CheckSignatureFrom(sprint.Cert.Cert); err != nil {
		t.Errorf("EE not signed by sprint: %v", err)
	}
	if _, err := sprint.IssueROA("roa-too-big", 1, roa.MustParsePrefix("64.0.0.0/8")); err == nil {
		t.Error("ROA beyond resources must be rejected")
	}
	if _, err := sprint.IssueROA("roa-1239", 1, roa.MustParsePrefix("63.160.0.0/16")); err == nil {
		t.Error("duplicate ROA name must be rejected")
	}
}

func TestManifestCoversPublishedObjects(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	if _, err := sprint.IssueROA("r1", 1239, roa.MustParsePrefix("63.160.0.0/12")); err != nil {
		t.Fatal(err)
	}
	raw, ok := sprint.Store.Get("sprint.mft")
	if !ok {
		t.Fatal("manifest not published")
	}
	signed, err := manifest.ParseSigned(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := signed.Manifest
	for _, name := range []string{"sprint.crl", "r1.roa"} {
		content, _ := sprint.Store.Get(name)
		if err := m.Verify(name, content); err != nil {
			t.Errorf("manifest should cover %s: %v", name, err)
		}
	}
	if _, ok := m.Lookup("sprint.mft"); ok {
		t.Error("manifest must not list itself")
	}
}

func TestRevokeChildIsTransparent(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	serial := sprint.Cert.SerialNumber().String()
	if err := ta.RevokeChild("sprint"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ta.Store.Get("sprint.cer"); ok {
		t.Error("revoked cert should be withdrawn")
	}
	// The revocation is VISIBLE on the CRL: Side Effect 1's transparency.
	found := false
	for _, s := range ta.RevokedSerials() {
		if s == serial {
			found = true
		}
	}
	if !found {
		t.Error("revoked serial must appear on CRL")
	}
	crlRaw, _ := ta.Store.Get("ta.crl")
	crl, err := cert.ParseCRL(crlRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !crl.IsRevoked(sprint.Cert.SerialNumber()) {
		t.Error("published CRL must list the revoked serial")
	}
}

func TestDeleteChildCertIsStealthy(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	addChild(t, ta, "sprint", "63.160.0.0/12")
	if err := ta.DeleteChildCert("sprint"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ta.Store.Get("sprint.cer"); ok {
		t.Error("deleted cert should be gone")
	}
	// NOTHING on the CRL: Side Effect 2's stealth.
	if len(ta.RevokedSerials()) != 0 {
		t.Error("stealthy deletion must leave the CRL empty")
	}
	crlRaw, _ := ta.Store.Get("ta.crl")
	crl, err := cert.ParseCRL(crlRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(crl.List.RevokedCertificateEntries) != 0 {
		t.Error("published CRL must be empty after stealthy delete")
	}
}

func TestShrinkChildOverwritesInPlace(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	continental := addChild(t, sprint, "continental", "63.174.16.0/20")

	// Figure 3: Sprint overwrites Continental's RC with the two ranges
	// omitting 63.174.24.0/24.
	newRes := ipres.MustParseSet("63.174.16.0-63.174.23.255, 63.174.25.0-63.174.31.255")
	oldRaw, _ := sprint.Store.Get("continental.cer")
	if err := sprint.ShrinkChild("continental", newRes); err != nil {
		t.Fatal(err)
	}
	newRaw, ok := sprint.Store.Get("continental.cer")
	if !ok {
		t.Fatal("cert should still exist under its persistent name")
	}
	if string(oldRaw) == string(newRaw) {
		t.Fatal("cert should have been overwritten")
	}
	rc, err := cert.Parse(newRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.IPSet().Equal(newRes) {
		t.Errorf("new resources = %v", rc.IPSet())
	}
	// Same subject, same key (the child's), new serial, nothing revoked.
	if rc.Subject() != "continental" {
		t.Errorf("subject = %q", rc.Subject())
	}
	if len(sprint.RevokedSerials()) != 0 {
		t.Error("shrink must not touch the CRL")
	}
	if !continental.Cert.IPSet().Equal(newRes) {
		t.Error("child handle should see the shrunken cert")
	}
	got, _ := sprint.ChildResources("continental")
	if !got.Equal(newRes) {
		t.Errorf("recorded child resources = %v", got)
	}
}

func TestDeleteAndRevokeROA(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	if _, err := ta.IssueROA("r1", 1, roa.MustParsePrefix("63.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.IssueROA("r2", 2, roa.MustParsePrefix("63.2.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if err := ta.DeleteROA("r1"); err != nil {
		t.Fatal(err)
	}
	if len(ta.RevokedSerials()) != 0 {
		t.Error("delete must be stealthy")
	}
	if err := ta.RevokeROA("r2"); err != nil {
		t.Fatal(err)
	}
	if len(ta.RevokedSerials()) != 1 {
		t.Error("revoke must appear on CRL")
	}
	if _, ok := ta.Store.Get("r1.roa"); ok {
		t.Error("r1 should be withdrawn")
	}
	if _, ok := ta.Store.Get("r2.roa"); ok {
		t.Error("r2 should be withdrawn")
	}
	if err := ta.DeleteROA("never"); err == nil {
		t.Error("deleting unknown ROA must error")
	}
}

func TestRollKeyReissuesEverything(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	if _, err := sprint.IssueROA("r1", 1239, roa.MustParsePrefix("63.160.0.0/12")); err != nil {
		t.Fatal(err)
	}
	continental := addChild(t, sprint, "continental", "63.174.16.0/20")

	oldSKI := sprint.Key.SKIString()
	if err := sprint.RollKey(); err != nil {
		t.Fatal(err)
	}
	if sprint.Key.SKIString() == oldSKI {
		t.Fatal("key should have changed")
	}
	// The new sprint cert must chain from the TA and keep its resources.
	raw, _ := ta.Store.Get("sprint.cer")
	rc, err := cert.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Cert.CheckSignatureFrom(ta.Cert.Cert); err != nil {
		t.Errorf("rolled cert must chain from TA: %v", err)
	}
	if !rc.IPSet().Equal(ipres.MustParseSet("63.160.0.0/12")) {
		t.Errorf("rolled resources = %v", rc.IPSet())
	}
	// Children and ROAs must be reissued under the new key.
	contRaw, _ := sprint.Store.Get("continental.cer")
	contRC, err := cert.Parse(contRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := contRC.Cert.CheckSignatureFrom(rc.Cert); err != nil {
		t.Errorf("child must be reissued under new key: %v", err)
	}
	roaRaw, _ := sprint.Store.Get("r1.roa")
	signed, err := roa.ParseSigned(roaRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := signed.EE.Cert.CheckSignatureFrom(rc.Cert); err != nil {
		t.Errorf("ROA EE must be reissued under new key: %v", err)
	}
	_ = continental
}

func TestCRLAndManifestRegeneratedOnChange(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	mft1, _ := ta.Store.Get("ta.mft")
	if _, err := ta.IssueROA("r1", 1, roa.MustParsePrefix("63.1.0.0/16")); err != nil {
		t.Fatal(err)
	}
	mft2, _ := ta.Store.Get("ta.mft")
	if string(mft1) == string(mft2) {
		t.Error("manifest must be regenerated after publication change")
	}
	s1, err := manifest.ParseSigned(mft1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := manifest.ParseSigned(mft2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Manifest.Number.Cmp(s1.Manifest.Number) <= 0 {
		t.Error("manifest number must increase")
	}
}

func TestAdoptDescendant(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	continental := addChild(t, sprint, "continental", "63.174.16.0/20")

	shrunk := ipres.MustParseSet("63.174.16.0-63.174.17.255")
	if err := sprint.AdoptDescendant(continental, shrunk); err == nil {
		t.Fatal("adopting under a name the parent already has must fail")
	}
	// ARIN (grandparent) adopts continental with shrunken resources.
	if err := ta.AdoptDescendant(continental, shrunk); err != nil {
		t.Fatal(err)
	}
	raw, ok := ta.Store.Get("continental.cer")
	if !ok {
		t.Fatal("replacement RC should be published in the adopter's repo")
	}
	rc, err := cert.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.IPSet().Equal(shrunk) {
		t.Errorf("replacement resources = %v", rc.IPSet())
	}
	if err := rc.Cert.CheckSignatureFrom(ta.Cert.Cert); err != nil {
		t.Errorf("replacement must chain from adopter: %v", err)
	}
	// Same key as the descendant: the subtree revalidates.
	if string(rc.Cert.SubjectKeyId) != string(continental.Cert.Cert.SubjectKeyId) {
		t.Error("replacement must certify the descendant's existing key")
	}
	// Overclaim rejected.
	if err := ta.AdoptDescendant(sprint, ipres.MustParseSet("64.0.0.0/8")); err == nil {
		t.Error("overclaiming adoption must fail")
	}
}

func TestRollKeyTrustAnchor(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	child := addChild(t, ta, "child", "63.1.0.0/16")
	oldSKI := ta.Key.SKIString()
	if err := ta.RollKey(); err != nil {
		t.Fatal(err)
	}
	if ta.Key.SKIString() == oldSKI {
		t.Fatal("TA key unchanged")
	}
	// Self-signed cert republished, child reissued under the new key.
	raw, _ := ta.Store.Get("ta.cer")
	rc, err := cert.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Cert.CheckSignatureFrom(rc.Cert); err != nil {
		t.Errorf("new TA cert must self-verify: %v", err)
	}
	childRaw, _ := ta.Store.Get("child.cer")
	childRC, err := cert.Parse(childRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := childRC.Cert.CheckSignatureFrom(rc.Cert); err != nil {
		t.Errorf("child must chain from rolled TA: %v", err)
	}
	_ = child
}

func TestDefaultConfigUsesWallClock(t *testing.T) {
	ta, err := NewTrustAnchor("wallclock", ipres.MustParseSet("10.0.0.0/8"),
		repo.NewStore(), repo.URI{Host: "x:1", Module: "w"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if time.Until(ta.Cert.NotAfter()) < 300*24*time.Hour {
		t.Error("default validity should be about a year")
	}
}

func TestOpsOnUnknownNames(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	for _, err := range []error{
		ta.RevokeChild("ghost"),
		ta.DeleteChildCert("ghost"),
		ta.ShrinkChild("ghost", ipres.MustParseSet("63.1.0.0/16")),
		ta.RevokeROA("ghost"),
	} {
		if err == nil {
			t.Error("operation on unknown name must fail")
		}
	}
	if _, ok := ta.Child("ghost"); ok {
		t.Error("unknown child lookup must fail")
	}
	if _, ok := ta.ROA("ghost"); ok {
		t.Error("unknown ROA lookup must fail")
	}
	if _, ok := ta.ChildResources("ghost"); ok {
		t.Error("unknown child resources must fail")
	}
}

// TestParentReissueDoesNotRaceChildPublish pins the cross-instance locking
// protocol surfaced by the lockorder analysis: a parent reissuing a child's
// certificate (RollKey, ShrinkChild) must install the child's new handle
// under the CHILD's lock after releasing its own — never write child state
// under only the parent's lock while the child publishes concurrently.
// Run with -race, the pre-fix code fails here on sprint.Cert.
func TestParentReissueDoesNotRaceChildPublish(t *testing.T) {
	ta := newTA(t, "63.0.0.0/8")
	sprint := addChild(t, ta, "sprint", "63.160.0.0/12")
	for i := 0; i < 10; i++ {
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			if err := ta.RollKey(); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := ta.ShrinkChild("sprint", ipres.MustParseSet("63.160.0.0/12")); err != nil {
				t.Error(err)
			}
		}()
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("r%d", i)
			if _, err := sprint.IssueROA(name, 1239, roa.MustParsePrefix("63.160.0.0/12")); err != nil {
				t.Error(err)
			}
		}(i)
		wg.Wait()
	}
}
