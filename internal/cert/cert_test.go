package cert

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/ipres"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC) // HotNets '13

func testValidity() (time.Time, time.Time) {
	return testEpoch.Add(-time.Hour), testEpoch.Add(365 * 24 * time.Hour)
}

// newTestTA builds a self-signed trust anchor holding resources.
func newTestTA(t *testing.T, resources string) (*ResourceCert, *KeyPair) {
	t.Helper()
	key := MustGenerateKeyPair()
	nb, na := testValidity()
	ta, err := Issue(Template{
		Subject:   "TA",
		Serial:    1,
		NotBefore: nb,
		NotAfter:  na,
		Resources: ipres.MustParseSet(resources),
		CA:        true,
		SIA:       InfoAccess{CARepository: "rsynclite://ta.example/repo/", Manifest: "rsynclite://ta.example/repo/ta.mft"},
	}, nil, key, key)
	if err != nil {
		t.Fatal(err)
	}
	return ta, key
}

func issueChild(t *testing.T, issuer *ResourceCert, issuerKey *KeyPair, subject, resources string, serial int64, ca bool) (*ResourceCert, *KeyPair) {
	t.Helper()
	key := MustGenerateKeyPair()
	nb, na := testValidity()
	rc, err := Issue(Template{
		Subject:   subject,
		Serial:    serial,
		NotBefore: nb,
		NotAfter:  na,
		Resources: ipres.MustParseSet(resources),
		CA:        ca,
		SIA:       InfoAccess{CARepository: "rsynclite://" + subject + ".example/repo/"},
	}, issuer, issuerKey, key)
	if err != nil {
		t.Fatal(err)
	}
	return rc, key
}

func TestIssueAndParseRoundTrip(t *testing.T) {
	ta, _ := newTestTA(t, "0.0.0.0/0, ::/0")
	back, err := Parse(ta.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject() != "TA" || !back.IsCA() {
		t.Errorf("subject/CA lost: %v %v", back.Subject(), back.IsCA())
	}
	if !back.IPSet().Equal(ipres.MustParseSet("0.0.0.0/0, ::/0")) {
		t.Errorf("resources lost: %v", back.IPSet())
	}
	if back.SIA.CARepository != "rsynclite://ta.example/repo/" {
		t.Errorf("SIA lost: %+v", back.SIA)
	}
	if back.SIA.Manifest != "rsynclite://ta.example/repo/ta.mft" {
		t.Errorf("manifest SIA lost: %+v", back.SIA)
	}
}

func TestValidateTrustAnchor(t *testing.T) {
	ta, _ := newTestTA(t, "0.0.0.0/0")
	res, err := ValidateTrustAnchor(ta, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ipres.MustParseSet("0.0.0.0/0")) {
		t.Errorf("got %v", res)
	}
	if _, err := ValidateTrustAnchor(ta, testEpoch.Add(400*24*time.Hour)); err == nil {
		t.Error("expired TA should fail")
	}
}

func TestValidateChildChain(t *testing.T) {
	ta, taKey := newTestTA(t, "0.0.0.0/0")
	arin, arinKey := issueChild(t, ta, taKey, "ARIN", "63.0.0.0/8, 8.0.0.0/8", 2, true)
	sprint, _ := issueChild(t, arin, arinKey, "Sprint", "63.160.0.0/12", 3, true)

	ctx := ValidationContext{Now: testEpoch}
	taRes, err := ValidateTrustAnchor(ta, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	arinRes, err := ValidateChild(ta, taRes, arin, ctx)
	if err != nil {
		t.Fatal(err)
	}
	sprintRes, err := ValidateChild(arin, arinRes, sprint, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sprintRes.Equal(ipres.MustParseSet("63.160.0.0/12")) {
		t.Errorf("got %v", sprintRes)
	}
}

func TestValidateChildOverclaim(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	// Child claims space the parent does not hold.
	child, _ := issueChild(t, ta, taKey, "greedy", "64.0.0.0/8", 2, true)
	_, err := ValidateChild(ta, ipres.MustParseSet("63.0.0.0/8"), child, ValidationContext{Now: testEpoch})
	if err == nil || !strings.Contains(err.Error(), "overclaim") {
		t.Errorf("want overclaim error, got %v", err)
	}
}

func TestValidateChildShrunkenParent(t *testing.T) {
	// The essence of Side Effect 3: the child was issued when the parent
	// held /12, but validation against a *shrunken* parent set fails.
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "Continental", "63.174.16.0/20", 2, true)
	full := ipres.MustParseSet("63.0.0.0/8")
	if _, err := ValidateChild(ta, full, child, ValidationContext{Now: testEpoch}); err != nil {
		t.Fatalf("should validate against full parent: %v", err)
	}
	shrunk := full.Subtract(ipres.MustParseSet("63.175.0.0/24")) // outside the child's /20
	if _, err := ValidateChild(ta, shrunk, child, ValidationContext{Now: testEpoch}); err != nil {
		t.Fatalf("hole outside child should not matter: %v", err)
	}
	shrunk2 := full.Subtract(ipres.MustParseSet("63.174.24.0/24")) // inside the child's /20
	if _, err := ValidateChild(ta, shrunk2, child, ValidationContext{Now: testEpoch}); err == nil {
		t.Fatal("hole inside child resources must invalidate")
	}
}

func TestValidateChildBadSignature(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	other, otherKey := newTestTA(t, "63.0.0.0/8")
	child, _ := issueChild(t, other, otherKey, "child", "63.1.0.0/16", 2, true)
	_, err := ValidateChild(ta, ipres.MustParseSet("63.0.0.0/8"), child, ValidationContext{Now: testEpoch})
	if err == nil {
		t.Error("cross-signed child should fail signature check")
	}
	_ = taKey
}

func TestValidateChildExpiryWindows(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "63.1.0.0/16", 2, false)
	res := ipres.MustParseSet("63.0.0.0/8")
	if _, err := ValidateChild(ta, res, child, ValidationContext{Now: testEpoch.Add(-2 * time.Hour)}); err == nil {
		t.Error("not-yet-valid child should fail")
	}
	if _, err := ValidateChild(ta, res, child, ValidationContext{Now: testEpoch.Add(366 * 24 * time.Hour)}); err == nil {
		t.Error("expired child should fail")
	}
}

func TestInheritResources(t *testing.T) {
	ta, taKey := newTestTA(t, "63.160.0.0/12")
	eeKey := MustGenerateKeyPair()
	nb, na := testValidity()
	ee, err := Issue(Template{
		Subject:   "ee",
		Serial:    9,
		NotBefore: nb,
		NotAfter:  na,
		InheritIP: true,
		SIA:       InfoAccess{SignedObject: "rsynclite://ta.example/repo/obj.roa"},
	}, ta, taKey, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ValidateChild(ta, ipres.MustParseSet("63.160.0.0/12"), ee, ValidationContext{Now: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(ipres.MustParseSet("63.160.0.0/12")) {
		t.Errorf("inherited resources = %v", res)
	}
}

func TestInheritAtAnchorRejected(t *testing.T) {
	key := MustGenerateKeyPair()
	nb, na := testValidity()
	ta, err := Issue(Template{
		Subject: "bad-ta", Serial: 1, NotBefore: nb, NotAfter: na,
		InheritIP: true, CA: true,
	}, nil, key, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrustAnchor(ta, testEpoch); err == nil {
		t.Error("inherit at anchor must be rejected")
	}
}

func TestCRLRevocation(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "63.1.0.0/16", 7, true)
	crl, err := IssueCRL(ta, taKey, 1, []*big.Int{big.NewInt(7)}, testEpoch, testEpoch.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := crl.VerifySignature(ta); err != nil {
		t.Fatal(err)
	}
	if !crl.IsRevoked(big.NewInt(7)) || crl.IsRevoked(big.NewInt(8)) {
		t.Error("revocation lookup wrong")
	}
	ctx := ValidationContext{Now: testEpoch, CRL: crl}
	if _, err := ValidateChild(ta, ipres.MustParseSet("63.0.0.0/8"), child, ctx); err == nil {
		t.Error("revoked child must fail validation")
	}
	// An empty CRL clears it.
	crl2, err := IssueCRL(ta, taKey, 2, nil, testEpoch, testEpoch.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx.CRL = crl2
	if _, err := ValidateChild(ta, ipres.MustParseSet("63.0.0.0/8"), child, ctx); err != nil {
		t.Errorf("unrevoked child should pass: %v", err)
	}
}

func TestCRLStaleness(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	child, _ := issueChild(t, ta, taKey, "child", "63.1.0.0/16", 7, true)
	crl, err := IssueCRL(ta, taKey, 1, nil, testEpoch.Add(-48*time.Hour), testEpoch.Add(-24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !crl.Stale(testEpoch) {
		t.Fatal("CRL should be stale")
	}
	ctx := ValidationContext{Now: testEpoch, CRL: crl, RequireFreshCRL: true}
	if _, err := ValidateChild(ta, ipres.MustParseSet("63.0.0.0/8"), child, ctx); err == nil {
		t.Error("stale CRL must fail when freshness required")
	}
	ctx.RequireFreshCRL = false
	if _, err := ValidateChild(ta, ipres.MustParseSet("63.0.0.0/8"), child, ctx); err != nil {
		t.Errorf("lenient mode should pass: %v", err)
	}
}

func TestParseRejectsNonRPKI(t *testing.T) {
	if _, err := Parse([]byte{0x30, 0x03, 0x02, 0x01, 0x01}); err == nil {
		t.Error("garbage should fail")
	}
}

func TestIssueValidation(t *testing.T) {
	key := MustGenerateKeyPair()
	nb, na := testValidity()
	if _, err := Issue(Template{Subject: "x", Serial: 1, NotBefore: na, NotAfter: nb, CA: true, Resources: ipres.MustParseSet("10.0.0.0/8")}, nil, key, key); err == nil {
		t.Error("inverted validity should fail")
	}
	if _, err := Issue(Template{Subject: "x", Serial: 1, NotBefore: nb, NotAfter: na, CA: true, Resources: ipres.MustParseSet("10.0.0.0/8")}, nil, nil, key); err == nil {
		t.Error("nil key should fail")
	}
}

func TestKeyPairSKI(t *testing.T) {
	k := MustGenerateKeyPair()
	if len(k.SKI()) != 20 || len(k.SKIString()) != 40 {
		t.Error("SKI shape wrong")
	}
	k2 := MustGenerateKeyPair()
	if k.SKIString() == k2.SKIString() {
		t.Error("distinct keys must have distinct SKIs")
	}
}

func TestASNsOnCert(t *testing.T) {
	key := MustGenerateKeyPair()
	nb, na := testValidity()
	ta, err := Issue(Template{
		Subject: "ta", Serial: 1, NotBefore: nb, NotAfter: na, CA: true,
		Resources: ipres.MustParseSet("10.0.0.0/8"),
		ASNs:      ipres.ASNSetOf(1239, 7018),
	}, nil, key, key)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(ta.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ASNs.Set.Contains(1239) || !back.ASNs.Set.Contains(7018) || back.ASNs.Set.Contains(3356) {
		t.Errorf("ASNs lost: %v", back.ASNs.Set)
	}
}

func TestIssueForKeyWithoutPrivateKey(t *testing.T) {
	// The deep-whack primitive: issuing a certificate for a key whose
	// private half the issuer does NOT hold.
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	victim := MustGenerateKeyPair() // pretend we only know the public key
	nb, na := testValidity()
	rc, err := IssueForKey(Template{
		Subject: "victim", Serial: 9, NotBefore: nb, NotAfter: na,
		Resources: ipres.MustParseSet("63.1.0.0/16"), CA: true,
	}, ta, taKey, victim.Public())
	if err != nil {
		t.Fatal(err)
	}
	if string(rc.Cert.SubjectKeyId) != string(victim.SKI()) {
		t.Error("SKI must derive from the subject's public key")
	}
	if err := rc.Cert.CheckSignatureFrom(ta.Cert); err != nil {
		t.Errorf("must chain from issuer: %v", err)
	}
	// Objects signed by the victim's key validate under the new cert.
	childCert, err := Issue(Template{
		Subject: "grandchild", Serial: 1, NotBefore: nb, NotAfter: na,
		Resources: ipres.MustParseSet("63.1.1.0/24"), CA: true,
	}, rc, victim, MustGenerateKeyPair())
	if err != nil {
		t.Fatal(err)
	}
	if err := childCert.Cert.CheckSignatureFrom(rc.Cert); err != nil {
		t.Errorf("victim-signed object must chain under the replacement: %v", err)
	}
	if _, err := IssueForKey(Template{Subject: "x", Serial: 1, NotBefore: nb, NotAfter: na,
		Resources: ipres.MustParseSet("10.0.0.0/8")}, ta, taKey, nil); err == nil {
		t.Error("nil public key must fail")
	}
}

func TestEffectiveResourcesMixedInherit(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8, 2001:db8::/32")
	key := MustGenerateKeyPair()
	nb, na := testValidity()
	// Explicit IPv4, no IPv6 family at all.
	rc, err := Issue(Template{
		Subject: "v4only", Serial: 5, NotBefore: nb, NotAfter: na,
		Resources: ipres.MustParseSet("63.1.0.0/16"), CA: true,
	}, ta, taKey, key)
	if err != nil {
		t.Fatal(err)
	}
	eff := EffectiveResources(rc, ipres.MustParseSet("63.0.0.0/8, 2001:db8::/32"))
	if !eff.Equal(ipres.MustParseSet("63.1.0.0/16")) {
		t.Errorf("effective = %v", eff)
	}
}

// TestParseRejectsForeignSubjectKeyID: a certificate whose subject key
// identifier is not the SHA-1 of its own subjectPublicKeyInfo is refused —
// verdicts are keyed by that identifier, so one carried over to a new key
// would vouch for signatures the new key never made. Every identifier Issue
// writes is the one Parse recomputes.
func TestParseRejectsForeignSubjectKeyID(t *testing.T) {
	ta, taKey := newTestTA(t, "63.0.0.0/8")
	child, childKey := issueChild(t, ta, taKey, "child", "63.1.0.0/16", 2, true)
	if !bytes.Equal(child.Cert.SubjectKeyId, skiForSPKI(child.Cert.RawSubjectPublicKeyInfo)) ||
		!bytes.Equal(child.Cert.SubjectKeyId, childKey.SKI()) {
		t.Fatal("Issue wrote an identifier Parse does not recompute")
	}

	// The parent reissues the child for a new key under the old identifier.
	tmpl := *child.Cert
	tmpl.SerialNumber = big.NewInt(3)
	tmpl.ExtraExtensions = child.Cert.Extensions // the SKI extension included
	newKey := MustGenerateKeyPair()
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, ta.Cert, newKey.Public(), taKey.Private)
	if err != nil {
		t.Fatal(err)
	}
	x, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.SubjectKeyId, child.Cert.SubjectKeyId) {
		t.Fatal("the reissue did not keep the old identifier")
	}
	if _, err := Parse(der); err == nil || !strings.Contains(err.Error(), "subject key identifier") {
		t.Fatalf("a certificate naming another key's identifier parsed: %v", err)
	}
}
