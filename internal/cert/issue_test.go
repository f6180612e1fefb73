package cert

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/x509"
	"crypto/x509/pkix"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/rfc3779"
)

// x509Certificate is the oracle for IssueForKey: the same template put
// through x509.CreateCertificate. A nil rand makes its ECDSA signature
// RFC 6979's deterministic one, as IssueForKey's is, so the two must be
// byte for byte equal.
func x509Certificate(tmpl Template, issuer *ResourceCert, issuerKey *KeyPair, subjectPub *ecdsa.PublicKey) ([]byte, error) {
	var ipb rfc3779.IPAddrBlocks
	if tmpl.InheritIP {
		ipb = rfc3779.IPAddrBlocks{V4: &rfc3779.IPChoice{Inherit: true}, V6: &rfc3779.IPChoice{Inherit: true}}
	} else {
		ipb = rfc3779.FromSet(tmpl.Resources)
	}
	ipDER, err := rfc3779.MarshalIPAddrBlocks(ipb)
	if err != nil {
		return nil, err
	}
	extensions := []pkix.Extension{{Id: rfc3779.OIDIPAddrBlocks, Critical: true, Value: ipDER}}
	if tmpl.InheritAS || !tmpl.ASNs.IsEmpty() {
		asDER, err := rfc3779.MarshalASIdentifiers(rfc3779.ASChoice{Inherit: tmpl.InheritAS, Set: tmpl.ASNs})
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: rfc3779.OIDASIdentifiers, Critical: true, Value: asDER})
	}
	if tmpl.SIA != (InfoAccess{}) {
		siaDER, err := marshalInfoAccess(tmpl.SIA)
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: oidSIA, Value: siaDER})
	}
	if tmpl.AIACAIssuers != "" {
		aiaDER, err := marshalInfoAccess(InfoAccess{CAIssuers: tmpl.AIACAIssuers})
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: oidAIA, Value: aiaDER})
	}
	spki, err := x509.MarshalPKIXPublicKey(subjectPub)
	if err != nil {
		return nil, err
	}
	x := &x509.Certificate{
		SerialNumber:          big.NewInt(tmpl.Serial),
		Subject:               pkix.Name{CommonName: tmpl.Subject},
		NotBefore:             tmpl.NotBefore,
		NotAfter:              tmpl.NotAfter,
		BasicConstraintsValid: true,
		IsCA:                  tmpl.CA,
		SubjectKeyId:          skiForSPKI(spki),
		ExtraExtensions:       extensions,
		SignatureAlgorithm:    x509.ECDSAWithSHA256,
		KeyUsage:              x509.KeyUsageDigitalSignature,
	}
	if tmpl.CA {
		x.KeyUsage = x509.KeyUsageCertSign | x509.KeyUsageCRLSign
	}
	if tmpl.CRLDistributionPoint != "" {
		x.CRLDistributionPoints = []string{tmpl.CRLDistributionPoint}
	}
	parent := x
	if issuer != nil {
		parent = issuer.Cert
		x.AuthorityKeyId = issuer.Cert.SubjectKeyId
	}
	return x509.CreateCertificate(nil, x, parent, subjectPub, issuerKey.Private)
}

// x509CRL is the oracle for IssueCRL.
func x509CRL(issuer *ResourceCert, issuerKey *KeyPair, number int64, revoked []pkix.RevokedCertificate, thisUpdate, nextUpdate time.Time) ([]byte, error) {
	entries := make([]x509.RevocationListEntry, len(revoked))
	for i, r := range revoked {
		entries[i] = x509.RevocationListEntry{SerialNumber: r.SerialNumber, RevocationTime: r.RevocationTime}
	}
	return x509.CreateRevocationList(nil, &x509.RevocationList{
		Number:                    big.NewInt(number),
		ThisUpdate:                thisUpdate,
		NextUpdate:                nextUpdate,
		RevokedCertificateEntries: entries,
		SignatureAlgorithm:        x509.ECDSAWithSHA256,
	}, issuer.Cert, issuerKey.Private)
}

// issueFixture is a small hierarchy covering every issuer the repository
// has: a trust anchor, a CA under it and an EE under that.
type issueFixture struct {
	nb, na       time.Time
	taTmpl       Template
	ta, ca, ee   *ResourceCert
	taKey, caKey *KeyPair
	eeKey        *KeyPair
}

func newIssueFixture(t *testing.T) *issueFixture {
	t.Helper()
	f := &issueFixture{taKey: MustGenerateKeyPair(), caKey: MustGenerateKeyPair(), eeKey: MustGenerateKeyPair()}
	f.nb, f.na = testValidity()
	f.taTmpl = Template{
		Subject: "iana", Serial: 1, NotBefore: f.nb, NotAfter: f.na, CA: true,
		Resources: ipres.MustParseSet("0.0.0.0/0, ::/0"),
		SIA:       InfoAccess{CARepository: "rsynclite://iana.example/iana/", Manifest: "rsynclite://iana.example/iana/iana.mft"},
	}
	var err error
	if f.ta, err = Issue(f.taTmpl, nil, f.taKey, f.taKey); err != nil {
		t.Fatal(err)
	}
	if f.ca, err = Issue(f.caTemplate(), f.ta, f.taKey, f.caKey); err != nil {
		t.Fatal(err)
	}
	if f.ee, err = Issue(f.eeTemplate(), f.ca, f.caKey, f.eeKey); err != nil {
		t.Fatal(err)
	}
	return f
}

// caTemplate is a child CA as ca.Authority issues one.
func (f *issueFixture) caTemplate() Template {
	return Template{
		Subject: "rir-0", Serial: 2, NotBefore: f.nb, NotAfter: f.na, CA: true,
		Resources:            ipres.MustParseSet("8.0.0.0/8, 2001:db8::/32"),
		SIA:                  InfoAccess{CARepository: "rsynclite://rir-0.example/rir-0/", Manifest: "rsynclite://rir-0.example/rir-0/rir-0.mft"},
		CRLDistributionPoint: "rsynclite://iana.example/iana/iana.crl",
		AIACAIssuers:         "rsynclite://iana.example/iana/iana.cer",
	}
}

// eeTemplate is a ROA's EE as ca.Authority issues one.
func (f *issueFixture) eeTemplate() Template {
	return Template{
		Subject: "rir-0-ee-7", Serial: 7, NotBefore: f.nb, NotAfter: f.na,
		Resources:            ipres.MustParseSet("8.0.240.0/20"),
		SIA:                  InfoAccess{SignedObject: "rsynclite://rir-0.example/rir-0/r.roa"},
		CRLDistributionPoint: "rsynclite://rir-0.example/rir-0/rir-0.crl",
		AIACAIssuers:         "rsynclite://iana.example/iana/rir-0.cer",
	}
}

// TestIssueMatchesX509: for every shape of certificate and CRL the
// repository issues, IssueForKey and IssueCRL produce exactly the DER that
// crypto/x509 produces from the same input and keys, and it verifies under
// its issuer.
func TestIssueMatchesX509(t *testing.T) {
	f := newIssueFixture(t)
	rolled, victim := MustGenerateKeyPair(), MustGenerateKeyPair()

	roll := f.taTmpl
	roll.Serial = 9
	roll.Resources = f.ta.IPSet()
	mft := f.eeTemplate()
	mft.Subject, mft.Serial, mft.Resources, mft.InheritIP = "rir-0-mft-ee-3", 8, ipres.Set{}, true
	mft.SIA = InfoAccess{SignedObject: "rsynclite://rir-0.example/rir-0/rir-0.mft"}
	asCA := f.caTemplate()
	asCA.Subject, asCA.ASNs = "as-holder", ipres.NewASNSet(ipres.ASNRange{Lo: 64500, Hi: 64599}, ipres.ASNRange{Lo: 4_200_000_000, Hi: 4_200_000_000})
	asInherit := f.eeTemplate()
	asInherit.InheritIP, asInherit.InheritAS, asInherit.Resources = true, true, ipres.Set{}
	adopt := f.caTemplate()
	adopt.Subject, adopt.Serial, adopt.Resources = "rir-0-isp-3", 1<<40, ipres.MustParseSet("8.3.0.0/16")
	zoned := f.eeTemplate()
	zoned.Subject = "zoned-ünïcode"
	zoned.NotBefore = f.nb.In(time.FixedZone("UTC+5", 5*3600))
	zoned.NotAfter = time.Date(2051, 1, 1, 0, 0, 0, 0, time.UTC) // GeneralizedTime

	rows := []struct {
		name      string
		tmpl      Template
		issuer    *ResourceCert
		issuerKey *KeyPair
		subject   *ecdsa.PublicKey
	}{
		{"trust anchor", f.taTmpl, nil, f.taKey, f.taKey.Public()},
		{"child CA", f.caTemplate(), f.ta, f.taKey, f.caKey.Public()},
		{"EE with explicit resources", f.eeTemplate(), f.ca, f.caKey, f.eeKey.Public()},
		{"manifest EE that inherits", mft, f.ca, f.caKey, MustGenerateKeyPair().Public()},
		{"AS resources", asCA, f.ta, f.taKey, MustGenerateKeyPair().Public()},
		{"AS inherit", asInherit, f.ca, f.caKey, MustGenerateKeyPair().Public()},
		{"trust-anchor key roll", roll, nil, rolled, rolled.Public()},
		{"IssueForKey adoption", adopt, f.ta, f.taKey, victim.Public()},
		{"zoned validity, GeneralizedTime, UTF-8 subject", zoned, f.ca, f.caKey, MustGenerateKeyPair().Public()},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got, err := IssueForKey(r.tmpl, r.issuer, r.issuerKey, r.subject)
			if err != nil {
				t.Fatal(err)
			}
			want, err := x509Certificate(r.tmpl, r.issuer, r.issuerKey, r.subject)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Raw, want) {
				t.Fatalf("DER differs from x509.CreateCertificate:\n got %x\nwant %x", got.Raw, want)
			}
			parent := got
			if r.issuer != nil {
				parent = r.issuer
			}
			if err := got.Cert.CheckSignatureFrom(parent.Cert); err != nil {
				t.Errorf("does not verify under its issuer: %v", err)
			}
		})
	}

	// Each entry keeps the time its serial was revoked, before the CRL's
	// thisUpdate, in UTCTime and in GeneralizedTime.
	many := make([]pkix.RevokedCertificate, 300)
	for i := range many {
		many[i] = pkix.RevokedCertificate{SerialNumber: big.NewInt(int64(i)*7919 + 1), RevocationTime: testEpoch.Add(-time.Duration(300-i) * time.Hour)}
	}
	many[150].SerialNumber = big.NewInt(math.MaxInt64)
	many[299].SerialNumber = new(big.Int).Lsh(big.NewInt(1), 64) // beyond any int64 serial
	many[42].RevocationTime = many[42].RevocationTime.In(time.FixedZone("UTC+9", 9*3600))
	many[7].RevocationTime = time.Date(1949, 12, 31, 23, 59, 59, 0, time.UTC) // GeneralizedTime
	crls := []struct {
		name    string
		issuer  *ResourceCert
		key     *KeyPair
		number  int64
		revoked []pkix.RevokedCertificate
		this    time.Time
	}{
		{"trust anchor, 0 serials", f.ta, f.taKey, 1, nil, testEpoch},
		{"CA, 1 serial", f.ca, f.caKey, 2, []pkix.RevokedCertificate{{SerialNumber: big.NewInt(7), RevocationTime: testEpoch.Add(-36 * time.Hour)}}, testEpoch},
		{"CA, 300 serials", f.ca, f.caKey, math.MaxInt64, many, testEpoch.In(time.FixedZone("UTC-3", -3*3600))},
	}
	for _, c := range crls {
		t.Run("CRL/"+c.name, func(t *testing.T) {
			next := c.this.Add(24 * time.Hour)
			got, err := IssueCRL(c.issuer, c.key, c.number, c.revoked, c.this, next)
			if err != nil {
				t.Fatal(err)
			}
			want, err := x509CRL(c.issuer, c.key, c.number, c.revoked, c.this, next)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Raw, want) {
				t.Fatalf("DER differs from x509.CreateRevocationList:\n got %x\nwant %x", got.Raw, want)
			}
			if err := got.VerifySignature(c.issuer); err != nil {
				t.Errorf("does not verify under its issuer: %v", err)
			}
			if n := len(got.List.RevokedCertificateEntries); n != len(c.revoked) {
				t.Fatalf("%d entries, want %d", n, len(c.revoked))
			}
			for i, e := range got.List.RevokedCertificateEntries {
				if !e.RevocationTime.Equal(c.revoked[i].RevocationTime) {
					t.Errorf("entry %d revoked at %v, want %v", i, e.RevocationTime, c.revoked[i].RevocationTime)
				}
			}
		})
	}
}

// TestIssueRefusesWhatX509Refuses: every input crypto/x509 refuses that
// the repository's templates can reach, issuance refuses too.
func TestIssueRefusesWhatX509Refuses(t *testing.T) {
	f := newIssueFixture(t)
	negative := f.taTmpl
	negative.Serial = -1
	offCurve := &ecdsa.PublicKey{Curve: elliptic.P256(), X: big.NewInt(1), Y: big.NewInt(1)}
	certs := []struct {
		name      string
		tmpl      Template
		issuer    *ResourceCert
		issuerKey *KeyPair
		subject   *ecdsa.PublicKey
	}{
		{"negative serial", negative, nil, f.taKey, f.taKey.Public()},
		{"child signed by a key not the issuer's", f.caTemplate(), f.ta, f.caKey, f.caKey.Public()},
		{"subject key off its curve", f.eeTemplate(), f.ca, f.caKey, offCurve},
	}
	for _, c := range certs {
		if _, err := x509Certificate(c.tmpl, c.issuer, c.issuerKey, c.subject); err == nil {
			t.Errorf("%s: x509 accepted it", c.name)
		}
		if _, err := IssueForKey(c.tmpl, c.issuer, c.issuerKey, c.subject); err == nil {
			t.Errorf("%s: issued", c.name)
		}
	}

	noSKI := *f.ca.Cert
	noSKI.SubjectKeyId = nil
	next := testEpoch.Add(time.Hour)
	crls := []struct {
		name       string
		issuer     *ResourceCert
		key        *KeyPair
		revoked    []pkix.RevokedCertificate
		this, next time.Time
	}{
		{"issuer without cRLSign", f.ee, f.eeKey, nil, testEpoch, next},
		{"issuer without a subject key identifier", &ResourceCert{Cert: &noSKI}, f.caKey, nil, testEpoch, next},
		{"thisUpdate after nextUpdate", f.ca, f.caKey, nil, next, testEpoch},
		{"nil revoked serial", f.ca, f.caKey, []pkix.RevokedCertificate{{SerialNumber: big.NewInt(1), RevocationTime: testEpoch}, {RevocationTime: testEpoch}}, testEpoch, next},
		{"zero revocation time", f.ca, f.caKey, []pkix.RevokedCertificate{{SerialNumber: big.NewInt(1), RevocationTime: testEpoch}, {SerialNumber: big.NewInt(2)}}, testEpoch, next},
	}
	for _, c := range crls {
		if _, err := x509CRL(c.issuer, c.key, 1, c.revoked, c.this, c.next); err == nil {
			t.Errorf("CRL %s: x509 accepted it", c.name)
		}
		if _, err := IssueCRL(c.issuer, c.key, 1, c.revoked, c.this, c.next); err == nil {
			t.Errorf("CRL %s: issued", c.name)
		}
	}
}

// TestIssueRejectsWrongIssuerKey: a certificate or CRL is signed only by
// the key its issuer's certificate names. crypto/x509 checks this for a
// child alone: it signs a trust anchor with any key, and a CRL too, and
// verifies the result against the signer's own key, so neither slip was
// refused while issuance ran through it.
func TestIssueRejectsWrongIssuerKey(t *testing.T) {
	f := newIssueFixture(t)
	other := MustGenerateKeyPair()
	rows := []struct {
		name  string
		issue func() error
	}{
		{"trust anchor", func() error {
			_, err := Issue(f.taTmpl, nil, other, f.taKey)
			return err
		}},
		{"child", func() error {
			_, err := Issue(f.caTemplate(), f.ta, other, f.caKey)
			return err
		}},
		{"CRL", func() error {
			_, err := IssueCRL(f.ta, other, 1, nil, testEpoch, testEpoch.Add(time.Hour))
			return err
		}},
	}
	for _, r := range rows {
		if err := r.issue(); err == nil {
			t.Errorf("%s signed by a foreign key: %v", r.name, err)
		}
	}
}

// TestNoX509CreateInIssuance: issuance encodes and signs its own TBS, so
// no non-test file of cert or ca calls x509.CreateCertificate or
// x509.CreateRevocationList. Each call verified the signature it had just
// made: 3 ECDSA verifications per ROA issue and 2 per republish, now 0.
func TestNoX509CreateInIssuance(t *testing.T) {
	for _, dir := range []string{".", "../ca"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			file, err := parser.ParseFile(fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "x509" &&
					(sel.Sel.Name == "CreateCertificate" || sel.Sel.Name == "CreateRevocationList") {
					t.Errorf("%s: x509.%s is back in issuance", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
