package rp

// Gates on the per-point verdict cache: one verdict per object, signed
// objects included, so a revalidated point re-verifies only what changed
// and answers every other object without a signature check; and on the
// verdicts that decide which CRL a point is judged by.

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/repo"
	"repro/internal/roa"
)

// republish re-signs a's manifest and CRL over whatever its store now
// holds.
func republish(t *testing.T, a *ca.Authority) {
	t.Helper()
	a.BeginBulk()
	if err := a.EndBulk(); err != nil {
		t.Fatal(err)
	}
}

// findDiag returns the diagnostic of kind on module/object, if any.
func findDiag(res *Result, kind DiagKind, module, object string) (Diagnostic, bool) {
	for _, d := range res.Diagnostics {
		if d.Kind == kind && d.Module == module && d.Object == object {
			return d, true
		}
	}
	return Diagnostic{}, false
}

// TestSteadyChurnPointVerifications pins the signature work of one
// revalidation of a point shaped like the steady_churn workload's ISP (10
// ROAs, 10 child CAs): a ROA added costs 3 verdict misses (manifest, CRL,
// the new ROA) and 5 ECDSA verifications; a ROA removed 2 misses and 3
// verifications. Every other object is a verdict hit and verifies nothing.
// (While the CMS envelope was checked outside the cache, the same changes
// cost 15 and 13 verifications: one more per ROA and for the manifest.)
// Verdicts held equal the point's objects before and after.
func TestSteadyChurnPointVerifications(t *testing.T) {
	cfg := ca.Config{Clock: clock}
	stores := StoreFetcher{}
	newStore := func(module string) (*repo.Store, repo.URI) {
		stores[module] = repo.NewStore()
		return stores[module], repo.URI{Host: module + ".example:8873", Module: module}
	}
	taStore, taURI := newStore("ta")
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("10.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ispStore, ispURI := newStore("isp")
	isp, err := ta.CreateChild("isp", ipres.MustParseSet("10.0.0.0/11"), ispStore, ispURI)
	if err != nil {
		t.Fatal(err)
	}
	isp.BeginBulk()
	for i := 0; i < 10; i++ {
		childStore, childURI := newStore(fmt.Sprintf("cust-%d", i))
		if _, err := isp.CreateChild(childURI.Module, ipres.MustParseSet(fmt.Sprintf("10.%d.0.0/16", i)), childStore, childURI); err != nil {
			t.Fatal(err)
		}
		mustROA(t, isp, fmt.Sprintf("r%d", i), ipres.ASN(64500+i), fmt.Sprintf("10.%d.0.0/16", 10+i))
	}
	if err := isp.EndBulk(); err != nil {
		t.Fatal(err)
	}

	v := New(Config{Fetcher: stores, Clock: clock, Workers: 2}, TrustAnchor{CertDER: ta.Cert.Raw, URI: ta.URI})
	cold := syncReuse(t, v)
	// Each manifest and ROA is two verifications, each certificate and CRL
	// one: 12 manifests, 10 ROAs, 11 CAs under the anchor, 12 CRLs.
	if got, want := Verifications(cold), 2*(12+10)+11+12; got != want {
		t.Errorf("cold sync: %d verifications, want %d", got, want)
	}
	if got, want := PointVerdicts(v, "isp"), ispStore.Len(); got != want {
		t.Errorf("cold: isp holds %d verdicts for %d objects", got, want)
	}
	for _, step := range []struct {
		name                  string
		change                func() error
		verifications, misses int
	}{
		{"add", func() error { _, err := isp.IssueROA("churn", 64999, roa.MustParsePrefix("10.25.0.0/16")); return err }, 5, 3},
		{"remove", func() error { return isp.DeleteROA("churn") }, 3, 2},
	} {
		if err := step.change(); err != nil {
			t.Fatal(err)
		}
		res := syncReuse(t, v)
		if res.ModulesRevalidated != 1 || Verifications(res) != step.verifications || res.VerifyCacheMisses != step.misses {
			t.Errorf("%s: %d revalidated, %d verifications, %d misses; want 1, %d, %d", step.name,
				res.ModulesRevalidated, Verifications(res), res.VerifyCacheMisses, step.verifications, step.misses)
		}
		if got, want := PointVerdicts(v, "isp"), ispStore.Len(); got != want {
			t.Errorf("%s: isp holds %d verdicts for %d objects", step.name, got, want)
		}
		if got, want := fingerprint(res), fingerprint(syncReuse(t, New(Config{Fetcher: stores, Clock: clock},
			TrustAnchor{CertDER: ta.Cert.Raw, URI: ta.URI}))); got != want {
			t.Errorf("%s: warm sync diverged from cold:\n--- warm ---\n%s--- cold ---\n%s", step.name, got, want)
		}
	}
}

// rogueSignedROA is a ROA whose CMS envelope is good but whose EE
// certificate, issued under a's name, another key signed.
func rogueSignedROA(t *testing.T, a *ca.Authority) []byte {
	t.Helper()
	rogueKey := cert.MustGenerateKeyPair()
	rogue, err := cert.Issue(cert.Template{
		Subject:   a.Name,
		Serial:    1,
		NotBefore: testEpoch.Add(-time.Hour),
		NotAfter:  testEpoch.Add(24 * time.Hour),
		Resources: a.Resources(),
		CA:        true,
	}, nil, rogueKey, rogueKey)
	if err != nil {
		t.Fatal(err)
	}
	eeKey := cert.MustGenerateKeyPair()
	r := roa.MustNew(7341, roa.MustParsePrefix("63.174.16.0/22"))
	ee, err := cert.Issue(cert.Template{
		Subject:   "rogue-ee",
		Serial:    1 << 40,
		NotBefore: testEpoch.Add(-time.Hour),
		NotAfter:  testEpoch.Add(24 * time.Hour),
		Resources: r.ResourceSet(),
		SIA:       cert.InfoAccess{SignedObject: a.URI.ObjectURI("cont-22.roa")},
	}, rogue, rogueKey, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	der, err := r.Sign(ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// TestVerdictMatrix: what one ROA costs on a warm revalidation of its
// point, and that the warm outcome is the cold one. The point's manifest
// and CRL are re-signed in every case (2 misses, 3 verifications); the ROA
// adds nothing when unchanged, a miss of one verification when its envelope
// signature fails (the diagnostic a cold parse gives), a miss of two when
// only its EE's signature fails, and — re-keyed issuer — a miss on the very
// same bytes, since the verdict is keyed by the issuer's key identifier.
func TestVerdictMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		// serve changes continental's point and returns the bytes to serve
		// as cont-22.roa.
		serve                 func(t *testing.T, cont *ca.Authority, orig []byte) []byte
		verifications, misses int
		check                 func(t *testing.T, d Diagnostic, found bool)
	}{
		{
			name:          "unchanged",
			serve:         func(_ *testing.T, _ *ca.Authority, orig []byte) []byte { return orig },
			verifications: 3, misses: 2,
			check: func(t *testing.T, d Diagnostic, found bool) {
				if found {
					t.Errorf("unchanged ROA diagnosed: %v", d)
				}
			},
		},
		{
			name: "flipped CMS signature byte",
			serve: func(_ *testing.T, _ *ca.Authority, orig []byte) []byte {
				forged := bytes.Clone(orig)
				forged[len(forged)-1] ^= 0x01 // the signature is the envelope's last field
				return forged
			},
			verifications: 4, misses: 3,
			check: func(t *testing.T, d Diagnostic, found bool) {
				if !found || d.Err.Error() != "cms: signature verification failed" {
					t.Errorf("want the envelope's own diagnostic, got %v (found %v)", d, found)
				}
			},
		},
		{
			name:          "bad EE signature, good CMS signature",
			serve:         func(t *testing.T, cont *ca.Authority, _ []byte) []byte { return rogueSignedROA(t, cont) },
			verifications: 5, misses: 3,
			check: func(t *testing.T, d Diagnostic, found bool) {
				if !found || !errors.Is(d.Err, cert.ErrBadSignature) {
					t.Errorf("want ErrBadSignature, got %v (found %v)", d, found)
				}
			},
		},
		{
			// Every object of both points is re-signed but sprint's two ROAs
			// and etb.cer: sprint misses its manifest, CRL and continental.cer
			// (4 verifications); continental misses all 7 of its objects,
			// cont-22 included (2+1+4×2+2 = 13).
			name: "same bytes, re-keyed issuer",
			serve: func(t *testing.T, cont *ca.Authority, orig []byte) []byte {
				if err := cont.RollKey(); err != nil {
					t.Fatal(err)
				}
				return orig
			},
			verifications: 17, misses: 10,
			check: func(t *testing.T, d Diagnostic, found bool) {
				if !found || !errors.Is(d.Err, cert.ErrBadSignature) {
					t.Errorf("want ErrBadSignature, got %v (found %v)", d, found)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arin, _, cont, stores := buildFigure2(t)
			store := stores["continental"]
			warm := New(Config{Fetcher: stores, Clock: clock, Workers: 2}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
			syncReuse(t, warm)
			orig, _ := store.Get("cont-22.roa")
			served := tc.serve(t, cont, bytes.Clone(orig))
			store.Put("cont-22.roa", served)
			republish(t, cont)

			res := syncReuse(t, warm)
			if Verifications(res) != tc.verifications || res.VerifyCacheMisses != tc.misses {
				t.Errorf("%d verifications, %d misses; want %d, %d", Verifications(res), res.VerifyCacheMisses, tc.verifications, tc.misses)
			}
			d, found := findDiag(res, DiagInvalidObject, "continental", "cont-22.roa")
			tc.check(t, d, found)
			if got, want := fingerprint(res), fingerprint(syncWithWorkers(t, arin, stores, 2)); got != want {
				t.Errorf("warm diverged from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
			}
		})
	}
}

// TestWarmMatchesColdOverMutants replays the attack campaign's byte-flip
// sweeps (mutate/cms-envelope, mutate/manifest-bytes: every 7th byte
// flipped with 0x55) against one warm relying party: each mutant of a ROA
// and of a manifest is served both as is and, for the ROA, re-listed on a
// re-signed manifest so it reaches the parse and its verdict. The warm
// outcome must be the cold one every time — a verdict answers only for
// the bytes it was computed on.
func TestWarmMatchesColdOverMutants(t *testing.T) {
	stride := 7
	if testing.Short() {
		stride = 41
	}
	arin, _, cont, stores := buildFigure2(t)
	store := stores["continental"]
	warm := New(Config{Fetcher: stores, Clock: clock, Workers: 2}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	syncReuse(t, warm)
	for _, target := range []struct {
		name   string
		relist bool
	}{
		{"cont-22.roa", false},
		{"cont-22.roa", true},
		{"continental.mft", false},
	} {
		orig, _ := store.Get(target.name)
		orig = bytes.Clone(orig)
		for pos := 0; pos < len(orig); pos += stride {
			mutant := bytes.Clone(orig)
			mutant[pos] ^= 0x55
			store.Put(target.name, mutant)
			if target.relist {
				republish(t, cont)
			}
			if got, want := fingerprint(syncReuse(t, warm)), fingerprint(syncWithWorkers(t, arin, stores, 2)); got != want {
				t.Fatalf("%s (relisted %v), byte %d flipped: warm diverged from cold:\n--- warm ---\n%s--- cold ---\n%s",
					target.name, target.relist, pos, got, want)
			}
		}
		store.Put(target.name, orig)
		republish(t, cont)
	}
}

// TestRekeyUnderOldSKI: a parent reissues a child CA for a new key under
// the old subject key identifier. Every verdict is keyed by the issuer's
// identifier, so a warm relying party revalidating the child's unchanged
// point would answer its objects from verdicts made under the old key and
// keep what a cold one rejects. Parse refuses the certificate instead, so
// warm and cold agree: the child's subtree is gone in both.
func TestRekeyUnderOldSKI(t *testing.T) {
	arin, sprint, cont, stores := buildFigure2(t)
	warm := New(Config{Fetcher: stores, Clock: clock, Workers: 2}, TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	syncReuse(t, warm)

	tmpl := *cont.Cert.Cert
	tmpl.SerialNumber = big.NewInt(1 << 40)
	tmpl.ExtraExtensions = cont.Cert.Cert.Extensions // the old identifier included
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, sprint.Cert.Cert, cert.MustGenerateKeyPair().Public(), sprint.Key.Private)
	if err != nil {
		t.Fatal(err)
	}
	stores["sprint"].Put(cont.CertFileName(), der)
	republish(t, sprint)

	res := syncReuse(t, warm)
	if got, want := fingerprint(res), fingerprint(syncWithWorkers(t, arin, stores, 2)); got != want {
		t.Fatalf("warm diverged from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
	d, found := findDiag(res, DiagInvalidObject, "sprint", cont.CertFileName())
	if !found || !strings.Contains(d.Err.Error(), "subject key identifier") {
		t.Errorf("want the reissued certificate refused for its identifier, got %v (found %v)", d, found)
	}
	for _, v := range res.VRPs {
		if v.ASN == 7341 || v.ASN == 26821 {
			t.Errorf("a ROA under the re-keyed CA survived: %v", v)
		}
	}
}

// revokedROA has cont revoke cont-22 and then list it again on a re-signed
// manifest: a listed object whose EE the point's CRL revokes.
func revokedROA(t *testing.T, cont *ca.Authority, store *repo.Store) {
	t.Helper()
	raw, _ := store.Get("cont-22.roa")
	raw = bytes.Clone(raw)
	if err := cont.RevokeROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	store.Put("cont-22.roa", raw)
	republish(t, cont)
}

// TestCRLMustBeListedWithItsDigest: with a manifest whose signatures hold,
// the point's CRL is one the manifest lists with a matching digest — an
// older, validly signed CRL served unlisted, or served under a listed name
// with other bytes, must not un-revoke a listed ROA. Without a manifest the
// rule stays best effort: every validly signed CRL is a candidate and the
// last in name order wins.
func TestCRLMustBeListedWithItsDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		serve   func(t *testing.T, cont *ca.Authority, store *repo.Store)
		revoked bool
	}{
		{
			name: "older CRL served unlisted",
			serve: func(t *testing.T, cont *ca.Authority, store *repo.Store) {
				old, _ := store.Get("continental.crl")
				revokedROA(t, cont, store)
				store.Put("zzz.crl", old)
			},
			revoked: true,
		},
		{
			name: "listed CRL served with other bytes",
			serve: func(t *testing.T, cont *ca.Authority, store *repo.Store) {
				listed, _ := store.Get("continental.crl")
				republish(t, cont)
				other, _ := store.Get("continental.crl")
				store.Put("zzz.crl", listed)
				revokedROA(t, cont, store) // the manifest now lists zzz.crl too
				store.Put("zzz.crl", other)
			},
			revoked: true,
		},
		{
			name: "no manifest",
			serve: func(t *testing.T, cont *ca.Authority, store *repo.Store) {
				old, _ := store.Get("continental.crl")
				revokedROA(t, cont, store)
				store.Put("zzz.crl", old)
				store.Delete(cont.ManifestFileName())
			},
			revoked: false,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arin, _, cont, stores := buildFigure2(t)
			tc.serve(t, cont, stores["continental"])
			res := syncWithWorkers(t, arin, stores, 2)
			d, found := findDiag(res, DiagInvalidObject, "continental", "cont-22.roa")
			if revoked := found && errors.Is(d.Err, cert.ErrRevoked); revoked != tc.revoked {
				t.Errorf("cont-22 revoked = %v, want %v (diagnostics %v)", revoked, tc.revoked, res.Diagnostics)
			}
		})
	}
}

// TestRevokedManifestEE: the manifest's EE is checked against the CRL the
// manifest names, like every other EE. One the CRL revokes is an invalid
// object and leaves the point without a usable manifest — which
// DropPublicationPoint answers by dropping the point.
func TestRevokedManifestEE(t *testing.T) {
	arin, _, cont, stores := buildFigure2(t)
	store := stores["continental"]
	const serial = 1 << 40
	crl, err := cert.IssueCRL(cont.Cert, cont.Key, 1<<20, []*big.Int{big.NewInt(serial)}, testEpoch, testEpoch.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	store.Put(cont.CRLFileName(), crl.Raw)
	files := store.Snapshot()
	delete(files, cont.ManifestFileName())
	eeKey := cert.MustGenerateKeyPair()
	ee, err := cert.Issue(cert.Template{
		Subject:   "continental-mft-ee-revoked",
		Serial:    serial,
		NotBefore: testEpoch.Add(-time.Minute),
		NotAfter:  testEpoch.Add(48 * time.Hour),
		InheritIP: true,
		SIA:       cert.InfoAccess{SignedObject: cont.URI.ObjectURI(cont.ManifestFileName())},
	}, cont.Cert, cont.Key, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	mft, err := manifest.New(1<<20, testEpoch, testEpoch.Add(24*time.Hour), files).Sign(ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(cont.ManifestFileName(), mft)

	res := syncWithWorkers(t, arin, stores, 2)
	d, found := findDiag(res, DiagInvalidObject, "continental", cont.ManifestFileName())
	if !found || !errors.Is(d.Err, cert.ErrRevoked) {
		t.Fatalf("want the manifest's revoked EE diagnosed, got %v (found %v)", d, found)
	}
	if res.ROAsAccepted != 8 {
		t.Errorf("best effort kept %d ROAs, want all 8", res.ROAsAccepted)
	}
	dropped := syncReuse(t, newRP(arin, stores, DropPublicationPoint))
	if _, found := findDiag(dropped, DiagDroppedPubPoint, "continental", ""); !found {
		t.Errorf("DropPublicationPoint kept a point with a revoked manifest: %v", dropped.Diagnostics)
	}
}
