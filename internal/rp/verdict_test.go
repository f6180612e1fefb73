package rp

// Gates on the per-point verdict cache: one verdict per object, signed
// objects included, so a revalidated point re-verifies only what changed
// and answers every other object without a signature check; and on the
// verdicts that decide which CRL a point is judged by.

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
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

// withholding is a StoreFetcher that, while name is set, serves module
// without that object and with an error: a partial fetch.
type withholding struct {
	StoreFetcher
	module, name string
}

func (f *withholding) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	files, err := f.StoreFetcher.FetchAll(ctx, uri)
	if err != nil || f.name == "" || uri.Module != f.module {
		return files, err
	}
	delete(files, f.name)
	return files, fmt.Errorf("connection reset after %d objects", len(files))
}

// signManifestOver publishes a manifest that a signs over files, with a
// fresh EE certificate of serial: a manifest the authority's own
// publication would not produce.
func signManifestOver(t *testing.T, a *ca.Authority, at time.Time, serial int64, files map[string][]byte) {
	t.Helper()
	eeKey := cert.MustGenerateKeyPair()
	ee, err := cert.Issue(cert.Template{
		Subject:   fmt.Sprintf("%s-mft-ee-%d", a.Name, serial),
		Serial:    serial,
		NotBefore: at.Add(-time.Minute),
		NotAfter:  at.Add(48 * time.Hour),
		InheritIP: true,
		SIA:       cert.InfoAccess{SignedObject: a.URI.ObjectURI(a.ManifestFileName())},
	}, a.Cert, a.Key, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	mft, err := manifest.New(serial, at, at.Add(24*time.Hour), files).Sign(ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	a.Store.Put(a.ManifestFileName(), mft)
}

// listed is what a's manifest covers: every object but the manifest.
func listed(a *ca.Authority) map[string][]byte {
	files := a.Store.Snapshot()
	delete(files, a.ManifestFileName())
	return files
}

// TestSteadyChurnPointVerifications walks one warm relying party through
// the changes a point shaped like the steady_churn workload's ISP (10
// ROAs, 10 child CAs) goes through, and pins what each revalidation of it
// costs: the points it revalidates, the ECDSA verifications and verdict
// misses, and the objects reuse tier 4 admits from the memo. A ROA added
// costs 3 misses (manifest, CRL, the new ROA) and 5 verifications; a ROA
// removed or a re-signing 2 misses and 3 verifications. Every other object comes from the memo, neither
// parsed nor looked up, unless a step sends it, or the whole point, the
// full way. After every step the warm outcome is a fresh cold relying
// party's, the point holds one verdict per object (but an object admission
// rejects before its parse), and each memo entry has a full
// revalidation's outputs and an epoch no longer than its (checkEntries).
// Each tier-4 guard, deleted, fails at least one step.
func TestSteadyChurnPointVerifications(t *testing.T) {
	caNow, rpNow := testEpoch, testEpoch
	cfg := ca.Config{Clock: func() time.Time { return caNow }}
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
	// One ROA signed a year less 12 hours ago: its EE expires 12 hours
	// into the test, long before anything else.
	caNow = testEpoch.Add(-365*24*time.Hour + 12*time.Hour)
	mustROA(t, isp, "short", 64600, "10.20.0.0/16")
	caNow = testEpoch
	republish(t, isp)

	fetcher := &withholding{StoreFetcher: stores, module: "isp"}
	anchor := TrustAnchor{CertDER: ta.Cert.Raw, URI: ta.URI}
	v := New(Config{Fetcher: fetcher, Clock: func() time.Time { return rpNow }, Workers: 2}, anchor)
	cold := syncReuse(t, v)
	// Each manifest and ROA is two verifications, each certificate and CRL
	// one: 12 manifests, 11 ROAs, 11 CAs under the anchor, 12 CRLs; and the
	// anchor's self-signature.
	if got, want := Verifications(cold), 2*(12+11)+11+12+1; got != want {
		t.Errorf("cold sync: %d verifications, want %d", got, want)
	}
	if got, want := PointVerdicts(v, "isp"), ispStore.Len(); got != want {
		t.Errorf("cold: isp holds %d verdicts for %d objects", got, want)
	}
	for _, step := range []struct {
		name   string
		change func()
		// revalidated counts the points the sync revalidated; verifications
		// and misses are the sync's, as they were before tier 4; fromMemo
		// counts the objects it admitted from the memo; unverdicted counts
		// the point's objects its validation holds no verdict for.
		revalidated, verifications, misses, fromMemo, unverdicted int
	}{
		// Tier 4: everything but the manifest, the CRL and a new ROA.
		{"add", func() { mustROA(t, isp, "churn", 64999, "10.25.0.0/16") }, 1, 5, 3, 21, 0},
		{"remove", func() {
			if err := isp.DeleteROA("churn"); err != nil {
				t.Fatal(err)
			}
		}, 1, 3, 2, 21, 0},
		{"re-sign", func() { republish(t, isp) }, 1, 3, 2, 21, 0},
		{"replace a ROA under its name", func() {
			isp.BeginBulk()
			if err := isp.DeleteROA("r3"); err != nil {
				t.Fatal(err)
			}
			mustROA(t, isp, "r3", 64998, "10.13.0.0/16")
			if err := isp.EndBulk(); err != nil {
				t.Fatal(err)
			}
		}, 1, 5, 3, 20, 0},
		// Past the entry's epoch, and then after a tainted validation, the
		// point takes the full path.
		{"clock past a ROA's EE notAfter", func() { rpNow = testEpoch.Add(13 * time.Hour) }, 1, 0, 0, 0, 0},
		{"withdraw the expired ROA", func() {
			if err := isp.DeleteROA("short"); err != nil {
				t.Fatal(err)
			}
		}, 1, 3, 2, 0, 0},
		// A changed revoked set sends the whole point the full way.
		{"revoke a ROA, still served", func() { revokedROA(t, isp, ispStore, "r9") }, 1, 3, 2, 0, 0},
		{"withdraw the revoked ROA", func() { ispStore.Delete("r9.roa"); republish(t, isp) }, 1, 3, 2, 0, 0},
		// A changed authority too: only the anchor's own certificate, in
		// the anchor's point, is admitted from the memo. A key roll
		// revalidates the anchor, the point and its 10 children; a shrink
		// the anchor and the point.
		{"roll the point's key", func() {
			if err := isp.RollKey(); err != nil {
				t.Fatal(err)
			}
		}, 12, 35, 24, 1, 0},
		{"shrink the point", func() {
			if err := ta.ShrinkChild("isp", ipres.MustParseSet("10.0.0.0/11").Subtract(ipres.MustParseSet("10.18.0.0/16"))); err != nil {
				t.Fatal(err)
			}
		}, 2, 4, 3, 1, 0},
		{"withdraw the whacked ROA", func() {
			if err := isp.DeleteROA("r8"); err != nil {
				t.Fatal(err)
			}
		}, 1, 3, 2, 0, 0},
		// Single objects take the full path: one unlisted, one listed under
		// other bytes' digest, one whose verdict a partial fetch dropped.
		// The unchanged CRL is admitted from the memo.
		{"manifest omits an unchanged ROA", func() {
			files := listed(isp)
			delete(files, "r0.roa")
			signManifestOver(t, isp, caNow, 1<<40, files)
		}, 1, 2, 1, 18, 1},
		{"re-sign after the omission", func() { republish(t, isp) }, 1, 5, 3, 0, 0},
		{"manifest lists an unchanged ROA under another digest", func() {
			files := listed(isp)
			files["r1.roa"] = []byte("other bytes")
			signManifestOver(t, isp, caNow, 1<<40+1, files)
		}, 1, 2, 1, 18, 1},
		{"re-sign after the misdigest", func() { republish(t, isp) }, 1, 5, 3, 0, 0},
		{"partial fetch", func() { fetcher.name = "r2.roa" }, 1, 0, 0, 18, 1},
		{"re-sign after the partial fetch", func() { fetcher.name = ""; republish(t, isp) }, 1, 5, 3, 17, 0},
		// Without a manifest the whole point takes the full path.
		{"withdraw the manifest", func() { ispStore.Delete(isp.ManifestFileName()) }, 1, 0, 0, 0, 0},
		{"re-sign after the withdrawal", func() { republish(t, isp) }, 1, 3, 2, 0, 0},
	} {
		step.change()
		res := syncReuse(t, v)
		if res.ModulesRevalidated != step.revalidated || Verifications(res) != step.verifications ||
			res.VerifyCacheMisses != step.misses || res.ObjectsFromMemo != step.fromMemo {
			t.Errorf("%s: %d revalidated, %d verifications, %d misses, %d objects from memo; want %d, %d, %d, %d", step.name,
				res.ModulesRevalidated, Verifications(res), res.VerifyCacheMisses, res.ObjectsFromMemo,
				step.revalidated, step.verifications, step.misses, step.fromMemo)
		}
		if got, want := PointVerdicts(v, "isp"), ispStore.Len()-step.unverdicted; got != want {
			t.Errorf("%s: isp holds %d verdicts for %d objects, %d of them unverdicted", step.name, got, ispStore.Len(), step.unverdicted)
		}
		coldRP := New(Config{Fetcher: fetcher, Clock: func() time.Time { return rpNow }}, anchor)
		if got, want := fingerprint(res), fingerprint(syncReuse(t, coldRP)); got != want {
			t.Errorf("%s: warm sync diverged from cold:\n--- warm ---\n%s--- cold ---\n%s", step.name, got, want)
		}
		checkEntries(t, step.name, v, coldRP)
	}
}

// checkEntries: every memo entry warm holds for a point cold also
// validated clean from the same bytes has cold's outputs, and an epoch no
// longer than cold's.
func checkEntries(t *testing.T, step string, warm, cold *RelyingParty) {
	t.Helper()
	for uri, c := range cold.points {
		w := warm.points[uri]
		if c.memo == nil || w == nil || w.memo == nil || !sameDigests(w.memo.objects, c.memo.objects) {
			continue
		}
		we, ce := w.memo, c.memo
		owned := func(e *moduleEntry) string {
			var b strings.Builder
			for _, o := range e.objects {
				switch o.own {
				case ownsROA:
					v := slices.Clone(e.vrps[o.lo:o.hi])
					rov.SortVRPs(v)
					fmt.Fprintf(&b, "%s roa %v\n", o.name, v)
				case ownsChild:
					ch := e.children[o.lo]
					fmt.Fprintf(&b, "%s child %v %v %x\n", o.name, ch.uri, ch.effective, sha256.Sum256(ch.der))
				default:
					fmt.Fprintf(&b, "%s nothing\n", o.name)
				}
			}
			fmt.Fprintf(&b, "roas=%d certs=%d vrps=%d children=%d revoked=%x", e.roas, e.certs, len(e.vrps), len(e.children), e.revoked)
			return b.String()
		}
		if got, want := owned(we), owned(ce); got != want {
			t.Errorf("%s: %s: warm entry's outputs\n%s\nare not a full revalidation's\n%s", step, uri.Module, got, want)
		}
		for _, pair := range [][2]window{{we.epoch, ce.epoch}, {we.objEpoch, ce.objEpoch}} {
			w, c := pair[0], pair[1]
			earlier := !c.notBefore.IsZero() && (w.notBefore.IsZero() || w.notBefore.Before(c.notBefore))
			later := !c.notAfter.IsZero() && (w.notAfter.IsZero() || w.notAfter.After(c.notAfter))
			if earlier || later {
				t.Errorf("%s: %s: warm epoch %v–%v is longer than a full revalidation's %v–%v", step, uri.Module,
					w.notBefore, w.notAfter, c.notBefore, c.notAfter)
			}
		}
	}
}

// TestRevokedDigest: the digest tier 4 compares CRLs by depends on the set
// of revoked serials alone — not their order, not the CRL's other fields —
// and tells no CRL from an empty one.
func TestRevokedDigest(t *testing.T) {
	arin, _, _, _ := buildFigure2(t)
	crl := func(number int64, serials ...int64) *cert.CRL {
		revoked := make([]pkix.RevokedCertificate, len(serials))
		for i, s := range serials {
			revoked[i] = pkix.RevokedCertificate{SerialNumber: big.NewInt(s), RevocationTime: testEpoch}
		}
		c, err := cert.IssueCRL(arin.Cert, arin.Key, number, revoked, testEpoch, testEpoch.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if revokedDigest(nil) == revokedDigest(crl(1)) {
		t.Error("no CRL and an empty CRL share a digest")
	}
	if revokedDigest(crl(1, 5, 300, 7)) != revokedDigest(crl(2, 300, 7, 5)) {
		t.Error("the same serials in another order, on another CRL, digest differently")
	}
	for _, other := range [][]int64{{5, 300}, {5, 300, 7, 8}, {5, 301, 7}, {1<<16 + 5, 300, 7}} {
		if revokedDigest(crl(1, 5, 300, 7)) == revokedDigest(crl(1, other...)) {
			t.Errorf("serials %v digest like 5, 300, 7", other)
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

// revokedROA has a revoke its ROA name and then list it again on a
// re-signed manifest: a listed object whose EE the point's CRL revokes.
func revokedROA(t *testing.T, a *ca.Authority, store *repo.Store, name string) {
	t.Helper()
	raw, _ := store.Get(name + ".roa")
	raw = bytes.Clone(raw)
	if err := a.RevokeROA(name); err != nil {
		t.Fatal(err)
	}
	store.Put(name+".roa", raw)
	republish(t, a)
}

// TestCRLMustBeListedWithItsDigest: with a manifest whose signatures hold,
// the point's CRL is one the manifest lists with a matching digest — an
// older, validly signed CRL served unlisted, or served under a listed name
// with other bytes, must not un-revoke a listed ROA. Without a manifest the
// rule stays best effort: every validly signed CRL is a candidate and the
// last in name order wins. Listed is not enough either: a listed CRL that
// another key signed is an invalid object and revokes nothing — the CRL's
// signature is checked where the CRL is picked, and nowhere after.
func TestCRLMustBeListedWithItsDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		serve   func(t *testing.T, cont *ca.Authority, store *repo.Store)
		revoked bool
		// invalid names a CRL the point must diagnose as an invalid object.
		invalid string
	}{
		{
			name: "older CRL served unlisted",
			serve: func(t *testing.T, cont *ca.Authority, store *repo.Store) {
				old, _ := store.Get("continental.crl")
				revokedROA(t, cont, store, "cont-22")
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
				revokedROA(t, cont, store, "cont-22") // the manifest now lists zzz.crl too
				store.Put("zzz.crl", other)
			},
			revoked: true,
		},
		{
			name: "no manifest",
			serve: func(t *testing.T, cont *ca.Authority, store *repo.Store) {
				old, _ := store.Get("continental.crl")
				revokedROA(t, cont, store, "cont-22")
				store.Put("zzz.crl", old)
				store.Delete(cont.ManifestFileName())
			},
			revoked: false,
		},
		{
			name: "listed CRL signed by another key",
			serve: func(t *testing.T, cont *ca.Authority, store *repo.Store) {
				raw, _ := store.Get("cont-22.roa")
				signed, err := roa.ParseSigned(raw)
				if err != nil {
					t.Fatal(err)
				}
				// A certificate in continental's name for another key: its
				// CRL names continental as issuer, and its signature is not
				// continental's.
				key := cert.MustGenerateKeyPair()
				impostor, err := cert.Issue(cert.Template{
					Subject: "continental", Serial: 1 << 40, CA: true, InheritIP: true,
					NotBefore: testEpoch.Add(-time.Minute), NotAfter: testEpoch.Add(48 * time.Hour),
				}, cont.Cert, cont.Key, key)
				if err != nil {
					t.Fatal(err)
				}
				revoked := []pkix.RevokedCertificate{{SerialNumber: signed.EE.Cert.SerialNumber, RevocationTime: testEpoch}}
				forged, err := cert.IssueCRL(impostor, key, 1<<20, revoked, testEpoch, testEpoch.Add(24*time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				store.Put("zzz.crl", forged.Raw)
				republish(t, cont) // the manifest now lists zzz.crl with its digest
			},
			revoked: false,
			invalid: "zzz.crl",
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
			if _, found := findDiag(res, DiagInvalidObject, "continental", tc.invalid); tc.invalid != "" && !found {
				t.Errorf("want %s diagnosed as an invalid object, got %v", tc.invalid, res.Diagnostics)
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
	crl, err := cert.IssueCRL(cont.Cert, cont.Key, 1<<20, []pkix.RevokedCertificate{{SerialNumber: big.NewInt(serial), RevocationTime: testEpoch}}, testEpoch, testEpoch.Add(24*time.Hour))
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

// TestManifestListsNameTwice: a manifest that lists one name twice, under
// two digests, is judged by the entry manifest.Lookup finds — the first in
// its sorted entries — and each listing of a mismatched name is diagnosed.
func TestManifestListsNameTwice(t *testing.T) {
	for _, tc := range []struct {
		name      string
		realFirst bool
		wantROAs  int
		wantDiags int
	}{
		{name: "listed first under its digest", realFirst: true, wantROAs: 8},
		{name: "listed first under another digest", realFirst: false, wantROAs: 7, wantDiags: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arin, _, cont, stores := buildFigure2(t)
			store := stores["continental"]
			files := store.Snapshot()
			delete(files, cont.ManifestFileName())
			listed := manifest.New(1<<20, testEpoch, testEpoch.Add(24*time.Hour), files)
			real, _ := listed.Lookup("cont-22.roa")
			other := manifest.Entry{Name: real.Name, Hash: sha256.Sum256([]byte("other bytes"))}
			var entries []manifest.Entry
			for _, e := range listed.Entries {
				if e.Name != real.Name {
					entries = append(entries, e)
				} else if tc.realFirst {
					entries = append(entries, real, other)
				} else {
					entries = append(entries, other, real)
				}
			}
			listed.Entries = entries
			eeKey := cert.MustGenerateKeyPair()
			ee, err := cert.Issue(cert.Template{
				Subject:   "continental-mft-ee-twice",
				Serial:    1 << 40,
				NotBefore: testEpoch.Add(-time.Minute),
				NotAfter:  testEpoch.Add(48 * time.Hour),
				InheritIP: true,
				SIA:       cert.InfoAccess{SignedObject: cont.URI.ObjectURI(cont.ManifestFileName())},
			}, cont.Cert, cont.Key, eeKey)
			if err != nil {
				t.Fatal(err)
			}
			der, err := listed.Sign(ee, eeKey)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := manifest.ParseSigned(der)
			if err != nil {
				t.Fatal(err)
			}
			if found, _ := parsed.Manifest.Lookup(real.Name); (found.Hash == real.Hash) != tc.realFirst {
				t.Fatalf("Lookup finds the digest listed second: the case does not test what it names")
			}
			store.Put(cont.ManifestFileName(), der)

			for _, workers := range []int{1, 4} {
				res := syncWithWorkers(t, arin, stores, workers)
				if res.ROAsAccepted != tc.wantROAs || len(res.Diagnostics) != tc.wantDiags {
					t.Fatalf("workers %d: %d ROAs, diagnostics %v; want %d ROAs, %d diagnostics", workers, res.ROAsAccepted, res.Diagnostics, tc.wantROAs, tc.wantDiags)
				}
				for _, d := range res.Diagnostics {
					if d.Kind != DiagHashMismatch || d.Module != "continental" || d.Object != real.Name || d.Err.Error() != `manifest: "cont-22.roa" hash mismatch` {
						t.Errorf("workers %d: unexpected diagnostic %v", workers, d)
					}
				}
			}
		})
	}
}
