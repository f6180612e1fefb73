package cert

import (
	"bytes"
	"testing"

	"repro/internal/ipres"
	"repro/internal/rfc3779"
)

// FuzzParseCert drives Parse — x509, the RFC 3779 extensions and SIA/AIA —
// with arbitrary bytes. Parse must return (cert, nil) or (nil, err), never
// panic; an accepted certificate's decoded resources are bounded by its
// encoding, so no consumer does more work than the bytes paid for; and
// because the relying party keeps validated certificates as DER and parses
// them again to revalidate, two parses of the same bytes must agree on
// everything validation reads: SKI, SIA, IP and AS resources, CA bit.
func FuzzParseCert(f *testing.F) {
	ta, taKey := fuzzTA(f)
	child, err := Issue(Template{
		Subject:   "child",
		Serial:    2,
		NotBefore: testEpoch,
		NotAfter:  testEpoch.AddDate(1, 0, 0),
		Resources: ipres.MustParseSet("10.1.0.0/16, 2001:db8::/32"),
		ASNs:      ipres.NewASNSet(ipres.ASNRange{Lo: 64500, Hi: 64510}),
		CA:        true,
		SIA: InfoAccess{
			CARepository: "rsynclite://child.example/repo/",
			Manifest:     "rsynclite://child.example/repo/child.mft",
		},
		CRLDistributionPoint: "rsynclite://ta.example/repo/ta.crl",
		AIACAIssuers:         "rsynclite://ta.example/repo/ta.cer",
	}, ta, taKey, MustGenerateKeyPair())
	if err != nil {
		f.Fatal(err)
	}
	ee, err := Issue(Template{
		Subject:   "ee",
		Serial:    3,
		NotBefore: testEpoch,
		NotAfter:  testEpoch.AddDate(1, 0, 0),
		InheritIP: true,
		InheritAS: true,
		SIA:       InfoAccess{SignedObject: "rsynclite://ta.example/repo/x.roa"},
	}, ta, taKey, MustGenerateKeyPair())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{ta.Raw, child.Raw, ee.Raw, child.Raw[:len(child.Raw)/2], {0x30, 0x00}, {}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, der []byte) {
		a, err := Parse(der)
		if err != nil {
			if a != nil {
				t.Fatal("non-nil certificate with an error")
			}
			return
		}
		if a == nil {
			t.Fatal("nil certificate with nil error")
		}
		if n := resourceItems(a); n > len(der) {
			t.Fatalf("%d decoded resource ranges from %d bytes", n, len(der))
		}
		b, err := Parse(der)
		if err != nil {
			t.Fatalf("second parse of accepted bytes failed: %v", err)
		}
		if !bytes.Equal(a.Cert.SubjectKeyId, b.Cert.SubjectKeyId) || a.SKIKey() != b.SKIKey() {
			t.Fatal("two parses disagree on the SKI")
		}
		if a.SIA != b.SIA || a.AIA != b.AIA {
			t.Fatalf("two parses disagree on SIA/AIA: %+v vs %+v", a.SIA, b.SIA)
		}
		if !sameIPChoice(a.IPBlocks.V4, b.IPBlocks.V4) || !sameIPChoice(a.IPBlocks.V6, b.IPBlocks.V6) {
			t.Fatal("two parses disagree on the IP resources")
		}
		if a.ASNs.Inherit != b.ASNs.Inherit || !a.ASNs.Set.Equal(b.ASNs.Set) {
			t.Fatal("two parses disagree on the AS resources")
		}
		if a.IsCA() != b.IsCA() {
			t.Fatal("two parses disagree on the CA bit")
		}
	})
}

// fuzzTA is newTestTA for a fuzz target's seed corpus.
func fuzzTA(f *testing.F) (*ResourceCert, *KeyPair) {
	key := MustGenerateKeyPair()
	ta, err := Issue(Template{
		Subject:   "TA",
		Serial:    1,
		NotBefore: testEpoch,
		NotAfter:  testEpoch.AddDate(1, 0, 0),
		Resources: ipres.MustParseSet("10.0.0.0/8, 2001:db8::/32"),
		ASNs:      ipres.NewASNSet(ipres.ASNRange{Lo: 64500, Hi: 64599}),
		CA:        true,
		SIA:       InfoAccess{CARepository: "rsynclite://ta.example/repo/", Manifest: "rsynclite://ta.example/repo/ta.mft"},
	}, nil, key, key)
	if err != nil {
		f.Fatal(err)
	}
	return ta, key
}

// resourceItems counts the decoded IP and AS ranges of a certificate.
func resourceItems(rc *ResourceCert) int {
	n := len(rc.ASNs.Set.Ranges())
	for _, c := range []*rfc3779.IPChoice{rc.IPBlocks.V4, rc.IPBlocks.V6} {
		if c != nil {
			n += c.Set.NumRanges()
		}
	}
	return n
}

func sameIPChoice(a, b *rfc3779.IPChoice) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Inherit == b.Inherit && a.Set.Equal(b.Set)
}
