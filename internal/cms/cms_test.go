package cms

import (
	"crypto/sha256"
	"encoding/asn1"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

func newEE(t testing.TB) (*cert.ResourceCert, *cert.KeyPair) {
	t.Helper()
	taKey := cert.MustGenerateKeyPair()
	ta, err := cert.Issue(cert.Template{
		Subject: "TA", Serial: 1,
		NotBefore: testEpoch.Add(-time.Hour), NotAfter: testEpoch.Add(24 * time.Hour),
		Resources: ipres.MustParseSet("63.160.0.0/12"), CA: true,
	}, nil, taKey, taKey)
	if err != nil {
		t.Fatal(err)
	}
	eeKey := cert.MustGenerateKeyPair()
	ee, err := cert.Issue(cert.Template{
		Subject: "ee", Serial: 2,
		NotBefore: testEpoch.Add(-time.Hour), NotAfter: testEpoch.Add(24 * time.Hour),
		Resources: ipres.MustParseSet("63.174.16.0/20"),
		SIA:       cert.InfoAccess{SignedObject: "rsynclite://x/obj.roa"},
	}, ta, taKey, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	return ee, eeKey
}

func TestSignParseRoundTrip(t *testing.T) {
	ee, eeKey := newEE(t)
	payload := []byte{0x30, 0x06, 0x02, 0x01, 0x2A, 0x02, 0x01, 0x07} // arbitrary DER-ish bytes
	env, err := Sign(OIDContentTypeROA, payload, ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Parse(env)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.ContentType.Equal(OIDContentTypeROA) {
		t.Errorf("content type = %v", obj.ContentType)
	}
	if string(obj.Content) != string(payload) {
		t.Error("payload mismatch")
	}
	if obj.EE.Subject() != "ee" {
		t.Errorf("EE subject = %q", obj.EE.Subject())
	}
}

func TestParseDetectsContentCorruption(t *testing.T) {
	ee, eeKey := newEE(t)
	payload := []byte("route origin authorization content")
	env, err := Sign(OIDContentTypeROA, payload, ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	// Flip each byte of the envelope in turn; Parse must never succeed
	// with altered content bytes. (Some flips fail ASN.1 parsing, some
	// fail digest or signature checks — all must fail.)
	corrupted := 0
	for i := 0; i < len(env); i += 7 {
		mutated := append([]byte(nil), env...)
		mutated[i] ^= 0xFF
		if obj, err := Parse(mutated); err == nil {
			// A mutation that leaves everything verifiable must at least
			// preserve the payload bit-for-bit.
			if string(obj.Content) != string(payload) {
				t.Fatalf("byte %d: corrupted payload accepted", i)
			}
		} else {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("no mutation was detected at all")
	}
}

func TestParseRejectsWrongSigner(t *testing.T) {
	ee, _ := newEE(t)
	otherKey := cert.MustGenerateKeyPair()
	payload := []byte("payload")
	// Signed with a key that does not match the embedded EE cert.
	env, err := Sign(OIDContentTypeROA, payload, ee, otherKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(env); err == nil {
		t.Error("signature by non-matching key must fail")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not cms at all")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := Parse(nil); err == nil {
		t.Error("nil must fail")
	}
}

func TestContentTypesDistinct(t *testing.T) {
	ee, eeKey := newEE(t)
	env, err := Sign(OIDContentTypeManifest, []byte("mft"), ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Parse(env)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.ContentType.Equal(OIDContentTypeManifest) {
		t.Errorf("content type = %v", obj.ContentType)
	}
}

func TestSignDeterministicStructure(t *testing.T) {
	ee, eeKey := newEE(t)
	env1, err := Sign(OIDContentTypeROA, []byte("x"), ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := Sign(OIDContentTypeROA, []byte("x"), ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	// ECDSA signatures are randomized, so envelopes differ — but both must
	// parse to identical content.
	o1, err := Parse(env1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Parse(env2)
	if err != nil {
		t.Fatal(err)
	}
	if string(o1.Content) != string(o2.Content) {
		t.Error("content must be identical")
	}
}

// TestHashExplicitSetOfMatchesDER: the hand-written SET OF header must be
// the one encoding/asn1 writes, on every length form — short, and long with
// one, two and three length octets — so the signature check hashes exactly
// the DER the signer signed.
func TestHashExplicitSetOfMatchesDER(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 255, 256, 65535, 65536} {
		content := make([]byte, n)
		for i := range content {
			content[i] = byte(i)
		}
		der, err := asn1.Marshal(asn1.RawValue{Class: asn1.ClassUniversal, Tag: asn1.TagSet, IsCompound: true, Bytes: content})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hashExplicitSetOf(content), sha256.Sum256(der); got != want {
			t.Errorf("%d-byte content: digest %x, want %x (header %x)", n, got, want, der[:len(der)-n])
		}
	}
	attrs := make([]byte, 105)
	if allocs := testing.AllocsPerRun(100, func() { hashExplicitSetOf(attrs) }); allocs != 0 {
		t.Errorf("hashExplicitSetOf allocates %v times per call, want 0", allocs)
	}
}
