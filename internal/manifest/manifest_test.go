package manifest

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
)

var testEpoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

func sampleFiles() map[string][]byte {
	return map[string][]byte{
		"etb.cer":          []byte("etb resource certificate"),
		"continental.cer":  []byte("continental broadband rc"),
		"roa-17054-20.roa": []byte("roa bytes"),
	}
}

func TestManifestBuildAndLookup(t *testing.T) {
	m := New(1, testEpoch, testEpoch.Add(24*time.Hour), sampleFiles())
	if len(m.Entries) != 3 {
		t.Fatalf("entries = %d", len(m.Entries))
	}
	// Entries must be sorted by name.
	names := m.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("entries not sorted")
		}
	}
	if _, ok := m.Lookup("etb.cer"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := m.Lookup("absent.cer"); ok {
		t.Error("phantom entry")
	}
}

func TestManifestVerify(t *testing.T) {
	files := sampleFiles()
	m := New(1, testEpoch, testEpoch.Add(24*time.Hour), files)
	if err := m.Verify("etb.cer", files["etb.cer"]); err != nil {
		t.Error(err)
	}
	if err := m.Verify("etb.cer", []byte("tampered")); err == nil {
		t.Error("tampered content must fail")
	}
	if err := m.Verify("ghost.cer", []byte("x")); err == nil {
		t.Error("unlisted file must fail")
	}
}

func TestManifestStale(t *testing.T) {
	m := New(1, testEpoch, testEpoch.Add(24*time.Hour), nil)
	if m.Stale(testEpoch.Add(time.Hour)) {
		t.Error("fresh manifest reported stale")
	}
	if !m.Stale(testEpoch.Add(25 * time.Hour)) {
		t.Error("stale manifest reported fresh")
	}
}

func TestManifestContentRoundTrip(t *testing.T) {
	m := New(42, testEpoch, testEpoch.Add(24*time.Hour), sampleFiles())
	der, err := m.MarshalContent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalContent(der)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Errorf("round trip changed manifest:\n%+v\n%+v", m, back)
	}
}

func TestManifestSignedRoundTrip(t *testing.T) {
	caKey := cert.MustGenerateKeyPair()
	ca, err := cert.Issue(cert.Template{
		Subject: "CA", Serial: 1,
		NotBefore: testEpoch.Add(-time.Hour), NotAfter: testEpoch.Add(24 * time.Hour),
		Resources: ipres.MustParseSet("63.160.0.0/12"), CA: true,
	}, nil, caKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	eeKey := cert.MustGenerateKeyPair()
	ee, err := cert.Issue(cert.Template{
		Subject: "mft-ee", Serial: 2,
		NotBefore: testEpoch.Add(-time.Hour), NotAfter: testEpoch.Add(24 * time.Hour),
		InheritIP: true,
	}, ca, caKey, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	m := New(7, testEpoch, testEpoch.Add(24*time.Hour), sampleFiles())
	der, err := m.Sign(ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := ParseSigned(der)
	if err != nil {
		t.Fatal(err)
	}
	if !signed.Manifest.Equal(m) {
		t.Error("signed round trip changed manifest")
	}
	bad := append([]byte(nil), der...)
	bad[len(bad)-3] ^= 0x40
	if _, err := ParseSigned(bad); err == nil {
		t.Error("corrupted manifest must fail")
	}
}

func TestManifestEqualDiffers(t *testing.T) {
	a := New(1, testEpoch, testEpoch.Add(time.Hour), map[string][]byte{"a": []byte("1")})
	b := New(1, testEpoch, testEpoch.Add(time.Hour), map[string][]byte{"a": []byte("2")})
	if a.Equal(b) {
		t.Error("different hashes must differ")
	}
	c := New(2, testEpoch, testEpoch.Add(time.Hour), map[string][]byte{"a": []byte("1")})
	if a.Equal(c) {
		t.Error("different numbers must differ")
	}
}

func TestManifestVerifyHash(t *testing.T) {
	files := sampleFiles()
	m := New(1, testEpoch, testEpoch.Add(24*time.Hour), files)
	good := sha256.Sum256(files["etb.cer"])
	if err := m.VerifyHash("etb.cer", good); err != nil {
		t.Error(err)
	}
	var bad [32]byte
	copy(bad[:], good[:])
	bad[0] ^= 0xFF
	err := m.VerifyHash("etb.cer", bad)
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("wrong-hash error = %v", err)
	}
	err = m.VerifyHash("ghost.cer", good)
	if err == nil || !strings.Contains(err.Error(), "not listed") {
		t.Errorf("unlisted error = %v", err)
	}
	// Verify must agree with VerifyHash on the same content.
	if got, want := fmt.Sprint(m.Verify("ghost.cer", files["etb.cer"])), fmt.Sprint(err); got != want {
		t.Errorf("Verify = %q, VerifyHash = %q", got, want)
	}
}

// TestManifestMerge: one merge gives every served object VerifyHash's
// verdict, and every entry the object it names — a name listed twice
// included, whichever of its digests comes first.
func TestManifestMerge(t *testing.T) {
	digest := func(s string) [32]byte { return sha256.Sum256([]byte(s)) }
	m := &Manifest{Entries: []Entry{
		{"a.roa", digest("a")},
		{"b.roa", digest("b")},
		{"c.roa", digest("other")}, {"c.roa", digest("c")}, // Lookup finds the first
		{"d.roa", digest("d")}, {"d.roa", digest("other")},
		{"f.roa", digest("f")},
	}}
	type object struct {
		name   string
		digest [32]byte
	}
	served := []object{
		{"a.roa", digest("a")},         // listed
		{"b.roa", digest("tampered")},  // listed under another digest
		{"bb.roa", digest("bb")},       // unlisted
		{"c.roa", digest("c")},         // listed twice, first under another digest
		{"d.roa", digest("d")},         // listed twice, first under its digest
		{"zz.mft", digest("manifest")}, // unlisted; f.roa is not served
	}
	verdicts, byEntry := m.Merge(len(served), func(i int) (string, [32]byte) { return served[i].name, served[i].digest })
	for i, o := range served {
		if got, want := fmt.Sprint(verdicts[i]), fmt.Sprint(m.VerifyHash(o.name, o.digest)); got != want {
			t.Errorf("%s: Merge says %q, VerifyHash %q", o.name, got, want)
		}
	}
	if got, want := fmt.Sprint(byEntry), "[0 1 3 3 4 4 -1]"; got != want {
		t.Errorf("objects named by entry = %s, want %s", got, want)
	}
	if verdicts, byEntry := (&Manifest{}).Merge(1, func(int) (string, [32]byte) { return "x.roa", [32]byte{} }); len(byEntry) != 0 || verdicts[0] == nil {
		t.Errorf("empty manifest: verdicts %v, entries %v", verdicts, byEntry)
	}
}
