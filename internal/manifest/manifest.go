// Package manifest implements RPKI manifests (RFC 6486): per-publication-
// point listings of every object the CA currently publishes, with SHA-256
// hashes, so a relying party can detect withheld, corrupted, or stale
// objects.
//
// Manifests are the RPKI's only defense against an attacker (or a fault)
// that silently deletes objects from a repository. The paper's Side Effect 2
// — stealthy revocation by deletion — works precisely when the deleting
// party is the repository operator itself, who can reissue the manifest to
// match; manifests protect against third-party tampering, not against the
// publishing authority.
package manifest

import (
	"bytes"
	"crypto/sha256"
	"encoding/asn1"
	"fmt"
	"math/big"
	"sort"
	"time"

	"repro/internal/cert"
	"repro/internal/cms"
)

// MaxFileList bounds the number of fileList entries a decoded manifest may
// carry. The largest synthetic worlds publish a few hundred objects per
// publication point; 100k leaves real-world headroom while stopping a
// malicious authority from forcing entry-proportional allocation from a
// small declared encoding.
const MaxFileList = 100_000

// Entry is one manifest file entry.
type Entry struct {
	// Name is the file name within the publication point (no path).
	Name string
	// Hash is the SHA-256 hash of the file content.
	Hash [32]byte
}

// Manifest is the decoded content of an RPKI manifest.
type Manifest struct {
	// Number is the manifest number, monotonically increasing per CA.
	Number *big.Int
	// ThisUpdate and NextUpdate bound the manifest's freshness window.
	ThisUpdate, NextUpdate time.Time
	// Entries lists every published object, sorted by name.
	Entries []Entry
}

// New builds a manifest over the given file contents (name → bytes).
func New(number int64, thisUpdate, nextUpdate time.Time, files map[string][]byte) *Manifest {
	m := &Manifest{
		Number:     big.NewInt(number),
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		Entries:    make([]Entry, 0, len(files)),
	}
	for name, content := range files {
		m.Entries = append(m.Entries, Entry{Name: name, Hash: sha256.Sum256(content)})
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Name < m.Entries[j].Name })
	return m
}

// Lookup returns the entry for name, if present.
func (m *Manifest) Lookup(name string) (Entry, bool) {
	i := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].Name >= name })
	if i < len(m.Entries) && m.Entries[i].Name == name {
		return m.Entries[i], true
	}
	return Entry{}, false
}

// Verify checks content against the manifest entry for name. It returns an
// error if the entry is absent or the hash differs.
func (m *Manifest) Verify(name string, content []byte) error {
	return m.VerifyHash(name, sha256.Sum256(content))
}

// VerifyHash is Verify for a caller that already hashed the content — the
// relying party hashes every fetched object exactly once and checks the
// manifest (cross-check and per-object admission) against that digest.
func (m *Manifest) VerifyHash(name string, hash [32]byte) error {
	e, ok := m.Lookup(name)
	if !ok {
		return fmt.Errorf("manifest: %q not listed", name)
	}
	if hash != e.Hash {
		return fmt.Errorf("manifest: %q hash mismatch", name)
	}
	return nil
}

// Stale reports whether the manifest's nextUpdate has passed.
func (m *Manifest) Stale(now time.Time) bool { return now.After(m.NextUpdate) }

// Names returns the listed file names in order.
func (m *Manifest) Names() []string {
	out := make([]string, len(m.Entries))
	for i, e := range m.Entries {
		out[i] = e.Name
	}
	return out
}

// ASN.1 structures per RFC 6486 (fileHashAlg pinned to SHA-256).
type fileAndHash struct {
	File string `asn1:"ia5"`
	Hash asn1.BitString
}

type manifestSeq struct {
	ManifestNumber *big.Int
	ThisUpdate     time.Time `asn1:"generalized"`
	NextUpdate     time.Time `asn1:"generalized"`
	FileHashAlg    asn1.ObjectIdentifier
	FileList       []fileAndHash
}

var oidSHA256 = asn1.ObjectIdentifier{2, 16, 840, 1, 101, 3, 4, 2, 1}

// MarshalContent DER-encodes the manifest eContent.
func (m *Manifest) MarshalContent() ([]byte, error) {
	seq := manifestSeq{
		ManifestNumber: m.Number,
		ThisUpdate:     m.ThisUpdate.UTC().Truncate(time.Second),
		NextUpdate:     m.NextUpdate.UTC().Truncate(time.Second),
		FileHashAlg:    oidSHA256,
		FileList:       make([]fileAndHash, len(m.Entries)),
	}
	// One backing array for every hash copy instead of a 32-byte allocation
	// per entry; large manifests are marshaled in bulk during world
	// generation, where the per-entry garbage adds up.
	backing := make([]byte, len(m.Entries)*sha256.Size)
	for i := range m.Entries {
		h := backing[i*sha256.Size : (i+1)*sha256.Size : (i+1)*sha256.Size]
		copy(h, m.Entries[i].Hash[:])
		seq.FileList[i] = fileAndHash{
			File: m.Entries[i].Name,
			Hash: asn1.BitString{Bytes: h, BitLength: 256},
		}
	}
	return asn1.Marshal(seq)
}

// UnmarshalContent decodes a manifest eContent.
func UnmarshalContent(der []byte) (*Manifest, error) {
	if len(der) > cms.MaxObjectSize {
		return nil, fmt.Errorf("manifest: eContent %d bytes exceeds limit %d", len(der), cms.MaxObjectSize)
	}
	var seq manifestSeq
	rest, err := asn1.Unmarshal(der, &seq)
	if err != nil {
		return nil, fmt.Errorf("manifest: bad eContent: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("manifest: trailing bytes in eContent")
	}
	if !seq.FileHashAlg.Equal(oidSHA256) {
		return nil, fmt.Errorf("manifest: unsupported hash algorithm %v", seq.FileHashAlg)
	}
	if len(seq.FileList) > MaxFileList {
		return nil, fmt.Errorf("manifest: %d fileList entries exceeds limit %d", len(seq.FileList), MaxFileList)
	}
	m := &Manifest{
		Number:     seq.ManifestNumber,
		ThisUpdate: seq.ThisUpdate,
		NextUpdate: seq.NextUpdate,
		Entries:    make([]Entry, 0, len(seq.FileList)),
	}
	for _, f := range seq.FileList {
		if f.Hash.BitLength != 256 {
			return nil, fmt.Errorf("manifest: %q hash is %d bits, want 256", f.File, f.Hash.BitLength)
		}
		var e Entry
		e.Name = f.File
		copy(e.Hash[:], f.Hash.Bytes)
		m.Entries = append(m.Entries, e)
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Name < m.Entries[j].Name })
	return m, nil
}

// Sign wraps the manifest in a CMS envelope signed by the EE key.
func (m *Manifest) Sign(ee *cert.ResourceCert, eeKey *cert.KeyPair) ([]byte, error) {
	content, err := m.MarshalContent()
	if err != nil {
		return nil, err
	}
	return cms.Sign(cms.OIDContentTypeManifest, content, ee, eeKey)
}

// Signed is a parsed, signature-verified manifest with its EE certificate.
type Signed struct {
	Manifest *Manifest
	EE       *cert.ResourceCert
	Raw      []byte
}

// ParseSigned decodes and signature-verifies a CMS-wrapped manifest.
func ParseSigned(der []byte) (*Signed, error) {
	if len(der) > cms.MaxObjectSize {
		return nil, errTooLarge(len(der))
	}
	return ParseSignedWith(der, cms.Verify)
}

func errTooLarge(n int) error {
	return fmt.Errorf("manifest: object %d bytes exceeds limit %d", n, cms.MaxObjectSize)
}

// ParseSignedWith is ParseSigned with check deciding the envelope's
// signature (see cms.ParseWith).
func ParseSignedWith(der []byte, check cms.SignatureCheck) (*Signed, error) {
	if len(der) > cms.MaxObjectSize {
		return nil, errTooLarge(len(der))
	}
	obj, err := cms.ParseWith(der, check)
	if err != nil {
		return nil, err
	}
	if !obj.ContentType.Equal(cms.OIDContentTypeManifest) {
		return nil, fmt.Errorf("manifest: content type %v is not a manifest", obj.ContentType)
	}
	m, err := UnmarshalContent(obj.Content)
	if err != nil {
		return nil, err
	}
	return &Signed{Manifest: m, EE: obj.EE, Raw: der}, nil
}

// Equal reports whether two manifests list identical content (number,
// window, and entries).
func (m *Manifest) Equal(o *Manifest) bool {
	if m.Number.Cmp(o.Number) != 0 || !m.ThisUpdate.Equal(o.ThisUpdate) || !m.NextUpdate.Equal(o.NextUpdate) {
		return false
	}
	if len(m.Entries) != len(o.Entries) {
		return false
	}
	for i := range m.Entries {
		if m.Entries[i].Name != o.Entries[i].Name || !bytes.Equal(m.Entries[i].Hash[:], o.Entries[i].Hash[:]) {
			return false
		}
	}
	return true
}
