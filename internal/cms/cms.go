// Package cms implements the CMS SignedData envelope used by RPKI signed
// objects (RFC 6488 profile of RFC 5652): a payload ("eContent") of a given
// content type, signed by a one-time-use end-entity certificate that is
// embedded in the envelope, with signed attributes binding the content type
// and a SHA-256 message digest.
//
// The profile implemented here is simplified relative to full CMS — exactly
// one signer, SHA-256 + ECDSA P-256 only, subjectKeyIdentifier signer
// identification — which matches how the RPKI actually uses CMS. Signatures
// are real: tampering with a single byte of the payload or envelope causes
// verification failure, which is what makes Side Effect 6 ("a corrupted ROA
// is a missing ROA") mechanically true in this reproduction.
package cms

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"sort"

	"repro/internal/cert"
)

// Content type OIDs for RPKI signed objects.
var (
	// OIDSignedData is id-signedData (1.2.840.113549.1.7.2).
	OIDSignedData = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 7, 2}
	// OIDContentTypeROA is id-ct-routeOriginAuthz (1.2.840.113549.1.9.16.1.24).
	OIDContentTypeROA = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 9, 16, 1, 24}
	// OIDContentTypeManifest is id-ct-rpkiManifest (1.2.840.113549.1.9.16.1.26).
	OIDContentTypeManifest = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 9, 16, 1, 26}

	oidAttrContentType   = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 9, 3}
	oidAttrMessageDigest = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 9, 4}
	oidSHA256            = asn1.ObjectIdentifier{2, 16, 840, 1, 101, 3, 4, 2, 1}
	oidECDSAWithSHA256   = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 2}
)

// Hard input limits. Decoders reject oversized input before handing it to
// encoding/asn1, whose allocations are proportional to the declared input —
// CURE-style resource-exhaustion inputs must fail fast, not allocate.
const (
	// MaxObjectSize bounds a whole signed object, aligned with the
	// transport-level repo.MaxObjectSize so nothing the fetcher admits is
	// rejected here for size alone.
	MaxObjectSize = 8 << 20
	// MaxSignedAttrs bounds the SET OF Attribute: the RPKI profile needs
	// exactly two (content-type, message-digest); a generous margin covers
	// benign extras like signing-time without admitting attribute floods.
	MaxSignedAttrs = 32
)

// SignedObject is a parsed and signature-verified CMS envelope.
type SignedObject struct {
	// Raw is the full DER encoding of the ContentInfo.
	Raw []byte
	// ContentType identifies the eContent type (ROA, manifest, ...).
	ContentType asn1.ObjectIdentifier
	// Content is the DER eContent payload.
	Content []byte
	// EE is the embedded end-entity certificate whose key signed the
	// object. Callers must still validate EE up the RPKI hierarchy.
	EE *cert.ResourceCert
}

type algorithmIdentifier = pkix.AlgorithmIdentifier

type signerInfoSeq struct {
	Version            int
	SID                asn1.RawValue // [0] IMPLICIT SubjectKeyIdentifier
	DigestAlgorithm    algorithmIdentifier
	SignedAttrs        asn1.RawValue // [0] IMPLICIT SET OF Attribute
	SignatureAlgorithm algorithmIdentifier
	Signature          []byte
}

type signedDataSeq struct {
	Version          int
	DigestAlgorithms []algorithmIdentifier `asn1:"set"`
	EncapContentInfo asn1.RawValue
	Certificates     asn1.RawValue   // [0] IMPLICIT CertificateSet (one cert)
	SignerInfos      []signerInfoSeq `asn1:"set"`
}

type contentInfoSeq struct {
	ContentType asn1.ObjectIdentifier
	Content     asn1.RawValue // [0] EXPLICIT SignedData
}

func ctxTag(tag int, compound bool, content []byte) asn1.RawValue {
	return asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: tag, IsCompound: compound, Bytes: content}
}

// buildSignedAttrs returns the SET OF Attribute both in its implicit [0]
// form (for embedding) and its explicit SET OF form (the bytes that are
// actually signed, per RFC 5652 section 5.4).
func buildSignedAttrs(contentType asn1.ObjectIdentifier, digest []byte) (implicit asn1.RawValue, signed []byte, err error) {
	type attribute struct {
		Type   asn1.ObjectIdentifier
		Values []asn1.RawValue `asn1:"set"`
	}
	ctDER, err := asn1.Marshal(contentType)
	if err != nil {
		return asn1.RawValue{}, nil, err
	}
	mdDER, err := asn1.Marshal(digest)
	if err != nil {
		return asn1.RawValue{}, nil, err
	}
	attrs := []attribute{
		{Type: oidAttrContentType, Values: []asn1.RawValue{{FullBytes: ctDER}}},
		{Type: oidAttrMessageDigest, Values: []asn1.RawValue{{FullBytes: mdDER}}},
	}
	encoded := make([][]byte, len(attrs))
	for i, a := range attrs {
		encoded[i], err = asn1.Marshal(a)
		if err != nil {
			return asn1.RawValue{}, nil, err
		}
	}
	// DER SET OF orders elements by their encodings.
	sort.Slice(encoded, func(i, j int) bool { return bytes.Compare(encoded[i], encoded[j]) < 0 })
	content := bytes.Join(encoded, nil)

	setOf, err := asn1.Marshal(asn1.RawValue{Class: asn1.ClassUniversal, Tag: asn1.TagSet, IsCompound: true, Bytes: content})
	if err != nil {
		return asn1.RawValue{}, nil, err
	}
	return ctxTag(0, true, content), setOf, nil
}

// Sign wraps content of the given type in a CMS envelope signed by eeKey,
// embedding ee as the signer certificate.
func Sign(contentType asn1.ObjectIdentifier, content []byte, ee *cert.ResourceCert, eeKey *cert.KeyPair) ([]byte, error) {
	digest := sha256.Sum256(content)
	implicitAttrs, signedBytes, err := buildSignedAttrs(contentType, digest[:])
	if err != nil {
		return nil, fmt.Errorf("cms: building attributes: %w", err)
	}
	attrDigest := sha256.Sum256(signedBytes)
	sig, err := eeKey.SignDigest(attrDigest[:])
	if err != nil {
		return nil, fmt.Errorf("cms: signing: %w", err)
	}

	// EncapsulatedContentInfo ::= SEQUENCE { eContentType, [0] EXPLICIT OCTET STRING }
	octets, err := asn1.Marshal(content)
	if err != nil {
		return nil, err
	}
	eci, err := asn1.Marshal(struct {
		EContentType asn1.ObjectIdentifier
		EContent     asn1.RawValue
	}{contentType, ctxTag(0, true, octets)})
	if err != nil {
		return nil, err
	}

	sha256Alg := algorithmIdentifier{Algorithm: oidSHA256}
	sd := signedDataSeq{
		Version:          3,
		DigestAlgorithms: []algorithmIdentifier{sha256Alg},
		EncapContentInfo: asn1.RawValue{FullBytes: eci},
		Certificates:     ctxTag(0, true, ee.Raw),
		SignerInfos: []signerInfoSeq{{
			Version:            3,
			SID:                ctxTag(0, false, ee.Cert.SubjectKeyId),
			DigestAlgorithm:    sha256Alg,
			SignedAttrs:        implicitAttrs,
			SignatureAlgorithm: algorithmIdentifier{Algorithm: oidECDSAWithSHA256},
			Signature:          sig,
		}},
	}
	sdDER, err := asn1.Marshal(sd)
	if err != nil {
		return nil, fmt.Errorf("cms: encoding SignedData: %w", err)
	}
	ciDER, err := asn1.Marshal(contentInfoSeq{
		ContentType: OIDSignedData,
		Content:     ctxTag(0, true, sdDER),
	})
	if err != nil {
		return nil, fmt.Errorf("cms: encoding ContentInfo: %w", err)
	}
	return ciDER, nil
}

// A SignatureCheck decides whether an envelope's signature holds. ee is the
// embedded EE certificate and verify the ECDSA check of the signer's
// signature by ee's key. ParseWith calls the check at most once, and only
// once every structural check has passed; it returns no object unless the
// check returns nil. A check may answer from an earlier verdict on the same
// bytes instead of calling verify.
type SignatureCheck func(ee *cert.ResourceCert, verify func() error) error

// Verify is the SignatureCheck Parse uses: it runs verify.
func Verify(_ *cert.ResourceCert, verify func() error) error { return verify() }

// Parse decodes a CMS envelope and verifies its signature against the
// embedded EE certificate. It does NOT validate the EE certificate's chain;
// that is the relying party's job.
func Parse(der []byte) (*SignedObject, error) {
	if len(der) > MaxObjectSize {
		return nil, errTooLarge(len(der))
	}
	return ParseWith(der, Verify)
}

func errTooLarge(n int) error {
	return fmt.Errorf("cms: object %d bytes exceeds limit %d", n, MaxObjectSize)
}

// ParseWith is Parse with check deciding the signature: a relying party
// passes one that answers from its verdict cache.
func ParseWith(der []byte, check SignatureCheck) (*SignedObject, error) {
	if len(der) > MaxObjectSize {
		return nil, errTooLarge(len(der))
	}
	var ci contentInfoSeq
	rest, err := asn1.Unmarshal(der, &ci)
	if err != nil {
		return nil, fmt.Errorf("cms: bad ContentInfo: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cms: trailing bytes after ContentInfo")
	}
	if !ci.ContentType.Equal(OIDSignedData) {
		return nil, fmt.Errorf("cms: unexpected content type %v", ci.ContentType)
	}
	if ci.Content.Class != asn1.ClassContextSpecific || ci.Content.Tag != 0 {
		return nil, fmt.Errorf("cms: missing [0] SignedData wrapper")
	}
	var sd signedDataSeq
	if _, err := asn1.Unmarshal(ci.Content.Bytes, &sd); err != nil {
		return nil, fmt.Errorf("cms: bad SignedData: %w", err)
	}
	if len(sd.SignerInfos) != 1 {
		return nil, fmt.Errorf("cms: want exactly 1 signer, got %d", len(sd.SignerInfos))
	}
	si := sd.SignerInfos[0]
	if !si.SignatureAlgorithm.Algorithm.Equal(oidECDSAWithSHA256) {
		return nil, fmt.Errorf("cms: unsupported signature algorithm %v", si.SignatureAlgorithm.Algorithm)
	}

	// Decode the encapsulated content.
	var eci struct {
		EContentType asn1.ObjectIdentifier
		EContent     asn1.RawValue
	}
	if _, err := asn1.Unmarshal(sd.EncapContentInfo.FullBytes, &eci); err != nil {
		return nil, fmt.Errorf("cms: bad EncapContentInfo: %w", err)
	}
	if eci.EContent.Class != asn1.ClassContextSpecific || eci.EContent.Tag != 0 {
		return nil, fmt.Errorf("cms: missing [0] eContent wrapper")
	}
	var content []byte
	if _, err := asn1.Unmarshal(eci.EContent.Bytes, &content); err != nil {
		return nil, fmt.Errorf("cms: bad eContent octets: %w", err)
	}

	// Parse the embedded EE certificate.
	if sd.Certificates.Class != asn1.ClassContextSpecific || sd.Certificates.Tag != 0 {
		return nil, fmt.Errorf("cms: missing embedded certificate")
	}
	ee, err := cert.Parse(sd.Certificates.Bytes)
	if err != nil {
		return nil, fmt.Errorf("cms: embedded EE: %w", err)
	}

	// Verify the signer identifier binds to the embedded certificate.
	if si.SID.Class != asn1.ClassContextSpecific || si.SID.Tag != 0 {
		return nil, fmt.Errorf("cms: unsupported signer identifier")
	}
	if !bytes.Equal(si.SID.Bytes, ee.Cert.SubjectKeyId) {
		return nil, fmt.Errorf("cms: signer SKI does not match embedded certificate")
	}

	// Verify the signed attributes bind the content.
	if si.SignedAttrs.Class != asn1.ClassContextSpecific || si.SignedAttrs.Tag != 0 {
		return nil, fmt.Errorf("cms: missing signed attributes")
	}
	digest := sha256.Sum256(content)
	declaredType, declaredDigest, err := parseSignedAttrs(si.SignedAttrs.Bytes)
	if err != nil {
		return nil, err
	}
	if !declaredType.Equal(eci.EContentType) {
		return nil, fmt.Errorf("cms: content-type attribute mismatch")
	}
	if !bytes.Equal(declaredDigest, digest[:]) {
		return nil, fmt.Errorf("cms: message digest mismatch (content corrupted)")
	}

	// Verify the signature over the explicit SET OF encoding of the attrs.
	pub, ok := ee.Cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("cms: EE key is not ECDSA")
	}
	signedAttrs, signature := si.SignedAttrs.Bytes, si.Signature
	if err := check(ee, func() error {
		attrDigest := hashExplicitSetOf(signedAttrs)
		if !ecdsa.VerifyASN1(pub, attrDigest[:], signature) {
			return fmt.Errorf("cms: signature verification failed")
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return &SignedObject{
		Raw:         der,
		ContentType: eci.EContentType,
		Content:     content,
		EE:          ee,
	}, nil
}

// hashExplicitSetOf computes SHA-256 over the explicit DER SET OF encoding
// (tag 0x31, definite length, content) of an implicitly tagged attribute
// set, without re-marshaling through encoding/asn1. This runs once per
// envelope signature verified — the relying party's hot path — so the
// header is written by hand on the stack and hashed ahead of the content
// instead of copying the attributes behind it.
func hashExplicitSetOf(content []byte) [32]byte {
	var buf [5]byte
	hdr := append(buf[:0], 0x31)
	switch n := len(content); {
	case n < 0x80:
		hdr = append(hdr, byte(n))
	case n < 0x100:
		hdr = append(hdr, 0x81, byte(n))
	case n < 0x10000:
		hdr = append(hdr, 0x82, byte(n>>8), byte(n))
	default:
		// Unreachable for RPKI signed attributes (two short attrs), but keep
		// the encoding correct for anything under MaxObjectSize.
		hdr = append(hdr, 0x83, byte(n>>16), byte(n>>8), byte(n))
	}
	h := sha256.New()
	h.Write(hdr)
	h.Write(content)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func parseSignedAttrs(setContent []byte) (contentType asn1.ObjectIdentifier, digest []byte, err error) {
	type attribute struct {
		Type   asn1.ObjectIdentifier
		Values []asn1.RawValue `asn1:"set"`
	}
	rest := setContent
	var sawCT, sawMD bool
	count := 0
	for len(rest) > 0 {
		count++
		if count > MaxSignedAttrs {
			return nil, nil, fmt.Errorf("cms: more than %d signed attributes", MaxSignedAttrs)
		}
		var a attribute
		rest, err = asn1.Unmarshal(rest, &a)
		if err != nil {
			return nil, nil, fmt.Errorf("cms: bad attribute: %w", err)
		}
		if len(a.Values) != 1 {
			return nil, nil, fmt.Errorf("cms: attribute %v must have one value", a.Type)
		}
		switch {
		case a.Type.Equal(oidAttrContentType):
			if _, err := asn1.Unmarshal(a.Values[0].FullBytes, &contentType); err != nil {
				return nil, nil, fmt.Errorf("cms: bad content-type attr: %w", err)
			}
			sawCT = true
		case a.Type.Equal(oidAttrMessageDigest):
			if _, err := asn1.Unmarshal(a.Values[0].FullBytes, &digest); err != nil {
				return nil, nil, fmt.Errorf("cms: bad message-digest attr: %w", err)
			}
			sawMD = true
		}
	}
	if !sawCT || !sawMD {
		return nil, nil, fmt.Errorf("cms: missing mandatory signed attributes")
	}
	return contentType, digest, nil
}
