package cert

import (
	"crypto"
	"crypto/sha256"
	"crypto/x509/pkix"
	"encoding/asn1"
	"time"
)

// The RFC 5280 structures this package issues, encoded with encoding/asn1.
// Field order and tags follow crypto/x509's own encoder, so a certificate
// or CRL issued here is byte for byte the one x509.CreateCertificate or
// x509.CreateRevocationList would make from the same input
// (TestIssueMatchesX509).

var (
	oidSignatureECDSAWithSHA256 = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 2}
	oidExtSubjectKeyID          = asn1.ObjectIdentifier{2, 5, 29, 14}
	oidExtKeyUsage              = asn1.ObjectIdentifier{2, 5, 29, 15}
	oidExtBasicConstraints      = asn1.ObjectIdentifier{2, 5, 29, 19}
	oidExtCRLNumber             = asn1.ObjectIdentifier{2, 5, 29, 20}
	oidExtCRLDistributionPoints = asn1.ObjectIdentifier{2, 5, 29, 31}
	oidExtAuthorityKeyID        = asn1.ObjectIdentifier{2, 5, 29, 35}

	ecdsaWithSHA256 = pkix.AlgorithmIdentifier{Algorithm: oidSignatureECDSAWithSHA256}
)

// The key usage and basic constraints of the profile's two kinds of
// certificate. A KeyUsage BIT STRING names bit 0 first and drops trailing
// zero bits: a CA's keyCertSign (5) and cRLSign (6) are 0000011, an EE's
// digitalSignature (0) is 1.
var (
	caKeyUsage         = mustMarshal(asn1.BitString{Bytes: []byte{0x06}, BitLength: 7})
	eeKeyUsage         = mustMarshal(asn1.BitString{Bytes: []byte{0x80}, BitLength: 1})
	caBasicConstraints = mustMarshal(basicConstraints{IsCA: true})
	eeBasicConstraints = mustMarshal(basicConstraints{})
)

type tbsCertificate struct {
	Version      int `asn1:"optional,explicit,default:0,tag:0"`
	SerialNumber int64
	Signature    pkix.AlgorithmIdentifier
	Issuer       asn1.RawValue
	Validity     validity
	Subject      asn1.RawValue
	PublicKey    asn1.RawValue    // a DER SubjectPublicKeyInfo
	Extensions   []pkix.Extension `asn1:"optional,explicit,tag:3"`
}

type validity struct {
	NotBefore, NotAfter time.Time
}

type tbsCertList struct {
	Version    int `asn1:"optional,default:0"`
	Signature  pkix.AlgorithmIdentifier
	Issuer     asn1.RawValue
	ThisUpdate time.Time
	NextUpdate time.Time                 `asn1:"optional"`
	Revoked    []pkix.RevokedCertificate `asn1:"optional"`
	Extensions []pkix.Extension          `asn1:"tag:0,optional,explicit"`
}

// signedTBS is both a Certificate and a CertificateList: a to-be-signed
// body, the signature's algorithm and the signature.
type signedTBS struct {
	TBS       asn1.RawValue
	Algorithm pkix.AlgorithmIdentifier
	Signature asn1.BitString
}

type basicConstraints struct {
	IsCA bool `asn1:"optional"`
}

type authKeyID struct {
	ID []byte `asn1:"optional,tag:0"`
}

type distributionPoint struct {
	Name distributionPointName `asn1:"optional,tag:0"`
}

type distributionPointName struct {
	FullName []asn1.RawValue `asn1:"optional,tag:0"`
}

func mustMarshal(v any) []byte {
	der, err := asn1.Marshal(v)
	if err != nil {
		panic(err)
	}
	return der
}

// signTBS encodes a to-be-signed body, signs its SHA-256 with key and
// wraps the two. A nil rand makes the ECDSA signature RFC 6979's deterministic
// one: the same body and key always give the same bytes. The signature is
// not verified here; every relying party verifies it.
func signTBS(tbs any, key *KeyPair) ([]byte, error) {
	body, err := asn1.Marshal(tbs)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256(body)
	sig, err := key.Private.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		return nil, err
	}
	return asn1.Marshal(signedTBS{
		TBS:       asn1.RawValue{FullBytes: body},
		Algorithm: ecdsaWithSHA256,
		Signature: asn1.BitString{Bytes: sig, BitLength: 8 * len(sig)},
	})
}
