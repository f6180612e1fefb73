package cert

import (
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"time"
)

// CRL is a parsed certificate revocation list issued by an RPKI CA.
// Revocation is the traditional, transparent way for an authority to whack a
// child object (Side Effect 1 of the paper); the CRL is the public record
// that relying parties could monitor for abusive revocations.
type CRL struct {
	// Raw is the DER encoding.
	Raw []byte
	// List is the parsed revocation list.
	List *x509.RevocationList
	// digest is SHA-256 of Raw: the key of the CRL's signature verdict.
	digest [32]byte
}

// IssueCRL creates and signs a CRL listing the given revoked serial numbers.
// issuerKey must be the key issuer's certificate names, and that
// certificate must allow CRL signing and carry a subject key identifier.
func IssueCRL(issuer *ResourceCert, issuerKey *KeyPair, number int64, revoked []*big.Int, thisUpdate, nextUpdate time.Time) (*CRL, error) {
	switch {
	case issuer == nil || issuerKey == nil:
		return nil, fmt.Errorf("cert: nil CRL issuer")
	case issuer.Cert.KeyUsage&x509.KeyUsageCRLSign == 0:
		return nil, fmt.Errorf("cert: %q may not sign CRLs", issuer.Subject())
	case len(issuer.Cert.SubjectKeyId) == 0:
		return nil, fmt.Errorf("cert: %q has no subject key identifier", issuer.Subject())
	case nextUpdate.Before(thisUpdate):
		return nil, fmt.Errorf("cert: CRL thisUpdate after nextUpdate")
	case !issuerKey.Public().Equal(issuer.Cert.PublicKey):
		return nil, fmt.Errorf("cert: CRL key does not match %q's certificate", issuer.Subject())
	}
	var entries []pkix.RevokedCertificate
	if len(revoked) > 0 {
		if thisUpdate.IsZero() {
			return nil, fmt.Errorf("cert: zero revocation time")
		}
		entries = make([]pkix.RevokedCertificate, len(revoked))
		for i, serial := range revoked {
			entries[i] = pkix.RevokedCertificate{SerialNumber: serial, RevocationTime: thisUpdate.UTC()}
		}
	}
	aki, err := asn1.Marshal(authKeyID{ID: issuer.Cert.SubjectKeyId})
	if err != nil {
		return nil, err
	}
	crlNumber, err := asn1.Marshal(number)
	if err != nil {
		return nil, err
	}
	der, err := signTBS(tbsCertList{
		Version:    1, // v2
		Signature:  ecdsaWithSHA256,
		Issuer:     asn1.RawValue{FullBytes: issuer.Cert.RawSubject},
		ThisUpdate: thisUpdate.UTC(),
		NextUpdate: nextUpdate.UTC(),
		Revoked:    entries,
		Extensions: []pkix.Extension{
			{Id: oidExtAuthorityKeyID, Value: aki},
			{Id: oidExtCRLNumber, Value: crlNumber},
		},
	}, issuerKey)
	if err != nil {
		return nil, fmt.Errorf("cert: signing CRL: %w", err)
	}
	return ParseCRL(der)
}

// ParseCRL decodes a DER-encoded CRL.
func ParseCRL(der []byte) (*CRL, error) {
	return ParseHashedCRL(der, sha256.Sum256(der))
}

// ParseHashedCRL is ParseCRL for a caller that has already hashed der:
// digest must be its SHA-256.
func ParseHashedCRL(der []byte, digest [32]byte) (*CRL, error) {
	list, err := x509.ParseRevocationList(der)
	if err != nil {
		return nil, fmt.Errorf("cert: parsing CRL: %w", err)
	}
	return &CRL{Raw: der, List: list, digest: digest}, nil
}

// VerifySignature checks that the CRL was signed by issuer.
func (c *CRL) VerifySignature(issuer *ResourceCert) error {
	return c.List.CheckSignatureFrom(issuer.Cert)
}

// IsRevoked reports whether serial appears on the list.
func (c *CRL) IsRevoked(serial *big.Int) bool {
	for _, e := range c.List.RevokedCertificateEntries {
		if e.SerialNumber.Cmp(serial) == 0 {
			return true
		}
	}
	return false
}

// Stale reports whether the CRL's nextUpdate has passed at time now.
func (c *CRL) Stale(now time.Time) bool {
	return now.After(c.List.NextUpdate)
}
