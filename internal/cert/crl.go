package cert

import (
	"crypto/sha256"
	"crypto/x509"
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
func IssueCRL(issuer *ResourceCert, issuerKey *KeyPair, number int64, revoked []*big.Int, thisUpdate, nextUpdate time.Time) (*CRL, error) {
	entries := make([]x509.RevocationListEntry, len(revoked))
	for i, serial := range revoked {
		entries[i] = x509.RevocationListEntry{
			SerialNumber:   serial,
			RevocationTime: thisUpdate,
		}
	}
	tmpl := &x509.RevocationList{
		Number:                    big.NewInt(number),
		ThisUpdate:                thisUpdate,
		NextUpdate:                nextUpdate,
		RevokedCertificateEntries: entries,
		SignatureAlgorithm:        x509.ECDSAWithSHA256,
	}
	der, err := x509.CreateRevocationList(nil, tmpl, issuer.Cert, issuerKey.Private)
	if err != nil {
		return nil, fmt.Errorf("cert: creating CRL: %w", err)
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
