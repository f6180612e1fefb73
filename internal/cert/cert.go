package cert

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"time"

	"repro/internal/ipres"
	"repro/internal/rfc3779"
)

// ResourceCert is a parsed RPKI resource certificate: an X.509 certificate
// carrying RFC 3779 resource extensions and RPKI SIA/AIA pointers.
type ResourceCert struct {
	// Raw is the DER encoding.
	Raw []byte
	// Cert is the underlying parsed X.509 certificate.
	Cert *x509.Certificate
	// IPBlocks are the certified IP resources (possibly inherit).
	IPBlocks rfc3779.IPAddrBlocks
	// ASNs are the certified AS resources (possibly inherit).
	ASNs rfc3779.ASChoice
	// SIA holds the subject information access pointers.
	SIA InfoAccess
	// AIA holds the authority information access pointers.
	AIA InfoAccess
	// skiKey is the SubjectKeyId as an immutable string, computed once at
	// parse time so hot paths (verify-cache keys) never re-convert it.
	skiKey string
}

// SKIKey returns the subject key identifier as an immutable string,
// suitable for map keys without a per-call allocation.
func (rc *ResourceCert) SKIKey() string { return rc.skiKey }

// IsCA reports whether this is a CA (resource-holding authority)
// certificate rather than a one-time-use EE certificate.
func (rc *ResourceCert) IsCA() bool { return rc.Cert.IsCA }

// Subject returns the subject common name.
func (rc *ResourceCert) Subject() string { return rc.Cert.Subject.CommonName }

// SerialNumber returns the certificate serial.
func (rc *ResourceCert) SerialNumber() *big.Int { return rc.Cert.SerialNumber }

// IPSet returns the explicit IP resources (empty if all families inherit).
func (rc *ResourceCert) IPSet() ipres.Set { return rc.IPBlocks.Set() }

// NotAfter returns the end of the validity window.
func (rc *ResourceCert) NotAfter() time.Time { return rc.Cert.NotAfter }

// NotBefore returns the start of the validity window.
func (rc *ResourceCert) NotBefore() time.Time { return rc.Cert.NotBefore }

// Template collects the inputs for issuing a resource certificate.
type Template struct {
	// Subject is the subject common name. RPKI subjects carry no real-world
	// identity semantics, but meaningful names make hierarchies readable.
	Subject string
	// Serial is the certificate serial number; must be unique per issuer.
	Serial int64
	// NotBefore and NotAfter bound the validity window.
	NotBefore, NotAfter time.Time
	// Resources are the certified IP resources. Ignored if InheritIP.
	Resources ipres.Set
	// InheritIP marks all present IP families as inherit (EE certificates
	// typically inherit).
	InheritIP bool
	// ASNs are the certified AS resources (often empty for ROAs' EEs).
	ASNs ipres.ASNSet
	// InheritAS marks AS resources as inherit.
	InheritAS bool
	// CA selects a CA certificate (true) or EE certificate (false).
	CA bool
	// SIA carries the subject's publication pointers: CARepository and
	// Manifest for CAs, SignedObject for EEs.
	SIA InfoAccess
	// CRLDistributionPoint is the URI of the issuer's CRL covering this
	// certificate (absent on self-signed trust anchors).
	CRLDistributionPoint string
	// AIACAIssuers points at the issuer's certificate publication URI.
	AIACAIssuers string
}

// Issue creates and signs a resource certificate for subjectKey's public key
// using issuerKey. If issuer is nil the certificate is self-signed (a trust
// anchor). issuerKey must be the key the issuer's certificate names, or
// subjectKey itself for a trust anchor. The returned certificate is parsed
// and ready for use.
func Issue(tmpl Template, issuer *ResourceCert, issuerKey, subjectKey *KeyPair) (*ResourceCert, error) {
	if subjectKey == nil {
		return nil, fmt.Errorf("cert: nil subject key")
	}
	return IssueForKey(tmpl, issuer, issuerKey, subjectKey.Public())
}

// IssueForKey is Issue for a subject identified only by its public key — no
// private key required. This is exactly the capability a manipulating
// ancestor uses in a deep whack (Side Effect 4): it can issue a replacement
// certificate for a distant descendant's existing key, re-rooting that
// descendant's entire signed subtree under itself, without the descendant's
// cooperation.
func IssueForKey(tmpl Template, issuer *ResourceCert, issuerKey *KeyPair, subjectPub *ecdsa.PublicKey) (*ResourceCert, error) {
	if issuerKey == nil || subjectPub == nil {
		return nil, fmt.Errorf("cert: nil key")
	}
	if tmpl.NotAfter.Before(tmpl.NotBefore) {
		return nil, fmt.Errorf("cert: inverted validity window")
	}
	if tmpl.Serial < 0 {
		return nil, fmt.Errorf("cert: negative serial %d", tmpl.Serial)
	}
	spki, err := x509.MarshalPKIXPublicKey(subjectPub)
	if err != nil {
		return nil, fmt.Errorf("cert: encoding subject key: %w", err)
	}
	subject, err := asn1.Marshal(pkix.Name{CommonName: tmpl.Subject}.ToRDNSequence())
	if err != nil {
		return nil, fmt.Errorf("cert: encoding subject: %w", err)
	}
	// The key that signs must be the one the issuer's certificate names:
	// the subject's own key for a trust anchor.
	issuerName, issuerPub := subject, any(subjectPub)
	if issuer != nil {
		issuerName, issuerPub = issuer.Cert.RawSubject, issuer.Cert.PublicKey
	}
	if !issuerKey.Public().Equal(issuerPub) {
		return nil, fmt.Errorf("cert: issuer key does not match the issuer's certificate")
	}

	var ipb rfc3779.IPAddrBlocks
	if tmpl.InheritIP {
		ipb = rfc3779.IPAddrBlocks{
			V4: &rfc3779.IPChoice{Inherit: true},
			V6: &rfc3779.IPChoice{Inherit: true},
		}
	} else {
		ipb = rfc3779.FromSet(tmpl.Resources)
	}
	ipDER, err := rfc3779.MarshalIPAddrBlocks(ipb)
	if err != nil {
		return nil, fmt.Errorf("cert: encoding IP resources: %w", err)
	}
	ski, err := asn1.Marshal(skiForSPKI(spki))
	if err != nil {
		return nil, err
	}
	// Extensions in crypto/x509's order: the ones it builds from its own
	// template fields, then the RPKI ones it would append.
	keyUsage, basic := eeKeyUsage, eeBasicConstraints
	if tmpl.CA {
		keyUsage, basic = caKeyUsage, caBasicConstraints
	}
	extensions := []pkix.Extension{
		{Id: oidExtKeyUsage, Critical: true, Value: keyUsage},
		{Id: oidExtBasicConstraints, Critical: true, Value: basic},
		{Id: oidExtSubjectKeyID, Value: ski},
	}
	if issuer != nil {
		aki, err := asn1.Marshal(authKeyID{ID: issuer.Cert.SubjectKeyId})
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: oidExtAuthorityKeyID, Value: aki})
	}
	if tmpl.CRLDistributionPoint != "" {
		dp, err := asn1.Marshal([]distributionPoint{{Name: distributionPointName{
			FullName: []asn1.RawValue{uriGeneralName(tmpl.CRLDistributionPoint)},
		}}})
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: oidExtCRLDistributionPoints, Value: dp})
	}
	extensions = append(extensions, pkix.Extension{
		Id:       rfc3779.OIDIPAddrBlocks,
		Critical: true,
		Value:    ipDER,
	})
	if tmpl.InheritAS || !tmpl.ASNs.IsEmpty() {
		asDER, err := rfc3779.MarshalASIdentifiers(rfc3779.ASChoice{Inherit: tmpl.InheritAS, Set: tmpl.ASNs})
		if err != nil {
			return nil, fmt.Errorf("cert: encoding AS resources: %w", err)
		}
		extensions = append(extensions, pkix.Extension{
			Id:       rfc3779.OIDASIdentifiers,
			Critical: true,
			Value:    asDER,
		})
	}
	if tmpl.SIA != (InfoAccess{}) {
		siaDER, err := marshalInfoAccess(tmpl.SIA)
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: oidSIA, Value: siaDER})
	}
	if tmpl.AIACAIssuers != "" {
		aiaDER, err := marshalInfoAccess(InfoAccess{CAIssuers: tmpl.AIACAIssuers})
		if err != nil {
			return nil, err
		}
		extensions = append(extensions, pkix.Extension{Id: oidAIA, Value: aiaDER})
	}

	der, err := signTBS(tbsCertificate{
		Version:      2, // v3
		SerialNumber: tmpl.Serial,
		Signature:    ecdsaWithSHA256,
		Issuer:       asn1.RawValue{FullBytes: issuerName},
		Validity:     validity{tmpl.NotBefore.UTC(), tmpl.NotAfter.UTC()},
		Subject:      asn1.RawValue{FullBytes: subject},
		PublicKey:    asn1.RawValue{FullBytes: spki},
		Extensions:   extensions,
	}, issuerKey)
	if err != nil {
		return nil, fmt.Errorf("cert: signing certificate: %w", err)
	}
	return Parse(der)
}

// Parse decodes a DER resource certificate and extracts its RPKI
// extensions. Certificates without an IPAddrBlocks extension are rejected:
// every RPKI certificate certifies resources. So is one whose subject key
// identifier is not the identifier of its own key: signature verdicts are
// keyed by the issuer's identifier, so an identifier carried over to a new
// key would answer for signatures the new key never made.
func Parse(der []byte) (*ResourceCert, error) {
	x, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("cert: parsing certificate: %w", err)
	}
	if !bytes.Equal(x.SubjectKeyId, skiForSPKI(x.RawSubjectPublicKeyInfo)) {
		return nil, fmt.Errorf("cert: %q subject key identifier %x does not identify its key", x.Subject.CommonName, x.SubjectKeyId)
	}
	rc := &ResourceCert{Raw: der, Cert: x, skiKey: string(x.SubjectKeyId)}
	var sawIP bool
	for _, ext := range x.Extensions {
		switch {
		case ext.Id.Equal(rfc3779.OIDIPAddrBlocks):
			rc.IPBlocks, err = rfc3779.UnmarshalIPAddrBlocks(ext.Value)
			if err != nil {
				return nil, err
			}
			sawIP = true
		case ext.Id.Equal(rfc3779.OIDASIdentifiers):
			rc.ASNs, err = rfc3779.UnmarshalASIdentifiers(ext.Value)
			if err != nil {
				return nil, err
			}
		case ext.Id.Equal(oidSIA):
			rc.SIA, err = unmarshalInfoAccess(ext.Value)
			if err != nil {
				return nil, err
			}
		case ext.Id.Equal(oidAIA):
			rc.AIA, err = unmarshalInfoAccess(ext.Value)
			if err != nil {
				return nil, err
			}
		}
	}
	if !sawIP {
		return nil, fmt.Errorf("cert: %q has no IPAddrBlocks extension", x.Subject.CommonName)
	}
	return rc, nil
}
