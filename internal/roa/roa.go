// Package roa implements Route Origin Authorizations (RFC 6482): the RPKI
// signed object through which the holder of an IP prefix authorizes one AS
// to originate that prefix — and its subprefixes up to a stated maximum
// length — in BGP.
//
// A ROA's semantics for route validation are deliberately asymmetric (the
// paper's Section 4): issuing a ROA protects the authorized route but makes
// every *covered* route without its own matching ROA invalid. That is what
// turns a whacked or missing ROA into an outage rather than a fallback to
// "unknown".
package roa

import (
	"encoding/asn1"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cert"
	"repro/internal/cms"
	"repro/internal/ipres"
	"repro/internal/rfc3779"
)

// MaxPrefixes bounds the number of (prefix, maxLength) pairs a decoded ROA
// may carry across all address families. Real ROAs hold a handful; 16384
// stops a malicious CA from packing one signed object with millions of
// entries that each fan out into VRP processing downstream.
const MaxPrefixes = 16_384

// Prefix is one authorized prefix with its maximum length: the origin AS
// may announce any subprefix of Prefix whose length is at most MaxLength.
type Prefix struct {
	Prefix    ipres.Prefix
	MaxLength int
}

// String renders the paper's "63.160.0.0/12-13" notation (the max length is
// omitted when it equals the prefix length).
func (p Prefix) String() string {
	if p.MaxLength == p.Prefix.Bits() {
		return p.Prefix.String()
	}
	return fmt.Sprintf("%s-%d", p.Prefix, p.MaxLength)
}

// ParsePrefix parses "prefix" or "prefix-maxlen" notation.
func ParsePrefix(s string) (Prefix, error) {
	base := s
	maxLen := -1
	if i := strings.LastIndexByte(s, '-'); i > strings.LastIndexByte(s, '/') {
		base = s[:i]
		if _, err := fmt.Sscanf(s[i+1:], "%d", &maxLen); err != nil {
			return Prefix{}, fmt.Errorf("roa: bad max length in %q", s)
		}
	}
	p, err := ipres.ParsePrefix(base)
	if err != nil {
		return Prefix{}, err
	}
	if maxLen < 0 {
		maxLen = p.Bits()
	}
	if maxLen < p.Bits() || maxLen > p.Family().Width() {
		return Prefix{}, fmt.Errorf("roa: max length %d out of range for %v", maxLen, p)
	}
	return Prefix{Prefix: p, MaxLength: maxLen}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ROA is the decoded content of a Route Origin Authorization.
type ROA struct {
	// ASID is the authorized origin AS.
	ASID ipres.ASN
	// Prefixes are the authorized prefixes with their max lengths.
	Prefixes []Prefix
}

// New builds a ROA, validating and canonicalizing its prefixes.
func New(asid ipres.ASN, prefixes ...Prefix) (*ROA, error) {
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("roa: no prefixes")
	}
	ps := append([]Prefix(nil), prefixes...)
	for _, p := range ps {
		if !p.Prefix.IsValid() {
			return nil, fmt.Errorf("roa: invalid prefix")
		}
		if p.MaxLength < p.Prefix.Bits() || p.MaxLength > p.Prefix.Family().Width() {
			return nil, fmt.Errorf("roa: max length %d out of range for %v", p.MaxLength, p.Prefix)
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Prefix.Cmp(ps[j].Prefix); c != 0 {
			return c < 0
		}
		return ps[i].MaxLength < ps[j].MaxLength
	})
	return &ROA{ASID: asid, Prefixes: ps}, nil
}

// MustNew is New that panics on error.
func MustNew(asid ipres.ASN, prefixes ...Prefix) *ROA {
	r, err := New(asid, prefixes...)
	if err != nil {
		panic(err)
	}
	return r
}

// ResourceSet returns the IP resources the ROA attests over; the signing EE
// certificate must hold (at least) these resources for the ROA to be valid.
func (r *ROA) ResourceSet() ipres.Set {
	return ipres.SetOfPrefixes(r.prefixList()...)
}

func (r *ROA) prefixList() []ipres.Prefix {
	out := make([]ipres.Prefix, len(r.Prefixes))
	for i, p := range r.Prefixes {
		out[i] = p.Prefix
	}
	return out
}

// String renders the ROA in the paper's "(prefix-maxlen, ASN)" style.
func (r *ROA) String() string {
	parts := make([]string, len(r.Prefixes))
	for i, p := range r.Prefixes {
		parts[i] = p.String()
	}
	return fmt.Sprintf("(%s, %s)", strings.Join(parts, " "), r.ASID)
}

// ASN.1 structures per RFC 6482.
type roaIPAddress struct {
	Address   asn1.BitString
	MaxLength int `asn1:"optional,default:-1"`
}

type roaIPAddressFamily struct {
	AddressFamily []byte
	Addresses     []roaIPAddress
}

type routeOriginAttestation struct {
	ASID         int64
	IPAddrBlocks []roaIPAddressFamily
}

// MarshalContent DER-encodes the ROA eContent.
func (r *ROA) MarshalContent() ([]byte, error) {
	byFam := map[ipres.Family][]roaIPAddress{}
	var famOrder []ipres.Family
	for _, p := range r.Prefixes {
		f := p.Prefix.Family()
		if _, seen := byFam[f]; !seen {
			famOrder = append(famOrder, f)
		}
		entry := roaIPAddress{Address: rfc3779.PrefixToBitString(p.Prefix), MaxLength: p.MaxLength}
		byFam[f] = append(byFam[f], entry)
	}
	sort.Slice(famOrder, func(i, j int) bool { return famOrder[i] < famOrder[j] })
	var fams []roaIPAddressFamily
	for _, f := range famOrder {
		fams = append(fams, roaIPAddressFamily{
			AddressFamily: []byte{0, byte(f)},
			Addresses:     byFam[f],
		})
	}
	return asn1.Marshal(routeOriginAttestation{ASID: int64(r.ASID), IPAddrBlocks: fams})
}

// UnmarshalContent decodes a ROA eContent.
func UnmarshalContent(der []byte) (*ROA, error) {
	if len(der) > cms.MaxObjectSize {
		return nil, fmt.Errorf("roa: eContent %d bytes exceeds limit %d", len(der), cms.MaxObjectSize)
	}
	var raw routeOriginAttestation
	rest, err := asn1.Unmarshal(der, &raw)
	if err != nil {
		return nil, fmt.Errorf("roa: bad eContent: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("roa: trailing bytes in eContent")
	}
	if raw.ASID < 0 || raw.ASID > int64(^uint32(0)) {
		return nil, fmt.Errorf("roa: ASID %d out of range", raw.ASID)
	}
	var prefixes []Prefix
	for _, fam := range raw.IPAddrBlocks {
		if len(fam.AddressFamily) < 2 {
			return nil, fmt.Errorf("roa: short addressFamily")
		}
		afi := ipres.Family(uint16(fam.AddressFamily[0])<<8 | uint16(fam.AddressFamily[1]))
		if !afi.Valid() {
			return nil, fmt.Errorf("roa: unsupported AFI %d", afi)
		}
		for _, a := range fam.Addresses {
			if len(prefixes) >= MaxPrefixes {
				return nil, fmt.Errorf("roa: more than %d prefixes", MaxPrefixes)
			}
			p, err := rfc3779.PrefixFromBitString(afi, a.Address)
			if err != nil {
				return nil, err
			}
			maxLen := a.MaxLength
			if maxLen == -1 {
				maxLen = p.Bits()
			}
			if maxLen < p.Bits() || maxLen > afi.Width() {
				return nil, fmt.Errorf("roa: max length %d out of range for %v", maxLen, p)
			}
			prefixes = append(prefixes, Prefix{Prefix: p, MaxLength: maxLen})
		}
	}
	return New(ipres.ASN(raw.ASID), prefixes...)
}

// Sign wraps the ROA in a CMS envelope signed by the EE key.
func (r *ROA) Sign(ee *cert.ResourceCert, eeKey *cert.KeyPair) ([]byte, error) {
	content, err := r.MarshalContent()
	if err != nil {
		return nil, err
	}
	return cms.Sign(cms.OIDContentTypeROA, content, ee, eeKey)
}

// Signed is a parsed, signature-verified ROA together with its EE
// certificate (whose chain the relying party must still validate).
type Signed struct {
	ROA *ROA
	EE  *cert.ResourceCert
	Raw []byte
}

// ParseSigned decodes and signature-verifies a CMS-wrapped ROA, then checks
// the RFC 6482 requirement that the EE certificate's resources cover the
// ROA's prefixes (when the EE carries explicit resources; inherit is
// resolved later during path validation).
func ParseSigned(der []byte) (*Signed, error) {
	if len(der) > cms.MaxObjectSize {
		return nil, errTooLarge(len(der))
	}
	return ParseSignedWith(der, cms.Verify)
}

func errTooLarge(n int) error {
	return fmt.Errorf("roa: object %d bytes exceeds limit %d", n, cms.MaxObjectSize)
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
	if !obj.ContentType.Equal(cms.OIDContentTypeROA) {
		return nil, fmt.Errorf("roa: content type %v is not a ROA", obj.ContentType)
	}
	r, err := UnmarshalContent(obj.Content)
	if err != nil {
		return nil, err
	}
	if !obj.EE.IPBlocks.HasInherit() {
		if !obj.EE.IPSet().Covers(r.ResourceSet()) {
			return nil, fmt.Errorf("roa: EE certificate resources %v do not cover ROA %v", obj.EE.IPSet(), r)
		}
	}
	return &Signed{ROA: r, EE: obj.EE, Raw: der}, nil
}
