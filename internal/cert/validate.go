package cert

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ipres"
)

// Validation errors distinguish why a certificate failed, because the
// paper's side effects hinge on the difference between a signature failure,
// an expiry, a revocation, and a resource-containment failure (the vector
// for targeted whacking).
var (
	ErrBadSignature     = errors.New("cert: signature verification failed")
	ErrNotYetValid      = errors.New("cert: not yet valid")
	ErrExpired          = errors.New("cert: expired")
	ErrRevoked          = errors.New("cert: revoked")
	ErrOverclaim        = errors.New("cert: resources not covered by issuer (overclaim)")
	ErrNotCA            = errors.New("cert: issuer is not a CA")
	ErrInheritAtAnchor  = errors.New("cert: trust anchor cannot inherit resources")
	ErrMissingResources = errors.New("cert: no resources after inheritance")
)

// ValidationContext carries the ambient inputs for path validation.
type ValidationContext struct {
	// Now is the validation time.
	Now time.Time
	// CRL, if non-nil, is the issuer's current CRL, whose signature by the
	// issuer the caller has verified; a child whose serial appears on it is
	// rejected. A nil CRL skips revocation checking (trust-anchor level).
	CRL *CRL
}

// EffectiveResources resolves the IP resources a certificate actually holds,
// applying RFC 3779 inheritance from the issuer's effective resources.
func EffectiveResources(rc *ResourceCert, issuerEffective ipres.Set) ipres.Set {
	out := ipres.EmptySet()
	if rc.IPBlocks.V4 != nil {
		if rc.IPBlocks.V4.Inherit {
			out = out.Union(issuerEffective.Family(ipres.IPv4))
		} else {
			out = out.Union(rc.IPBlocks.V4.Set)
		}
	}
	if rc.IPBlocks.V6 != nil {
		if rc.IPBlocks.V6.Inherit {
			out = out.Union(issuerEffective.Family(ipres.IPv6))
		} else {
			out = out.Union(rc.IPBlocks.V6.Set)
		}
	}
	return out
}

// ValidateChild checks that child is currently a valid certificate issued by
// issuer whose effective resources are issuerEffective: signature, validity
// window, revocation by ctx.CRL (see ValidateIssued), CA bit, and RFC 3779
// resource containment. It returns the child's effective resources on
// success.
//
// Resource containment is the heart of the RPKI's least-privilege design —
// and of the targeted-whacking attacks: when a parent reissues a child RC
// with a shrunken resource set, every descendant object whose resources fall
// outside the new set fails exactly this check.
func ValidateChild(issuer *ResourceCert, issuerEffective ipres.Set, child *ResourceCert, ctx ValidationContext) (ipres.Set, error) {
	return ValidateIssued(issuer, issuerEffective, child, child.Cert.CheckSignatureFrom(issuer.Cert), ctx)
}

// ValidateIssued is ValidateChild with the signature check done by the
// caller: sig is the outcome of checking child's signature by issuer — a
// VerifyCache verdict, or the EE part of a signed object's verdict
// (VerifyCache.CheckSigned). ctx.CRL is a CRL whose signature the caller
// has already verified: it is consulted for revocation, not checked again.
// Every other check runs here, in ValidateChild's order, and on every call.
func ValidateIssued(issuer *ResourceCert, issuerEffective ipres.Set, child *ResourceCert, sig error, ctx ValidationContext) (ipres.Set, error) {
	if !issuer.IsCA() {
		return ipres.Set{}, fmt.Errorf("%w: %q", ErrNotCA, issuer.Subject())
	}
	if sig != nil {
		return ipres.Set{}, fmt.Errorf("%w: %q: %v", ErrBadSignature, child.Subject(), sig)
	}
	if ctx.Now.Before(child.Cert.NotBefore) {
		return ipres.Set{}, fmt.Errorf("%w: %q (notBefore %v)", ErrNotYetValid, child.Subject(), child.Cert.NotBefore)
	}
	if ctx.Now.After(child.Cert.NotAfter) {
		return ipres.Set{}, fmt.Errorf("%w: %q (notAfter %v)", ErrExpired, child.Subject(), child.Cert.NotAfter)
	}
	if ctx.CRL != nil && ctx.CRL.IsRevoked(child.Cert.SerialNumber) {
		return ipres.Set{}, fmt.Errorf("%w: %q serial %v", ErrRevoked, child.Subject(), child.Cert.SerialNumber)
	}
	effective := EffectiveResources(child, issuerEffective)
	if effective.IsEmpty() {
		return ipres.Set{}, fmt.Errorf("%w: %q", ErrMissingResources, child.Subject())
	}
	// Explicit (non-inherited) resources must be covered by the issuer.
	explicit := child.IPBlocks.Set()
	if !issuerEffective.Covers(explicit) {
		over := explicit.Subtract(issuerEffective)
		return ipres.Set{}, fmt.Errorf("%w: %q claims %v beyond issuer", ErrOverclaim, child.Subject(), over)
	}
	return effective, nil
}

// ValidateTrustAnchor checks a self-signed trust-anchor certificate and
// returns its effective resources. sig is the outcome of checking ta's
// signature by its own key, ta.Cert.CheckSignatureFrom(ta.Cert), done by the
// caller as for ValidateIssued: a signature over fixed bytes is a pure
// function of them, so a caller that holds the same DER may keep its
// verdict. Every other check — validity window, CA bit, no inherit, resources
// — runs here, on every call.
func ValidateTrustAnchor(ta *ResourceCert, sig error, now time.Time) (ipres.Set, error) {
	if sig != nil {
		return ipres.Set{}, fmt.Errorf("%w: trust anchor %q: %v", ErrBadSignature, ta.Subject(), sig)
	}
	if now.Before(ta.Cert.NotBefore) {
		return ipres.Set{}, fmt.Errorf("%w: trust anchor %q", ErrNotYetValid, ta.Subject())
	}
	if now.After(ta.Cert.NotAfter) {
		return ipres.Set{}, fmt.Errorf("%w: trust anchor %q", ErrExpired, ta.Subject())
	}
	if !ta.IsCA() {
		return ipres.Set{}, fmt.Errorf("%w: trust anchor %q", ErrNotCA, ta.Subject())
	}
	if ta.IPBlocks.HasInherit() {
		return ipres.Set{}, fmt.Errorf("%w: %q", ErrInheritAtAnchor, ta.Subject())
	}
	res := ta.IPBlocks.Set()
	if res.IsEmpty() {
		return ipres.Set{}, fmt.Errorf("%w: trust anchor %q", ErrMissingResources, ta.Subject())
	}
	return res, nil
}
