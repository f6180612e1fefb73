package ca

import (
	"crypto/x509/pkix"
	"fmt"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
)

// The operations in this file are the authority-side mechanics of the
// paper's side effects. None of them violates the RPKI specifications —
// that is the point: a parent needs no exploit to whack a descendant.

// RevokeChild revokes a child's certificate via the CRL and withdraws it
// from the repository. This is the *transparent* whack: the revocation is
// visible on the public CRL, so monitors (and the child) can see it
// (Side Effect 1).
func (a *Authority) RevokeChild(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.children[name]
	if !ok {
		return fmt.Errorf("ca: %s has no child %q", a.Name, name)
	}
	a.revoked = append(a.revoked, pkix.RevokedCertificate{SerialNumber: rec.cert.SerialNumber(), RevocationTime: a.cfg.now()})
	a.Store.Delete(rec.fileName)
	delete(a.children, name)
	delete(a.childHandles, name)
	return a.republishLocked()
}

// DeleteChildCert removes a child's certificate from the repository WITHOUT
// revoking it. The certificate remains cryptographically valid — it is just
// no longer retrievable, so relying parties cannot build the chain. Nothing
// appears on any CRL: this is the stealthy revocation of Side Effect 2.
func (a *Authority) DeleteChildCert(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.children[name]
	if !ok {
		return fmt.Errorf("ca: %s has no child %q", a.Name, name)
	}
	a.Store.Delete(rec.fileName)
	delete(a.children, name)
	delete(a.childHandles, name)
	return a.republishLocked()
}

// ShrinkChild overwrites a child's certificate in place with one certifying
// newResources (which must be covered by this authority's resources). The
// object keeps its persistent name, so to a casual observer this is
// indistinguishable from routine reissuance — yet every descendant object
// whose resources now fall outside newResources becomes invalid. This is
// the mechanism of targeted whacking (Side Effect 3 / Figure 3).
//
// The old certificate is NOT placed on the CRL; it has simply been
// overwritten, which is ordinary behavior under the RPKI's persistent-name
// design decision.
func (a *Authority) ShrinkChild(name string, newResources ipres.Set) error {
	a.mu.Lock()
	child, newCert, err := a.shrinkChildLocked(name, newResources)
	a.mu.Unlock()
	if err != nil {
		return err
	}
	// The child's handle is updated under the CHILD's lock, after ours is
	// released: Authority locks are acquired child→parent only.
	child.setCert(newCert)
	return nil
}

func (a *Authority) shrinkChildLocked(name string, newResources ipres.Set) (*Authority, *cert.ResourceCert, error) {
	rec, ok := a.children[name]
	if !ok {
		return nil, nil, fmt.Errorf("ca: %s has no child %q", a.Name, name)
	}
	if !a.Cert.IPSet().Covers(newResources) {
		return nil, nil, fmt.Errorf("ca: %s cannot certify %v beyond its resources", a.Name, newResources.Subtract(a.Cert.IPSet()))
	}
	child := a.childAuthorityLocked(name)
	if child == nil {
		return nil, nil, fmt.Errorf("ca: %s child %q authority handle missing", a.Name, name)
	}
	newCert, err := a.issueChildCertLocked(child, newResources)
	if err != nil {
		return nil, nil, err
	}
	rec.cert = newCert
	rec.resources = newResources
	a.Store.Put(rec.fileName, newCert.Raw) // overwrite in place
	return child, newCert, a.republishLocked()
}

// childAuthorities tracks the live child Authority handles so ShrinkChild
// and key rollover can reissue against the child's existing key. The map is
// maintained lazily: CreateChild links the handle.
func (a *Authority) childAuthorityLocked(name string) *Authority {
	if a.childHandles == nil {
		return nil
	}
	return a.childHandles[name]
}

// DeleteROA withdraws one of this authority's own ROAs from its repository
// without revoking the EE certificate: stealthy for the same reason as
// DeleteChildCert.
func (a *Authority) DeleteROA(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.roas[name]
	if !ok {
		return fmt.Errorf("ca: %s has no ROA %q", a.Name, name)
	}
	a.Store.Delete(rec.fileName)
	delete(a.roas, name)
	return a.republishLocked()
}

// RevokeROA revokes the ROA's EE certificate on the CRL and withdraws the
// object: the transparent variant.
func (a *Authority) RevokeROA(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.roas[name]
	if !ok {
		return fmt.Errorf("ca: %s has no ROA %q", a.Name, name)
	}
	a.revoked = append(a.revoked, pkix.RevokedCertificate{SerialNumber: rec.eeSerial, RevocationTime: a.cfg.now()})
	a.Store.Delete(rec.fileName)
	delete(a.roas, name)
	return a.republishLocked()
}

// RevokedSerials returns the serial numbers currently on this authority's
// CRL (as decimal strings, for monitors).
func (a *Authority) RevokedSerials() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.revoked))
	for i, r := range a.revoked {
		out[i] = r.SerialNumber.String()
	}
	return out
}

// certUpdate is a child certificate reissued under the parent's lock whose
// handle install is deferred until the parent's critical section ends.
type certUpdate struct {
	child *Authority
	cert  *cert.ResourceCert
}

// RollKey performs an RFC 6489 key rollover: the authority generates a new
// key, obtains a new certificate from its parent under the SAME subject and
// publication point (overwriting the old one — the reason RPKI objects have
// persistent, overwritable names), and reissues all of its signed products.
func (a *Authority) RollKey() error {
	a.mu.Lock()
	//lint:ignore lockorder the re-acquisition is a.Parent's mu, a distinct instance: Authority locks are acquired strictly child→parent and no path acquires a descendant's lock while holding its own, so the same-type identity cannot cycle
	updates, err := a.rollKeyLocked()
	a.mu.Unlock()
	if err != nil {
		return err
	}
	// Install the children's reissued certificates under each child's own
	// lock, now that ours is released (locks are acquired child→parent
	// only — never downward).
	for _, u := range updates {
		u.child.setCert(u.cert)
	}
	return nil
}

func (a *Authority) rollKeyLocked() ([]certUpdate, error) {
	newKey, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return nil, err
	}
	oldKey := a.Key
	a.Key = newKey
	if a.Parent == nil {
		// Trust anchor: reissue self-signed.
		now := a.cfg.now()
		taCert, err := cert.Issue(cert.Template{
			Subject:   a.Name,
			Serial:    a.nextSerial(),
			NotBefore: now.Add(-time.Minute),
			NotAfter:  now.Add(a.cfg.certValidity()),
			Resources: a.Cert.IPSet(),
			CA:        true,
			SIA: cert.InfoAccess{
				CARepository: a.URI.String() + "/",
				Manifest:     a.URI.ObjectURI(a.ManifestFileName()),
			},
		}, nil, newKey, newKey)
		if err != nil {
			a.Key = oldKey
			return nil, err
		}
		a.Cert = taCert
		a.Store.Put(a.CertFileName(), taCert.Raw)
	} else {
		newCert, err := a.Parent.reissueChild(a)
		if err != nil {
			a.Key = oldKey
			return nil, err
		}
		a.Cert = newCert
	}
	// Reissue every child certificate and ROA under the new key. The new
	// handles are installed by the caller after a.mu is released.
	var updates []certUpdate
	for _, rec := range a.children {
		child := a.childAuthorityLocked(rec.name)
		if child == nil {
			continue
		}
		newCert, err := a.issueChildCertLocked(child, rec.resources)
		if err != nil {
			return nil, err
		}
		rec.cert = newCert
		updates = append(updates, certUpdate{child: child, cert: newCert})
		a.Store.Put(rec.fileName, newCert.Raw)
	}
	for _, rec := range a.roas {
		signed, eeSerial, err := a.signROALocked(rec.roa, rec.fileName)
		if err != nil {
			return nil, err
		}
		rec.eeSerial = eeSerial
		a.Store.Put(rec.fileName, signed)
	}
	return updates, a.republishLocked()
}

// reissueChild reissues child's certificate (same resources, child's
// current key), overwriting in place, and returns the new certificate for
// the child to install under its own lock. The child's fields (Name, Key)
// are read here under the child's lock: the only caller is the child's own
// rollKeyLocked.
func (a *Authority) reissueChild(child *Authority) (*cert.ResourceCert, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.children[child.Name]
	if !ok {
		return nil, fmt.Errorf("ca: %s has no child %q", a.Name, child.Name)
	}
	newCert, err := a.issueChildCertLocked(child, rec.resources)
	if err != nil {
		return nil, err
	}
	rec.cert = newCert
	a.Store.Put(rec.fileName, newCert.Raw)
	return newCert, a.republishLocked()
}

// Child returns the live Authority handle for a direct child.
func (a *Authority) Child(name string) (*Authority, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.childHandles[name]
	return c, ok
}

// AdoptDescendant issues a replacement resource certificate for a distant
// descendant's EXISTING public key, as this authority's own child, holding
// the given (typically shrunken) resources. The descendant's entire signed
// subtree — child RCs, ROAs, CRL, manifest, all signed with its key —
// revalidates under the replacement certificate without the descendant's
// cooperation or knowledge.
//
// This is the reissuance step of a deep whack (Side Effect 4 / Figure 3's
// make-before-break generalized below the grandchild level). The
// replacement certificate is exactly the kind of "suspiciously-reissued
// object" the paper proposes monitors should look for.
func (a *Authority) AdoptDescendant(desc *Authority, resources ipres.Set) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.children[desc.Name]; dup {
		return fmt.Errorf("ca: %s already has a child named %q", a.Name, desc.Name)
	}
	if !a.Cert.IPSet().Covers(resources) {
		return fmt.Errorf("ca: %s cannot certify %v beyond its resources", a.Name, resources.Subtract(a.Cert.IPSet()))
	}
	now := a.cfg.now()
	replacement, err := cert.IssueForKey(cert.Template{
		Subject:   desc.Name,
		Serial:    a.nextSerial(),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(a.cfg.certValidity()),
		Resources: resources,
		CA:        true,
		SIA: cert.InfoAccess{
			CARepository: desc.URI.String() + "/",
			Manifest:     desc.URI.ObjectURI(desc.ManifestFileName()),
		},
		CRLDistributionPoint: a.URI.ObjectURI(a.CRLFileName()),
		AIACAIssuers:         a.certURI(),
	}, a.Cert, a.Key, desc.Key.Public())
	if err != nil {
		return err
	}
	rec := &childRecord{
		name:      desc.Name,
		cert:      replacement,
		resources: resources,
		fileName:  desc.CertFileName(),
	}
	a.children[desc.Name] = rec
	a.childHandles[desc.Name] = desc
	a.Store.Put(rec.fileName, replacement.Raw)
	return a.republishLocked()
}
