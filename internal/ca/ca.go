// Package ca implements RPKI certificate authorities: resource-holding
// entities that suballocate address space to children via resource
// certificates, authorize route origination via ROAs, and publish everything
// (including CRLs and manifests) into repository publication points they
// control.
//
// The package deliberately exposes the full set of operations a *misbehaving*
// authority has at its disposal, because they are ordinary protocol
// operations, not protocol violations:
//
//   - Revoke a child's certificate via the CRL (transparent whacking,
//     Side Effect 1).
//   - Delete any object it published, without touching the CRL (stealthy
//     revocation, Side Effect 2).
//   - Overwrite a child's certificate in place with one holding fewer
//     resources (the mechanism behind targeted whacking, Side Effect 3).
//   - Reissue descendant objects under its own key ("make-before-break",
//     Figure 3).
package ca

import (
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/repo"
	"repro/internal/roa"
)

// Config tunes an authority's issuance behavior.
type Config struct {
	// CertValidity is the lifetime of issued certificates (default 1 year).
	CertValidity time.Duration
	// ManifestValidity is the manifest/CRL freshness window (default 24h).
	ManifestValidity time.Duration
	// Clock supplies the current time (default time.Now). Tests and the
	// expiry experiments use a fake clock.
	Clock func() time.Time
}

func (c Config) certValidity() time.Duration {
	if c.CertValidity == 0 {
		return 365 * 24 * time.Hour
	}
	return c.CertValidity
}

func (c Config) manifestValidity() time.Duration {
	if c.ManifestValidity == 0 {
		return 24 * time.Hour
	}
	return c.ManifestValidity
}

func (c Config) now() time.Time {
	if c.Clock == nil {
		return time.Now()
	}
	return c.Clock()
}

// childRecord tracks one child authority from the issuer's perspective.
type childRecord struct {
	name      string
	cert      *cert.ResourceCert
	resources ipres.Set
	fileName  string
}

// roaRecord tracks one ROA issued by this authority.
type roaRecord struct {
	name     string
	roa      *roa.ROA
	eeSerial *big.Int // the EE certificate's serial: all RevokeROA needs of it
	fileName string
}

// Authority is an RPKI certificate authority together with its publication
// point.
type Authority struct {
	// Name identifies the authority in hierarchies and logs.
	Name string
	// Key is the authority's current key pair.
	Key *cert.KeyPair
	// Cert is the authority's current resource certificate (self-signed for
	// a trust anchor).
	Cert *cert.ResourceCert
	// Parent is the issuing authority, nil for a trust anchor.
	Parent *Authority
	// Store is the publication point this authority controls.
	Store *repo.Store
	// URI is where Store is reachable.
	URI repo.URI

	cfg Config

	mu        sync.Mutex
	serial    int64
	crlNumber int64
	mftNumber int64
	children  map[string]*childRecord
	roas      map[string]*roaRecord
	revoked   []pkix.RevokedCertificate
	// childHandles links child records to their live Authority handles so
	// the parent can reissue against the child's existing key (ShrinkChild,
	// key rollover).
	childHandles map[string]*Authority
	// bulk suppresses per-operation manifest/CRL regeneration; see
	// BeginBulk.
	bulk bool
}

// NewTrustAnchor creates a self-signed trust anchor holding resources,
// publishing into store at uri.
func NewTrustAnchor(name string, resources ipres.Set, store *repo.Store, uri repo.URI, cfg Config) (*Authority, error) {
	key, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return nil, err
	}
	a := &Authority{
		Name:         name,
		Key:          key,
		Store:        store,
		URI:          uri,
		cfg:          cfg,
		serial:       1,
		children:     make(map[string]*childRecord),
		roas:         make(map[string]*roaRecord),
		childHandles: make(map[string]*Authority),
	}
	now := cfg.now()
	taCert, err := cert.Issue(cert.Template{
		Subject:   name,
		Serial:    a.nextSerial(),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(cfg.certValidity()),
		Resources: resources,
		CA:        true,
		SIA: cert.InfoAccess{
			CARepository: uri.String() + "/",
			Manifest:     uri.ObjectURI(name + ".mft"),
		},
	}, nil, key, key)
	if err != nil {
		return nil, err
	}
	a.Cert = taCert
	store.Put(name+".cer", taCert.Raw)
	if err := a.republishLocked(); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Authority) nextSerial() int64 {
	s := a.serial
	a.serial++
	return s
}

// Resources returns the authority's certified resources.
func (a *Authority) Resources() ipres.Set { return a.Cert.IPSet() }

// CertFileName is the name under which this authority's certificate is
// published in its issuer's repository.
func (a *Authority) CertFileName() string { return a.Name + ".cer" }

// ManifestFileName is the authority's manifest object name.
func (a *Authority) ManifestFileName() string { return a.Name + ".mft" }

// CRLFileName is the authority's CRL object name.
func (a *Authority) CRLFileName() string { return a.Name + ".crl" }

// CreateChild suballocates resources to a new child authority that will
// publish into childStore at childURI. The child's certificate is published
// in *this* authority's repository (objects live with their issuer), and the
// child's SIA points at its own publication point.
//
// Authority locks are acquired strictly upward — child before parent, never
// the reverse — so the child's first republish (which takes child.mu) runs
// only after a.mu is released.
func (a *Authority) CreateChild(name string, resources ipres.Set, childStore *repo.Store, childURI repo.URI) (*Authority, error) {
	a.mu.Lock()
	child, err := a.createChildLocked(name, resources, childStore, childURI)
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := child.republish(); err != nil {
		return nil, err
	}
	return child, nil
}

func (a *Authority) createChildLocked(name string, resources ipres.Set, childStore *repo.Store, childURI repo.URI) (*Authority, error) {
	if _, dup := a.children[name]; dup {
		return nil, fmt.Errorf("ca: %s already has child %q", a.Name, name)
	}
	if !a.Cert.IPSet().Covers(resources) {
		return nil, fmt.Errorf("ca: %s cannot allocate %v beyond its resources", a.Name, resources.Subtract(a.Cert.IPSet()))
	}
	childKey, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return nil, err
	}
	child := &Authority{
		Name:         name,
		Key:          childKey,
		Parent:       a,
		Store:        childStore,
		URI:          childURI,
		cfg:          a.cfg,
		serial:       1,
		children:     make(map[string]*childRecord),
		roas:         make(map[string]*roaRecord),
		childHandles: make(map[string]*Authority),
	}
	childCert, err := a.issueChildCertLocked(child, resources)
	if err != nil {
		return nil, err
	}
	child.Cert = childCert
	rec := &childRecord{
		name:      name,
		cert:      childCert,
		resources: resources,
		fileName:  child.CertFileName(),
	}
	a.children[name] = rec
	a.childHandles[name] = child
	a.Store.Put(rec.fileName, childCert.Raw)
	if err := a.republishLocked(); err != nil {
		return nil, err
	}
	return child, nil
}

// setCert installs a certificate the parent reissued for this authority.
// It takes a.mu, so the caller must hold no Authority lock — in particular
// not the parent's: cert installs are deferred until after the parent's
// critical section precisely to keep the child→parent lock order acyclic.
func (a *Authority) setCert(c *cert.ResourceCert) {
	a.mu.Lock()
	a.Cert = c
	a.mu.Unlock()
}

// issueChildCertLocked issues (or reissues) a child RC with the given
// resources, using the child's existing key.
func (a *Authority) issueChildCertLocked(child *Authority, resources ipres.Set) (*cert.ResourceCert, error) {
	now := a.cfg.now()
	return cert.Issue(cert.Template{
		Subject:   child.Name,
		Serial:    a.nextSerial(),
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(a.cfg.certValidity()),
		Resources: resources,
		CA:        true,
		SIA: cert.InfoAccess{
			CARepository: child.URI.String() + "/",
			Manifest:     child.URI.ObjectURI(child.ManifestFileName()),
		},
		CRLDistributionPoint: a.URI.ObjectURI(a.CRLFileName()),
		AIACAIssuers:         a.certURI(),
	}, a.Cert, a.Key, child.Key)
}

func (a *Authority) certURI() string {
	if a.Parent == nil {
		return a.URI.ObjectURI(a.CertFileName())
	}
	return a.Parent.URI.ObjectURI(a.CertFileName())
}

// IssueROA creates an EE certificate holding exactly the ROA's resources,
// signs the ROA with it, and publishes it under name+".roa".
func (a *Authority) IssueROA(name string, asid ipres.ASN, prefixes ...roa.Prefix) (*roa.ROA, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.roas[name]; dup {
		return nil, fmt.Errorf("ca: %s already issued ROA %q", a.Name, name)
	}
	r, err := roa.New(asid, prefixes...)
	if err != nil {
		return nil, err
	}
	if !a.Cert.IPSet().Covers(r.ResourceSet()) {
		return nil, fmt.Errorf("ca: %s cannot authorize %v beyond its resources", a.Name, r.ResourceSet().Subtract(a.Cert.IPSet()))
	}
	fileName := name + ".roa"
	signedROA, eeSerial, err := a.signROALocked(r, fileName)
	if err != nil {
		return nil, err
	}
	a.roas[name] = &roaRecord{name: name, roa: r, eeSerial: eeSerial, fileName: fileName}
	a.Store.Put(fileName, signedROA)
	if err := a.republishLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

func (a *Authority) signROALocked(r *roa.ROA, fileName string) ([]byte, *big.Int, error) {
	eeKey, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return nil, nil, err
	}
	now := a.cfg.now()
	eeCert, err := cert.Issue(cert.Template{
		Subject:              fmt.Sprintf("%s-ee-%d", a.Name, a.serial),
		Serial:               a.nextSerial(),
		NotBefore:            now.Add(-time.Minute),
		NotAfter:             now.Add(a.cfg.certValidity()),
		Resources:            r.ResourceSet(),
		SIA:                  cert.InfoAccess{SignedObject: a.URI.ObjectURI(fileName)},
		CRLDistributionPoint: a.URI.ObjectURI(a.CRLFileName()),
		AIACAIssuers:         a.certURI(),
	}, a.Cert, a.Key, eeKey)
	if err != nil {
		return nil, nil, err
	}
	signed, err := r.Sign(eeCert, eeKey)
	if err != nil {
		return nil, nil, err
	}
	return signed, eeCert.SerialNumber(), nil
}

// republish regenerates this authority's CRL and manifest.
func (a *Authority) republish() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.republishLocked()
}

func (a *Authority) republishLocked() error {
	if a.bulk {
		return nil
	}
	now := a.cfg.now()

	// CRL first, so the manifest covers it.
	a.crlNumber++
	crl, err := cert.IssueCRL(a.Cert, a.Key, a.crlNumber, a.revoked, now, now.Add(a.cfg.manifestValidity()))
	if err != nil {
		return fmt.Errorf("ca: %s issuing CRL: %w", a.Name, err)
	}
	a.Store.Put(a.CRLFileName(), crl.Raw)

	// Manifest over everything published except the manifest itself.
	files := a.Store.Snapshot()
	delete(files, a.ManifestFileName())
	a.mftNumber++
	m := manifest.New(a.mftNumber, now, now.Add(a.cfg.manifestValidity()), files)
	eeKey, err := cert.GenerateKeyPair(nil)
	if err != nil {
		return err
	}
	// The manifest EE outlives the manifest window so relying parties can
	// distinguish "stale" (nextUpdate passed) from "invalid" (EE expired).
	eeCert, err := cert.Issue(cert.Template{
		Subject:              fmt.Sprintf("%s-mft-ee-%d", a.Name, a.mftNumber),
		Serial:               a.nextSerial(),
		NotBefore:            now.Add(-time.Minute),
		NotAfter:             now.Add(a.cfg.certValidity()),
		InheritIP:            true,
		SIA:                  cert.InfoAccess{SignedObject: a.URI.ObjectURI(a.ManifestFileName())},
		CRLDistributionPoint: a.URI.ObjectURI(a.CRLFileName()),
		AIACAIssuers:         a.certURI(),
	}, a.Cert, a.Key, eeKey)
	if err != nil {
		return fmt.Errorf("ca: %s issuing manifest EE: %w", a.Name, err)
	}
	signed, err := m.Sign(eeCert, eeKey)
	if err != nil {
		return fmt.Errorf("ca: %s signing manifest: %w", a.Name, err)
	}
	a.Store.Put(a.ManifestFileName(), signed)
	return nil
}

// BeginBulk suspends manifest and CRL regeneration so a burst of issuance
// (e.g. building a deployment-scale hierarchy) does not re-sign the
// publication metadata after every object. Call EndBulk to regenerate once.
func (a *Authority) BeginBulk() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bulk = true
}

// EndBulk resumes normal publication and regenerates the manifest and CRL.
func (a *Authority) EndBulk() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bulk = false
	return a.republishLocked()
}

// Children returns the names of current children, sorted.
func (a *Authority) Children() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.children))
	for name := range a.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ChildResources returns the resources currently certified to child name.
func (a *Authority) ChildResources(name string) (ipres.Set, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.children[name]
	if !ok {
		return ipres.Set{}, false
	}
	return rec.resources, true
}

// ROAs returns the names of this authority's ROAs, sorted.
func (a *Authority) ROAs() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.roas))
	for name := range a.roas {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ROA returns a previously issued ROA by name.
func (a *Authority) ROA(name string) (*roa.ROA, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.roas[name]
	if !ok {
		return nil, false
	}
	return rec.roa, true
}
