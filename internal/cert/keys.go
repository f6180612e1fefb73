// Package cert implements RPKI resource certificates per the RFC 6487
// profile: CA and end-entity issuance carrying RFC 3779 resource
// extensions, SIA/AIA repository pointers, CRLs, and resource-aware path
// validation. Issuance encodes and signs its own DER with encoding/asn1;
// parsing and signature checks use the standard library's crypto/x509.
//
// Every certificate in the RPKI binds a public key to a set of Internet
// number resources. A certificate is valid only if its resources are covered
// by its issuer's resources — the property that lets a parent authority
// unilaterally shrink or revoke what a child can attest to.
package cert

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha1"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
)

// KeyPair is an ECDSA P-256 key pair together with its RFC 6487 key
// identifier (the SHA-1 hash of the subjectPublicKeyInfo).
type KeyPair struct {
	Private *ecdsa.PrivateKey
	ski     [20]byte
}

// GenerateKeyPair creates a fresh ECDSA P-256 key pair. If rng is nil,
// crypto/rand.Reader is used.
func GenerateKeyPair(rng io.Reader) (*KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return nil, fmt.Errorf("cert: generating key: %w", err)
	}
	return newKeyPair(priv)
}

// MustGenerateKeyPair is GenerateKeyPair(nil) that panics on error.
func MustGenerateKeyPair() *KeyPair {
	kp, err := GenerateKeyPair(nil)
	if err != nil {
		panic(err)
	}
	return kp
}

func newKeyPair(priv *ecdsa.PrivateKey) (*KeyPair, error) {
	spki, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("cert: marshaling public key: %w", err)
	}
	kp := &KeyPair{Private: priv}
	kp.ski = sha1.Sum(spki)
	return kp, nil
}

// Public returns the public key.
func (k *KeyPair) Public() *ecdsa.PublicKey { return &k.Private.PublicKey }

// SignDigest signs a precomputed digest with the private key, producing an
// ASN.1 DER signature.
func (k *KeyPair) SignDigest(digest []byte) ([]byte, error) {
	return ecdsa.SignASN1(rand.Reader, k.Private, digest)
}

// SKI returns the subject key identifier bytes.
func (k *KeyPair) SKI() []byte { return k.ski[:] }

// SKIString returns the subject key identifier as lowercase hex, the
// conventional RPKI subject name.
func (k *KeyPair) SKIString() string { return hex.EncodeToString(k.ski[:]) }

// skiForSPKI is the subject key identifier of a DER subjectPublicKeyInfo.
// RFC 6487 §4.8.2 hashes only the key's BIT STRING; every identifier this
// repository issues and accepts hashes the whole SPKI instead.
func skiForSPKI(spki []byte) []byte {
	sum := sha1.Sum(spki)
	return sum[:]
}
