// Deterministic key derivation and signing for seeded world generation.
//
// Scaled synthetic worlds (internal/modelgen) must be byte-identical for a
// given seed so that generation can be verified, cached on disk, and
// compared across machines. Two sources of nondeterminism in the stock
// crypto stack prevent that: ecdsa.GenerateKey consumes a randomized amount
// of the random stream (randutil.MaybeReadByte), and ECDSA signing draws a
// random nonce per signature.
//
// Both are eliminated here without leaving the standard library:
//
//   - DeterministicKeyPair derives the P-256 scalar directly from a seed via
//     counter-mode SHA-256, validating candidates with crypto/ecdh (which
//     rejects zero and out-of-range scalars), so the same seed always yields
//     the same key.
//
//   - Keys so derived sign with an all-zeros "random" stream. Go's ECDSA is
//     hedged: the nonce is an HMAC-DRBG output keyed by the private key, the
//     digest, AND the random bytes — with constant random bytes this
//     collapses to RFC 6979-style derandomized signing (nonce a pure
//     function of key and digest), which stays secure and makes every
//     signature, certificate and CRL byte-reproducible. The constant stream
//     is immune to MaybeReadByte's random offset precisely because every
//     byte is equal.
//
// Keys from GenerateKeyPair are untouched: they keep randomized signing.
package cert

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// zeroReader is the constant random stream deterministic keys sign with.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// DeterministicKeyPair derives an ECDSA P-256 key pair from seed. The same
// seed always produces the same key, and signatures made with the key are
// themselves deterministic (derandomized, RFC 6979-style). Use only for
// synthetic worlds and tests; production keys come from GenerateKeyPair.
func DeterministicKeyPair(seed []byte) (*KeyPair, error) {
	var ctr [8]byte
	h := sha256.New()
	for i := uint64(0); ; i++ {
		binary.BigEndian.PutUint64(ctr[:], i)
		h.Reset()
		h.Write(seed)
		h.Write(ctr[:])
		candidate := h.Sum(nil)
		// ecdh validates the scalar: it rejects 0 and values >= the group
		// order, so rejection sampling here is exact, and it hands back the
		// public point without touching the deprecated curve API.
		ek, err := ecdh.P256().NewPrivateKey(candidate)
		if err != nil {
			continue
		}
		pub := ek.PublicKey().Bytes() // uncompressed: 0x04 || X || Y
		priv := &ecdsa.PrivateKey{
			PublicKey: ecdsa.PublicKey{
				Curve: elliptic.P256(),
				X:     new(big.Int).SetBytes(pub[1:33]),
				Y:     new(big.Int).SetBytes(pub[33:65]),
			},
			D: new(big.Int).SetBytes(candidate),
		}
		kp, err := newKeyPair(priv)
		if err != nil {
			return nil, err
		}
		kp.det = true
		return kp, nil
	}
}
