package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/manifest"
	"repro/internal/modelgen"
	"repro/internal/rfc3779"
	"repro/internal/roa"
)

// objectCosts times each public parse/verify function of the object layers
// standalone, over every object of the world. What happens inside Sync
// cannot be seen from outside it, so this is how cold-sync time is
// attributed below rp: Σ count × per-object cost should come to about
// rp.validate_self_ms × workers on cold_bootstrap.
func objectCosts(w *modelgen.World) (map[string]value, error) {
	var roaParse, mftParse, mftHash, cerParse, validate, crl, ipBlocks []float64
	timed := func(into *[]float64, f func() error) error {
		t0 := time.Now()
		err := f()
		*into = append(*into, float64(time.Since(t0))/float64(time.Microsecond))
		return err
	}
	now := w.Clock()
	for _, a := range w.Authorities {
		issuer, effective := a.Cert, a.Resources()
		vctx := cert.ValidationContext{Now: now}
		files := a.Store.Snapshot()
		for name, raw := range files {
			var err error
			switch {
			case strings.HasSuffix(name, ".roa"):
				var signed *roa.Signed
				if err = timed(&roaParse, func() (e error) { signed, e = roa.ParseSigned(raw); return }); err == nil {
					err = timed(&validate, func() error { _, e := cert.ValidateChild(issuer, effective, signed.EE, vctx); return e })
				}
			case strings.HasSuffix(name, ".mft"):
				var signed *manifest.Signed
				if err = timed(&mftParse, func() (e error) { signed, e = manifest.ParseSigned(raw); return }); err == nil {
					err = timed(&mftHash, func() error {
						for _, listed := range signed.Manifest.Names() {
							if e := signed.Manifest.VerifyHash(listed, sha256.Sum256(files[listed])); e != nil {
								return e
							}
						}
						return nil
					})
				}
			case strings.HasSuffix(name, ".cer"):
				var child *cert.ResourceCert
				if err = timed(&cerParse, func() (e error) { child, e = cert.Parse(raw); return }); err != nil {
					break
				}
				for _, ext := range child.Cert.Extensions {
					if ext.Id.Equal(rfc3779.OIDIPAddrBlocks) {
						err = timed(&ipBlocks, func() error { _, e := rfc3779.UnmarshalIPAddrBlocks(ext.Value); return e })
					}
				}
				if err == nil && child.SKIKey() != issuer.SKIKey() {
					err = timed(&validate, func() error { _, e := cert.ValidateChild(issuer, effective, child, vctx); return e })
				}
			case strings.HasSuffix(name, ".crl"):
				err = timed(&crl, func() error {
					parsed, e := cert.ParseCRL(raw)
					if e == nil {
						e = parsed.VerifySignature(issuer)
					}
					return e
				})
			}
			if err != nil {
				return nil, fmt.Errorf("object %s/%s: %w", a.Name, name, err)
			}
		}
	}
	us := func(xs []float64) value { return timing(xs, "us", 50) }
	count := func(xs []float64) value { return value{Value: float64(len(xs)), Unit: "count"} }
	return map[string]value{
		"roa.parse_signed_us":      us(roaParse),
		"manifest.parse_signed_us": us(mftParse),
		"manifest.hash_us":         us(mftHash),
		"cert.parse_us":            us(cerParse),
		"cert.validate_child_us":   us(validate),
		"cert.crl_parse_verify_us": us(crl),
		"rfc3779.unmarshal_us":     us(ipBlocks),
		"objects.roa_count":        count(roaParse),
		"objects.mft_count":        count(mftParse),
		"objects.crl_count":        count(crl),
		"objects.cer_count":        count(cerParse),
		"objects.attributed_cold_ms": {
			Value: (sum(roaParse) + sum(mftParse) + sum(mftHash) + sum(cerParse) + sum(validate) + sum(crl)) / 1000,
			Unit:  "ms",
		},
	}, nil
}
