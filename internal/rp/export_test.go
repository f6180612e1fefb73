package rp

// VerdictCount returns the signature verdicts v retains across all
// publication points, for the external tests' retention gates.
func VerdictCount(v *RelyingParty) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, p := range v.points {
		n += p.verdicts.Len()
	}
	return n
}

// Verifications returns the ECDSA verifications r's verdict misses ran.
func Verifications(r *Result) int { return r.verifications }

// PointVerdicts returns the signature verdicts v retains for module, on
// whichever host it was fetched from.
func PointVerdicts(v *RelyingParty, module string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	for uri, p := range v.points {
		if uri.Module == module {
			return p.verdicts.Len()
		}
	}
	return 0
}

// PointCount returns the publication points v retains state for.
func PointCount(v *RelyingParty) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.points)
}
