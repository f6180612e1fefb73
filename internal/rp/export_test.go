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
