// Package rov implements BGP route origin validation per RFC 6811 and
// RFC 6483: classifying each (prefix, origin AS) route as Valid, Invalid, or
// Unknown against a set of validated ROA payloads (VRPs).
//
// The classification rules encode the design decision the paper's Section 4
// dissects: a route is Unknown only when NO valid ROA covers its prefix.
// The moment any covering ROA exists, every route without a matching ROA of
// its own is Invalid. Issuing a ROA therefore protects one route while
// invalidating its neighbors (Side Effect 5), and losing a ROA flips its
// route to Invalid — not Unknown — whenever a covering ROA remains
// (Side Effect 6).
package rov

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/ipres"
	"repro/internal/roa"
)

// State is a route's validation state.
type State uint8

const (
	// Unknown: no valid covering ROA exists.
	Unknown State = iota
	// Valid: a valid matching ROA exists.
	Valid
	// Invalid: covered but not matched.
	Invalid
)

func (s State) String() string {
	switch s {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Route is a BGP route as far as origin validation is concerned: a prefix
// and the AS that originates it.
type Route struct {
	Prefix ipres.Prefix
	Origin ipres.ASN
}

func (r Route) String() string { return fmt.Sprintf("(%s, %s)", r.Prefix, r.Origin) }

// VRP is a validated ROA payload: one (prefix, maxLength, ASN) triple
// extracted from a valid ROA. ASN sits before MaxLength so that it fills
// the 4 bytes after the 20-byte Prefix: a VRP is 32 bytes, not 40.
type VRP struct {
	Prefix    ipres.Prefix
	ASN       ipres.ASN
	MaxLength int
}

func (v VRP) String() string {
	if v.MaxLength == v.Prefix.Bits() {
		return fmt.Sprintf("(%s, %s)", v.Prefix, v.ASN)
	}
	return fmt.Sprintf("(%s-%d, %s)", v.Prefix, v.MaxLength, v.ASN)
}

// Covers reports whether the VRP's prefix covers route prefix π (the
// "covering ROA" test, which ignores ASN and maxLength).
func (v VRP) Covers(p ipres.Prefix) bool { return v.Prefix.Covers(p) }

// Compare orders VRPs canonically: by prefix, then ASN, then maxLength.
// This is the one ordering used everywhere a VRP set crosses a boundary —
// relying-party output, RTR deltas, diffing — so independently computed
// sets compare byte-for-byte.
func (v VRP) Compare(o VRP) int {
	if c := v.Prefix.Cmp(o.Prefix); c != 0 {
		return c
	}
	if v.ASN != o.ASN {
		if v.ASN < o.ASN {
			return -1
		}
		return 1
	}
	if v.MaxLength != o.MaxLength {
		if v.MaxLength < o.MaxLength {
			return -1
		}
		return 1
	}
	return 0
}

// SortVRPs sorts vrps in place into canonical order (see VRP.Compare).
func SortVRPs(vrps []VRP) { slices.SortFunc(vrps, VRP.Compare) }

// IsCanonical reports whether vrps is in the form a VRP set crosses every
// boundary in: strictly ascending under VRP.Compare (sorted, duplicate-free)
// with every prefix valid.
func IsCanonical(vrps []VRP) bool {
	for i, v := range vrps {
		if !v.Prefix.IsValid() || i > 0 && vrps[i-1].Compare(v) >= 0 {
			return false
		}
	}
	return true
}

// DiffVRPs computes the set difference between two canonically sorted,
// duplicate-free VRP sets in one merge pass: announced holds the VRPs in
// next but not prev, withdrawn those in prev but not next, both in
// canonical order. An unchanged set yields two nil slices without
// allocating, which is what makes a steady-state polling loop's
// RP→RTR hand-off a true no-op.
func DiffVRPs(prev, next []VRP) (announced, withdrawn []VRP) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch c := prev[i].Compare(next[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			withdrawn = append(withdrawn, prev[i])
			i++
		default:
			announced = append(announced, next[j])
			j++
		}
	}
	withdrawn = append(withdrawn, prev[i:]...)
	announced = append(announced, next[j:]...)
	return announced, withdrawn
}

// Matches reports whether the VRP authorizes the route (the "matching ROA"
// test: origin matches, prefix covered, length within maxLength).
func (v VRP) Matches(r Route) bool {
	return v.ASN == r.Origin && v.Prefix.Covers(r.Prefix) && r.Prefix.Bits() <= v.MaxLength
}

// FromROA extracts the VRPs of a ROA.
func FromROA(r *roa.ROA) []VRP {
	out := make([]VRP, len(r.Prefixes))
	for i, p := range r.Prefixes {
		out[i] = VRP{Prefix: p.Prefix, MaxLength: p.MaxLength, ASN: r.ASID}
	}
	return out
}

// Index classifies routes against a VRP set. It is immutable once built and
// safe for concurrent use.
//
// The index is the canonical slice itself. Canonical order sorts prefixes by
// (family, address, length), which is a pre-order walk of the containment
// forest: a prefix is followed by everything it covers. So for a route
// prefix p, let g be the last distinct VRP prefix ordered at or before p;
// any VRP prefix c covering p satisfies c ≤ g ≤ p in that order, g therefore
// lies inside c, and c is g or one of g's enclosing prefixes. A lookup is one
// binary search for g, narrowed by the directory to the distinct prefixes
// that share p's leading bits, and a walk up g's enclosing chain.
type Index struct {
	vrps []VRP
	// first[g] is the position in vrps of the g-th distinct prefix, with
	// len(vrps) as a final sentinel; up[g] is the nearest distinct prefix
	// enclosing the g-th, or -1.
	first, up []int32
	// dir[k] is the first distinct prefix whose bucket, Prefix.Lead() >>
	// shift, is k or higher (len(up) when there is none); one entry per
	// bucket plus a sentinel. Lead never decreases along canonical order, so
	// bucket k is the run dir[k]..dir[k+1] of distinct prefixes, everything
	// before it orders below every prefix of the bucket and everything after
	// it above.
	dir   []int32
	shift uint
}

// NewIndex builds a classification index over the given VRPs. Duplicates,
// invalid prefixes and any input order are tolerated; canonical input (see
// IsCanonical) is only copied. The index never aliases its argument.
//
//taint:sink the VRP index route-origin decisions are checked against
func NewIndex(vrps ...VRP) *Index {
	// The directory has between one and two buckets per VRP, and there are no
	// more distinct prefixes than VRPs: a lookup searches a bucket of a few,
	// and an index of a handful costs a handful of words.
	dirBits := bits.Len(uint(len(vrps)))
	ix := &Index{
		vrps:  slices.Clone(vrps),
		first: make([]int32, 0, len(vrps)+1),
		up:    make([]int32, 0, len(vrps)),
		dir:   make([]int32, 1<<dirBits+1),
		shift: uint(64 - dirBits),
	}
	if !ix.build() {
		ix.vrps = slices.DeleteFunc(ix.vrps, func(v VRP) bool { return !v.Prefix.IsValid() })
		SortVRPs(ix.vrps)
		ix.vrps = slices.Compact(ix.vrps)
		ix.build()
	}
	return ix
}

// build fills first, up and dir from vrps in one pass with a stack of the
// open (enclosing) distinct prefixes. The same pass is the IsCanonical
// check: it stops and reports false at the first entry that is invalid or
// not above its predecessor.
func (ix *Index) build() bool {
	own := ix.vrps
	ix.first, ix.up = ix.first[:0], ix.up[:0]
	var chain []int32 // the enclosing chain of the previous distinct prefix, outermost first
	filled := 0       // dir[:filled] is final
	for i, v := range own {
		if i > 0 {
			if own[i-1].Compare(v) >= 0 {
				return false
			}
			if v.Prefix == own[i-1].Prefix {
				continue
			}
		} else if !v.Prefix.IsValid() {
			return false // a later one would order below its predecessor
		}
		for len(chain) > 0 && !own[ix.first[chain[len(chain)-1]]].Covers(v.Prefix) {
			chain = chain[:len(chain)-1]
		}
		parent := int32(-1)
		if len(chain) > 0 {
			parent = chain[len(chain)-1]
		}
		g := int32(len(ix.up))
		for bucket := int(v.Prefix.Lead() >> ix.shift); filled <= bucket; filled++ {
			ix.dir[filled] = g
		}
		chain = append(chain, g)
		ix.first = append(ix.first, int32(i))
		ix.up = append(ix.up, parent)
	}
	for ; filled < len(ix.dir); filled++ {
		ix.dir[filled] = int32(len(ix.up))
	}
	ix.first = append(ix.first, int32(len(own)))
	return true
}

// VRPs returns the indexed VRPs in canonical order. The slice must not be
// modified.
func (ix *Index) VRPs() []VRP { return ix.vrps }

// Len returns the number of distinct VRPs.
func (ix *Index) Len() int { return len(ix.vrps) }

// Classify returns the validation state of a route, plus the covering VRPs
// that determined it (nil for Unknown): most specific prefix first, in
// canonical order within a prefix.
func (ix *Index) Classify(r Route) (State, []VRP) {
	var covering []VRP
	return ix.classify(r, &covering), covering
}

// State is shorthand for Classify without the evidence. It does not
// allocate.
func (ix *Index) State(r Route) State { return ix.classify(r, nil) }

// classify walks the enclosing chain of the last distinct prefix ordered at
// or before the route's, searched for in the route's directory bucket only.
// Without evidence to collect it stops at the first match.
func (ix *Index) classify(r Route, evidence *[]VRP) State {
	bucket := r.Prefix.Lead() >> ix.shift
	lo, hi := ix.dir[bucket], ix.dir[bucket+1]
	at, found := slices.BinarySearchFunc(ix.first[lo:hi], r.Prefix, func(i int32, p ipres.Prefix) int {
		return ix.vrps[i].Prefix.Cmp(p)
	})
	g := lo + int32(at)
	if !found {
		g-- // nothing at or before the route in its bucket: the last prefix before the bucket
	}
	state := Unknown
	for ; g >= 0; g = ix.up[g] {
		group := ix.vrps[ix.first[g]:ix.first[g+1]]
		// Once one prefix on the chain covers the route, all above it do.
		if state == Unknown {
			if !group[0].Covers(r.Prefix) {
				continue
			}
			state = Invalid
		}
		for i := range group {
			if group[i].ASN == r.Origin && r.Prefix.Bits() <= group[i].MaxLength {
				if evidence == nil {
					return Valid
				}
				state = Valid
			}
		}
		if evidence != nil {
			*evidence = append(*evidence, group...)
		}
	}
	return state
}

// GridCell is one aggregated row of a validity grid: a run of consecutive
// same-length subprefixes sharing a validation state for a given origin.
type GridCell struct {
	// First and Last bound the run (inclusive); both have length Bits.
	First, Last ipres.Prefix
	Bits        int
	Origin      ipres.ASN
	State       State
}

// Count returns the number of subprefixes in the run. Runs are contiguous,
// so the count is (last.addr - first.addr)/blocksize + 1.
func (c GridCell) Count() int {
	diff := addrDelta(c.First.Addr(), c.Last.Addr())
	return int(diff/uint64(c.First.Range().Size())) + 1
}

func addrDelta(a, b ipres.Addr) uint64 {
	// Only used for IPv4 grids (the paper's figures are IPv4).
	ab, bb := a.Bytes(), b.Bytes()
	var av, bv uint64
	for _, x := range ab {
		av = av<<8 | uint64(x)
	}
	for _, x := range bb {
		bv = bv<<8 | uint64(x)
	}
	return bv - av
}

func (c GridCell) String() string {
	if c.First == c.Last {
		return fmt.Sprintf("%-22s %s → %s", c.First, c.Origin, c.State)
	}
	return fmt.Sprintf("%s … %s (/%d ×%d) %s → %s", c.First, c.Last, c.Bits, c.Count(), c.Origin, c.State)
}

// ValidityGrid computes, for each origin in origins and each prefix length
// from base.Bits() to maxLen, the validation state of every subprefix of
// base, aggregated into runs of equal state. This reproduces the paper's
// Figure 5 panels.
func (ix *Index) ValidityGrid(base ipres.Prefix, maxLen int, origins []ipres.ASN) []GridCell {
	var cells []GridCell
	for _, origin := range origins {
		for bits := base.Bits(); bits <= maxLen; bits++ {
			var run *GridCell
			for p := firstSub(base, bits); p.IsValid(); p = nextSub(base, p) {
				s := ix.State(Route{Prefix: p, Origin: origin})
				if run != nil && run.State == s {
					run.Last = p
					continue
				}
				if run != nil {
					cells = append(cells, *run)
				}
				run = &GridCell{First: p, Last: p, Bits: bits, Origin: origin, State: s}
			}
			if run != nil {
				cells = append(cells, *run)
			}
		}
	}
	return cells
}

// firstSub returns the first subprefix of base with the given length.
func firstSub(base ipres.Prefix, bits int) ipres.Prefix {
	if bits < base.Bits() || bits > base.Family().Width() {
		return ipres.Prefix{}
	}
	return ipres.MustPrefixFrom(base.Addr(), bits)
}

// nextSub returns the next same-length subprefix of base after p, or the
// zero Prefix when p is the last one.
func nextSub(base ipres.Prefix, p ipres.Prefix) ipres.Prefix {
	last := p.Range().Hi()
	if last.Cmp(base.Range().Hi()) >= 0 {
		return ipres.Prefix{}
	}
	next, ok := last.Next()
	if !ok {
		return ipres.Prefix{}
	}
	return ipres.MustPrefixFrom(next, p.Bits())
}

// FormatGrid renders grid cells, one per line.
func FormatGrid(cells []GridCell) string {
	var sb strings.Builder
	for _, c := range cells {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
