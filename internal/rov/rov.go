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
	"sort"
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
// prefix p, let g be the last VRP whose prefix orders at or before p; any
// VRP prefix c covering p satisfies c ≤ g ≤ p in that order, g's prefix
// therefore lies inside c, and c is g's prefix or one enclosing it. A lookup
// is one binary search for g, narrowed by the directory to the VRPs that
// share p's leading bits, and a walk up g's enclosing chain.
type Index struct {
	vrps []VRP
	// up[i] is the last VRP of the nearest distinct prefix enclosing
	// vrps[i]'s, or -1; a run of equal prefixes shares one.
	up []int32
	// dir[k] is the first VRP whose bucket is k or higher (len(vrps) if
	// none), plus a sentinel. Buckets never decrease along canonical order,
	// so bucket k is the run dir[k]..dir[k+1]: everything before it orders
	// below the bucket's prefixes and everything after it above.
	dir []int32
	// fams places IPv4's and IPv6's runs of buckets in dir.
	fams [2]famDir
}

// famDir is one address family's run of the directory: a prefix's bucket is
// the bits of its Lead after the shl leading bits that the Leads of the
// family's first and last VRP share. A route outside the block those bits
// name lands in any bucket, and classify is still right for it: nothing
// covers a route below the block, and a VRP covering one above covers the
// whole block, so it heads bucket 0 and encloses every VRP after it.
type famDir struct {
	off      int32
	shl, shr uint8
}

// splitMin is the smallest set NewIndex builds in two halves at once. On two
// CPUs a split build of 2,048 VRPs costs what one pass does; of 32,768, 30 %
// less.
const splitMin = 1 << 15

// NewIndex builds a classification index over the given VRPs. Duplicates,
// invalid prefixes and any input order are tolerated; canonical input (see
// IsCanonical) is only copied. The index never aliases its argument.
//
//taint:sink the VRP index route-origin decisions are checked against
func NewIndex(vrps ...VRP) *Index {
	seam := 0
	if len(vrps) >= splitMin {
		seam = len(vrps) / 2
	}
	return newIndex(vrps, seam)
}

// newIndex is NewIndex built in two halves cut at the first boundary between
// distinct prefixes at or after seam, or in one pass when there is none.
func newIndex(vrps []VRP, seam int) *Index {
	if ix := layout(vrps, make([]VRP, len(vrps))); ix.build(vrps, seam) {
		return ix
	}
	own := slices.DeleteFunc(slices.Clone(vrps), func(v VRP) bool { return !v.Prefix.IsValid() })
	SortVRPs(own)
	own = slices.Compact(own)
	ix := layout(own, own)
	ix.build(own, seam)
	return ix
}

// layout allocates the index that build fills from in into own. A family of
// n VRPs gets 2^(bits.Len(n)-2) buckets, two to four VRPs each on average, so
// the directory follows the set: 6 entries for eight VRPs. The family runs
// are read off in as if it were canonical; for any other input they are
// wrong, and build rejects it.
func layout(in, own []VRP) *Index {
	n4 := sort.Search(len(in), func(i int) bool { return in[i].Prefix.Family() == ipres.IPv6 })
	ix := &Index{vrps: own, up: make([]int32, len(in))}
	buckets := 0
	for f, run := range [2][]VRP{in[:n4], in[n4:]} {
		d := max(bits.Len(uint(len(run)))-2, 0)
		ix.fams[f] = famDir{off: int32(buckets), shr: uint8(64 - d)}
		if len(run) > 0 {
			ix.fams[f].shl = uint8(bits.LeadingZeros64(run[0].Prefix.Lead() ^ run[len(run)-1].Prefix.Lead()))
		}
		buckets += 1 << d
	}
	ix.dir = make([]int32, buckets+1)
	return ix
}

// bucket is p's entry in the directory; an invalid p lands in IPv6's run. A
// shift by 64 (one bucket, or one Lead for the whole family) yields 0.
func (ix *Index) bucket(p ipres.Prefix) int {
	f := &ix.fams[(p.Family()-1)&1] // IPv4 is 1, IPv6 2
	return int(f.off) + int(p.Lead()<<f.shl>>f.shr)
}

// build fills the index from in, and reports false where IsCanonical would.
// With a seam inside the set it builds the halves before and after it at
// once, the second on its own goroutine: the chain of prefixes open at the
// seam is all that crosses it, and each half reads and writes only its own
// part of in (which is vrps when the input had to be sorted), vrps, up and
// dir.
func (ix *Index) build(in []VRP, seam int) bool {
	m := seam
	for m > 0 && m < len(in) && in[m].Prefix == in[m-1].Prefix {
		m++
	}
	var open chain
	if m <= 0 || m >= len(in) {
		return ix.fill(in, 0, len(in), 0, len(ix.dir), &open)
	}
	if in[m-1].Compare(in[m]) >= 0 {
		return false
	}
	cut := ix.bucket(in[m-1].Prefix) + 1 // the first half's last bucket ends its part of dir
	done := make(chan bool)
	go func() {
		var inner chain
		done <- ix.fill(in, m, len(in), cut, len(ix.dir), &inner)
	}()
	ok := ix.fill(in, 0, m, 0, cut, &open)
	if !<-done || !ok {
		return false
	}
	// The second half saw no prefix before m: its top-level VRPs (up -1 so
	// far) take the innermost prefix of the chain open at the seam that
	// covers them. A chain entry that does not cover one covers none after
	// it, so the pass ends when the chain has closed.
	for i := m; i < len(in) && open.n > 0; i++ {
		if ix.up[i] >= 0 {
			continue
		}
		for open.n > 0 && !in[open.pos[open.n-1]].Prefix.Covers(in[i].Prefix) {
			open.n--
		}
		if open.n > 0 {
			ix.up[i] = open.pos[open.n-1]
		}
	}
	return true
}

// fill copies in[from:to] into vrps and sets up for it, with open the chain
// of prefixes open before from, and writes dir[filled:end]: each bucket's
// first VRP, and to for the buckets after the last.
func (ix *Index) fill(in []VRP, from, to, filled, end int, open *chain) bool {
	own, up, dir := ix.vrps, ix.up, ix.dir
	for i := from; i < to; i++ {
		v := in[i]
		c := 1 // the first entry of a half starts a new prefix
		if i > from {
			c = v.Prefix.Cmp(in[i-1].Prefix)
		}
		if !v.Prefix.IsValid() || c < 0 || c == 0 && in[i-1].Compare(v) >= 0 {
			return false
		}
		own[i] = v
		if c == 0 {
			up[i] = up[i-1]
			continue
		}
		// A new distinct prefix: the run of the previous one ends, the open
		// prefixes that do not cover it close, and it opens. (A local depth
		// keeps this loop out of memory: the build is ≈ 10 % faster.)
		n := open.n
		if n > 0 {
			open.pos[n-1] = int32(i - 1)
		}
		for n > 0 && !in[open.pos[n-1]].Prefix.Covers(v.Prefix) {
			n--
		}
		up[i] = -1
		if n > 0 {
			up[i] = open.pos[n-1]
		}
		open.pos[n] = int32(i)
		open.n = n + 1
		for k := ix.bucket(v.Prefix); filled <= k && filled < end; filled++ {
			dir[filled] = int32(i)
		}
	}
	if open.n > 0 {
		open.pos[open.n-1] = int32(to - 1)
	}
	for ; filled < end; filled++ {
		dir[filled] = int32(to)
	}
	return true
}

// chain is the stack of distinct prefixes open during a build (each one
// enclosing the next), held as the position of each one's last VRP so far.
// Nested distinct prefixes differ in length, so it is at most 129 deep.
type chain struct {
	n   int
	pos [129]int32
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

// classify walks the enclosing chain of the last VRP ordered at or before
// the route, searched for in the route's directory bucket only. Without
// evidence to collect it stops at the first match.
func (ix *Index) classify(r Route, evidence *[]VRP) State {
	if !r.Prefix.IsValid() {
		return Unknown // covered by nothing
	}
	k := ix.bucket(r.Prefix)
	lo, hi := ix.dir[k], ix.dir[k+1]
	// The search leaves g at lo-1: the last VRP at or before the route in its
	// bucket or, with none there, the VRP before the bucket.
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if ix.vrps[mid].Prefix.Cmp(r.Prefix) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	state := Unknown
	for i := lo - 1; i >= 0; i = ix.up[i] {
		p := ix.vrps[i].Prefix
		// Once one prefix on the chain covers the route, all above it do.
		if state == Unknown {
			if !p.Covers(r.Prefix) {
				continue
			}
			state = Invalid
		}
		j := i
		for ; j >= 0 && ix.vrps[j].Prefix == p; j-- {
			if ix.vrps[j].ASN == r.Origin && r.Prefix.Bits() <= ix.vrps[j].MaxLength {
				if evidence == nil {
					return Valid
				}
				state = Valid
			}
		}
		if evidence != nil {
			*evidence = append(*evidence, ix.vrps[j+1:i+1]...)
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
