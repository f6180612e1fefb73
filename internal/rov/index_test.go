package rov

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ipres"
)

// oracleClassify is the reference the index is differenced against: a linear
// scan applying Covers and Matches to every distinct valid VRP. Evidence is
// ordered as Classify documents it: most specific prefix first (the covering
// prefixes of one route are nested, so lengths are distinct), canonical
// within a prefix.
func oracleClassify(vrps []VRP, r Route) (State, []VRP) {
	var evidence []VRP
	state := Unknown
	seen := make(map[VRP]bool)
	for _, v := range vrps {
		if !v.Prefix.IsValid() || seen[v] || !v.Covers(r.Prefix) {
			continue
		}
		seen[v] = true
		evidence = append(evidence, v)
		if v.Matches(r) {
			state = Valid
		} else if state == Unknown {
			state = Invalid
		}
	}
	slices.SortFunc(evidence, func(a, b VRP) int {
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return b.Prefix.Bits() - a.Prefix.Bits()
		}
		return a.Compare(b)
	})
	return state, evidence
}

// oracleSet is the distinct valid VRPs in canonical order.
func oracleSet(vrps []VRP) []VRP {
	seen := make(map[VRP]bool)
	var out []VRP
	for _, v := range vrps {
		if v.Prefix.IsValid() && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.SortFunc(out, VRP.Compare)
	return out
}

// checkAgainstOracle compares everything the index exposes for one route.
func checkAgainstOracle(t *testing.T, ix *Index, vrps []VRP, r Route) {
	t.Helper()
	want, wantEv := oracleClassify(vrps, r)
	got, gotEv := ix.Classify(r)
	if got != want || !slices.Equal(gotEv, wantEv) {
		t.Fatalf("Classify%v = %v %v, oracle %v %v (set %v)", r, got, gotEv, want, wantEv, vrps)
	}
	if want == Unknown && gotEv != nil {
		t.Fatalf("Classify%v: Unknown carries evidence %v", r, gotEv)
	}
	if s := ix.State(r); s != want {
		t.Fatalf("State%v = %v, oracle %v (set %v)", r, s, want, vrps)
	}
}

// anchorPrefix is the length-bits prefix of a seeded address: prefixes cut
// from one anchor nest, which is what the enclosing chain is about.
func anchorPrefix(fam ipres.Family, seed uint32, bits int) ipres.Prefix {
	if fam == ipres.IPv4 {
		return ipres.MustPrefixFrom(ipres.AddrFromUint32(seed), bits)
	}
	var b [16]byte
	for i := range b {
		b[i] = byte(seed >> (8 * (i % 4)))
	}
	return ipres.MustPrefixFrom(ipres.AddrFrom16(b), bits)
}

func TestIndexMatchesLinearScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		anchors := make([]uint32, 1+rng.Intn(4))
		for i := range anchors {
			anchors[i] = rng.Uint32()
		}
		// A prefix of an anchor (or of an anchor with one bit flipped: a
		// neighbour that shares a chain up to that bit), at any length from
		// /0 to the host route.
		pick := func() ipres.Prefix {
			fam := ipres.IPv4
			if rng.Intn(3) == 0 {
				fam = ipres.IPv6
			}
			seed := anchors[rng.Intn(len(anchors))]
			if rng.Intn(3) == 0 {
				seed ^= 1 << rng.Intn(32)
			}
			bits := rng.Intn(fam.Width() + 1)
			switch rng.Intn(8) {
			case 0:
				bits = 0
			case 1:
				bits = fam.Width()
			}
			return anchorPrefix(fam, seed, bits)
		}
		var vrps []VRP
		for n := rng.Intn(40); len(vrps) < n; {
			p := pick()
			v := VRP{Prefix: p, MaxLength: p.Bits() + rng.Intn(p.Family().Width()-p.Bits()+1), ASN: ipres.ASN(rng.Intn(4))}
			vrps = append(vrps, v)
			switch rng.Intn(6) {
			case 0: // exact duplicate
				vrps = append(vrps, v)
			case 1: // same prefix, other ASN and maxLength
				vrps = append(vrps, VRP{Prefix: p, MaxLength: p.Bits(), ASN: v.ASN + 1})
			case 2: // invalid zero prefix
				vrps = append(vrps, VRP{ASN: v.ASN})
			}
		}
		input := slices.Clone(vrps)
		if trial%2 == 0 {
			input = oracleSet(vrps) // canonical input: the copy-only path
			if !IsCanonical(input) {
				t.Fatalf("oracle set not canonical: %v", input)
			}
		} else {
			rng.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })
		}
		ix := NewIndex(input...)
		// The index owns its data: scribbling over the argument afterwards
		// changes nothing.
		for i := range input {
			input[i] = VRP{Prefix: ipres.MustParsePrefix("0.0.0.0/0"), MaxLength: 32, ASN: 99}
		}
		if want := oracleSet(vrps); !slices.Equal(ix.VRPs(), want) || ix.Len() != len(want) {
			t.Fatalf("VRPs() = %v (Len %d), oracle %v", ix.VRPs(), ix.Len(), want)
		}
		for j := 0; j < 60; j++ {
			r := Route{Prefix: pick(), Origin: ipres.ASN(rng.Intn(5))}
			if j == 0 {
				r.Prefix = ipres.Prefix{} // an invalid route prefix is covered by nothing
			}
			checkAgainstOracle(t, ix, vrps, r)
		}
	}
}

// leadAddr is an address whose Prefix.Lead() is lead: the first such address,
// or the last one when last is set.
func leadAddr(lead uint64, last bool) ipres.Addr {
	if lead>>63 == 0 {
		return ipres.AddrFromUint32(uint32(lead >> 31))
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], lead<<1)
	if last {
		b[7] |= 1
		for i := 8; i < 16; i++ {
			b[i] = 0xFF
		}
	}
	return ipres.AddrFrom16(b)
}

// bucketEdges returns the first and last address of every bucket in fam's
// run of the directory, found by binary search on the bucket of a host
// route over the block the family's VRPs share (where buckets rise with the
// address), and the addresses at the ends of that block. An address is
// named by the bits Lead keeps of it: all 32 of an IPv4 address, the first
// 63 of an IPv6 one.
func bucketEdges(ix *Index, fam ipres.Family) []ipres.Addr {
	i := slices.IndexFunc(ix.vrps, func(v VRP) bool { return v.Prefix.Family() == fam })
	if i < 0 {
		return nil
	}
	lead, uOf, uMax := func(u uint64) uint64 { return u << 31 }, func(l uint64) uint64 { return l >> 31 }, uint64(1)<<32-1
	if fam == ipres.IPv6 {
		lead, uOf, uMax = func(u uint64) uint64 { return 1<<63 | u }, func(l uint64) uint64 { return l &^ (1 << 63) }, 1<<63-1
	}
	shared := ^uint64(0) << (64 - ix.fams[fam-1].shl)
	blockLo, blockHi := uOf(ix.vrps[i].Prefix.Lead()&shared), uOf(ix.vrps[i].Prefix.Lead()|^shared)
	bucketAt := func(u uint64) int {
		return ix.bucket(ipres.MustPrefixFrom(leadAddr(lead(u), false), fam.Width()))
	}
	// start(k) is the first u of the block whose bucket is k or higher.
	start := func(k int) uint64 {
		lo, hi := blockLo, blockHi+1
		for lo < hi {
			if mid := lo + (hi-lo)/2; bucketAt(mid) >= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	var out []ipres.Addr
	if blockLo > 0 {
		out = append(out, leadAddr(lead(blockLo-1), true))
	}
	if blockHi < uMax {
		out = append(out, leadAddr(lead(blockHi+1), false))
	}
	for k := bucketAt(blockLo); k <= bucketAt(blockHi); k++ {
		if lo, hi := start(k), start(k+1); lo < hi {
			out = append(out, leadAddr(lead(lo), false), leadAddr(lead(hi-1), true))
		}
	}
	return out
}

// TestIndexDirectoryEdges aims at what the directory can get wrong and the
// random anchors of TestIndexMatchesLinearScanOracle seldom hit: covering
// prefixes shorter than the directory's bits whose routes lie many buckets
// away, routes below the first and above the last prefix of a family and
// outside the block its VRPs share — covered, when a VRP covers the whole
// block, though their bucket is wherever their next bits point — one-family
// sets, the first and last address of every bucket of each family, sets of
// no, one and two distinct prefixes, and the invalid route prefix, which is
// Unknown without touching the directory.
func TestIndexDirectoryEdges(t *testing.T) {
	mk := func(asn ipres.ASN, ps ...string) []VRP {
		var out []VRP
		for _, p := range ps {
			pp := ipres.MustParsePrefix(p)
			out = append(out, VRP{Prefix: pp, MaxLength: pp.Family().Width(), ASN: asn})
		}
		return out
	}
	// Specifics in two islands per family, nothing in between; and one island
	// each, with a VRP covering all of the block it lies in and more.
	var islands4, islands6, island4, island6 []VRP
	for i := 0; i < 40; i++ {
		islands4 = append(islands4, mk(ipres.ASN(i%3), fmt.Sprintf("10.%d.0.0/16", i), fmt.Sprintf("200.1.%d.0/24", i))...)
		islands6 = append(islands6, mk(ipres.ASN(i%3), fmt.Sprintf("2001:db8:%x::/48", i), fmt.Sprintf("2a00:%x::/32", i))...)
		island4 = append(island4, islands4[len(islands4)-1])
		island6 = append(island6, islands6[len(islands6)-2])
	}
	short4 := mk(1, "0.0.0.0/0", "128.0.0.0/1", "10.0.0.0/8", "200.0.0.0/7")
	short6 := mk(2, "::/0", "8000::/1", "2000::/3", "2a00::/8")
	sets := map[string][]VRP{
		"empty":                nil,
		"one prefix":           mk(1, "10.0.0.0/8"),
		"one prefix two VRPs":  append(mk(1, "10.0.0.0/8"), mk(2, "10.0.0.0/8")...),
		"two prefixes":         mk(1, "0.0.0.0/0", "200.1.0.0/16"),
		"two families":         mk(1, "10.0.0.0/8", "2001:db8::/32"),
		"v4 islands":           islands4,
		"v6 islands":           islands6,
		"v4 short over island": append(slices.Clone(short4), islands4...),
		"v6 short over island": append(slices.Clone(short6), islands6...),
		"everything":           slices.Concat(short4, short6, islands4, islands6),
		"host routes at the ends": mk(3, "0.0.0.0/32", "255.255.255.255/32",
			"::/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
		"v4 block cover": append(mk(1, "200.0.0.0/6", "200.0.0.0/7"), island4...),
		"v6 block cover": append(mk(2, "2000::/3", "2001::/16"), island6...),
	}
	for name, vrps := range sets {
		ix := NewIndex(vrps...)
		var routes []Route
		add := func(a ipres.Addr, lens ...int) {
			for _, bits := range lens {
				for origin := ipres.ASN(0); origin < 4; origin++ {
					routes = append(routes, Route{Prefix: ipres.MustPrefixFrom(a, bits), Origin: origin})
				}
			}
		}
		for _, a := range bucketEdges(ix, ipres.IPv4) {
			add(a, 0, 1, 8, 24, 32)
		}
		for _, a := range bucketEdges(ix, ipres.IPv6) {
			add(a, 0, 1, 3, 32, 48, 128)
		}
		// An address under each first octet, most of them outside the block.
		for top := 0; top < 256; top++ {
			add(ipres.AddrFromUint32(uint32(top)<<24|uint32(top)), 0, 6, 8, 24, 32)
			add(ipres.AddrFrom16([16]byte{byte(top), 15: byte(top)}), 0, 3, 8, 16, 48, 128)
		}
		// Every VRP prefix itself, its last address, and the addresses just
		// before and after it.
		for _, v := range vrps {
			w := v.Prefix.Family().Width()
			hi := v.Prefix.Range().Hi()
			add(v.Prefix.Addr(), v.Prefix.Bits(), w)
			add(hi, w)
			if next, ok := hi.Next(); ok {
				add(next, w)
			}
			if prev, ok := v.Prefix.Addr().Prev(); ok {
				add(prev, w)
			}
		}
		for _, r := range routes {
			checkAgainstOracle(t, ix, vrps, r)
		}
		bare := *ix
		bare.dir = nil
		if s, ev := bare.Classify(Route{Origin: 1}); s != Unknown || ev != nil {
			t.Fatalf("%s: the invalid route prefix is %v %v", name, s, ev)
		}
		t.Logf("%s: %d VRPs, %d buckets, %d routes", name, len(vrps), len(ix.dir)-1, len(routes))
	}
}

// TestNewIndexSmallBudget: the directory follows the size of the set, so the
// 1–8-VRP indexes that experiments, core.CircularSim and the examples build
// by the thousand stay four small allocations: the Index, its copy of the
// VRPs, up and dir (the build's chain lives on the stack).
func TestNewIndexSmallBudget(t *testing.T) {
	vrps := figure2VRPs()
	SortVRPs(vrps)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { NewIndex(vrps...) })
	runtime.ReadMemStats(&after)
	if allocs > 4 {
		t.Errorf("NewIndex of %d VRPs allocates %v times, want <= 4", len(vrps), allocs)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); per >= 512 {
		t.Errorf("NewIndex of %d VRPs allocates %d B, want < 512", len(vrps), per)
	}
}

func TestIsCanonical(t *testing.T) {
	a := VRP{Prefix: ipres.MustParsePrefix("10.0.0.0/8"), MaxLength: 8, ASN: 1}
	b := VRP{Prefix: ipres.MustParsePrefix("10.0.0.0/8"), MaxLength: 9, ASN: 1}
	c := VRP{Prefix: ipres.MustParsePrefix("2001:db8::/32"), MaxLength: 48, ASN: 1}
	for _, tc := range []struct {
		name string
		in   []VRP
		want bool
	}{
		{"empty", nil, true},
		{"one", []VRP{a}, true},
		{"ascending", []VRP{a, b, c}, true},
		{"duplicate", []VRP{a, a}, false},
		{"descending", []VRP{b, a}, false},
		{"invalid prefix", []VRP{{ASN: 1}, a}, false},
	} {
		if got := IsCanonical(tc.in); got != tc.want {
			t.Errorf("%s: IsCanonical = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestIndexOfNothing(t *testing.T) {
	ix := NewIndex()
	if ix.Len() != 0 || len(ix.VRPs()) != 0 {
		t.Fatalf("empty index holds %v", ix.VRPs())
	}
	if s, ev := ix.Classify(route("10.0.0.0/8", 1)); s != Unknown || ev != nil {
		t.Fatalf("empty index: %v %v", s, ev)
	}
}

func TestStateDoesNotAllocate(t *testing.T) {
	ix := NewIndex(figure2VRPs()...)
	routes := []Route{
		route("63.174.16.0/22", 7341),  // valid
		route("63.174.17.0/24", 17054), // invalid
		route("8.0.0.0/8", 3356),       // unknown
	}
	for _, r := range routes {
		if n := testing.AllocsPerRun(100, func() { ix.State(r) }); n != 0 {
			t.Errorf("State%v allocates %v times", r, n)
		}
	}
}

// fuzzRecord is the size of one VRP (or the route) in FuzzIndexState's
// input: flags, four address bytes, length, maxLength slack, ASN.
const fuzzRecord = 8

// decodeFuzzVRP maps eight arbitrary bytes onto a VRP that is well-formed by
// construction (or the invalid zero prefix), with small ASNs and addresses
// cut from a 32-bit seed so nesting, equal prefixes and matches are common.
func decodeFuzzVRP(b []byte) VRP {
	asn := ipres.ASN(b[7] % 4)
	if b[0] >= 0xC0 {
		return VRP{ASN: asn}
	}
	fam := ipres.IPv4
	if b[0]&1 == 1 {
		fam = ipres.IPv6
	}
	seed := uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])
	bits := int(b[5]) % (fam.Width() + 1)
	return VRP{
		Prefix:    anchorPrefix(fam, seed, bits),
		MaxLength: bits + int(b[6])%(fam.Width()-bits+1),
		ASN:       asn,
	}
}

// FuzzIndexState reads the input as a VRP set followed by one route and
// requires the index to agree with the linear-scan oracle. The route
// record's maxLength byte picks a seam, and the set built in two halves cut
// there must be the one-pass index: NewIndex splits only sets far larger
// than a fuzz input.
func FuzzIndexState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 63, 174, 16, 0, 20, 0, 1, 0, 63, 174, 17, 0, 24, 0, 2})                                               // covered, unmatched
	f.Add([]byte{0, 10, 0, 0, 0, 8, 16, 1, 0, 10, 0, 0, 0, 8, 0, 2, 0xC0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 1, 0, 0, 16, 0, 1}) // equal prefixes, an invalid one, a match
	f.Add([]byte{1, 0x20, 0x01, 0x0d, 0xb8, 128, 0, 3, 0, 0, 0, 0, 0, 0, 32, 3, 1, 0x20, 0x01, 0x0d, 0xb8, 128, 0, 3})    // host route, /0, two families
	// What the directory can get wrong: short covering prefixes with the route
	// many buckets away; a route before the first and after the last prefix of
	// its family; one family only; the invalid route prefix.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 128, 0, 0, 0, 1, 0, 2, 0, 10, 0, 0, 0, 8, 0, 1, 0, 10, 1, 0, 0, 16, 0, 1, 0, 250, 1, 2, 3, 32, 0, 2})
	f.Add([]byte{0, 10, 0, 0, 0, 8, 0, 1, 0, 200, 1, 0, 0, 16, 0, 1, 0, 9, 255, 255, 255, 32, 0, 1})
	f.Add([]byte{0, 10, 0, 0, 0, 8, 0, 1, 0, 200, 1, 0, 0, 16, 0, 1, 0, 200, 2, 0, 0, 24, 0, 1})
	f.Add([]byte{1, 0x20, 0x01, 0x0d, 0xb8, 32, 0, 1, 1, 0x2a, 0, 0, 0, 16, 0, 2, 1, 0, 0, 0, 0, 1, 0, 3, 1, 0xff, 0xff, 0xff, 0xff, 128, 0, 1})
	f.Add([]byte{0, 10, 0, 0, 0, 8, 0, 1, 1, 0x20, 0x01, 0x0d, 0xb8, 32, 0, 1, 0xC0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzRecord {
			return
		}
		var vrps []VRP
		for ; len(data) >= 2*fuzzRecord; data = data[fuzzRecord:] {
			vrps = append(vrps, decodeFuzzVRP(data))
		}
		last := decodeFuzzVRP(data)
		ix := NewIndex(vrps...)
		checkAgainstOracle(t, ix, vrps, Route{Prefix: last.Prefix, Origin: last.ASN})
		sameIndex(t, newIndex(vrps, int(data[6])%(len(vrps)+1)), ix)
	})
}
