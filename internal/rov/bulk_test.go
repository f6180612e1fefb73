package rov

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ipres"
)

// bulkShape is a seeded VRP set of n distinct prefixes shaped like the
// rtr_bulk benchmark's: 80 % IPv4 /16–/24 in 1–199/8, a tenth of all of
// them inside 100/8; 20 % IPv6 /32–/48 under 2001::/16. The routes are drawn
// as that benchmark draws them, from the VRPs outside 100/8: 70 % announced
// as authorised, 20 % from an origin no VRP names, 10 % in 240.0.0.0/4, which
// no VRP covers. The set is returned canonical.
func bulkShape(seed int64, n, routes int) ([]VRP, []Route) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[ipres.Prefix]bool, n)
	vrps := make([]VRP, 0, n)
	var stable []VRP
	for i := 0; len(vrps) < n; i++ {
		var p ipres.Prefix
		width := 24
		switch {
		case i%10 == 0:
			p = ipres.MustPrefixFrom(ipres.AddrFromUint32(100<<24|rng.Uint32()>>8), 16+rng.Intn(9))
		case i%5 == 1:
			var b [16]byte
			b[0], b[1] = 0x20, 0x01
			rng.Read(b[2:6])
			p, width = ipres.MustPrefixFrom(ipres.AddrFrom16(b), 32+rng.Intn(17)), 48
		default:
			octet := uint32(100)
			for octet == 100 {
				octet = 1 + uint32(rng.Intn(199))
			}
			p = ipres.MustPrefixFrom(ipres.AddrFromUint32(octet<<24|rng.Uint32()>>8), 16+rng.Intn(9))
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		v := VRP{Prefix: p, MaxLength: p.Bits() + rng.Intn(width-p.Bits()+1), ASN: ipres.ASN(1 + rng.Intn(400_000))}
		vrps = append(vrps, v)
		if i%10 != 0 {
			stable = append(stable, v)
		}
	}
	SortVRPs(vrps)
	out := make([]Route, routes)
	for i := range out {
		v := stable[rng.Intn(len(stable))]
		switch i % 10 {
		case 7, 8:
			v.ASN = 4_200_000_000
		case 9:
			v.Prefix = ipres.MustPrefixFrom(ipres.AddrFromUint32(0xF0000000|rng.Uint32()>>4&^0xFF), 24)
			v.MaxLength = 24
		}
		p := v.Prefix
		if v.MaxLength > p.Bits() && p.Family() == ipres.IPv4 {
			p = ipres.MustPrefixFrom(randomHost(rng, p), p.Bits()+rng.Intn(v.MaxLength-p.Bits()+1))
		}
		out[i] = Route{Prefix: p, Origin: v.ASN}
	}
	return vrps, out
}

// randomHost is a random address inside p.
func randomHost(rng *rand.Rand, p ipres.Prefix) ipres.Addr {
	b := p.Addr().Bytes()
	for i := range b {
		kept := min(max(p.Bits()-8*i, 0), 8)
		b[i] |= byte(rng.Intn(256)) &^ byte(0xFF<<(8-kept))
	}
	if len(b) == 4 {
		return ipres.AddrFrom4([4]byte(b))
	}
	return ipres.AddrFrom16([16]byte(b))
}

// routesNear draws n routes around the prefixes of vrps: an address inside
// one, at a length from four bits shorter to eight longer, announced by its
// ASN or the next.
func routesNear(rng *rand.Rand, vrps []VRP, n int) []Route {
	out := make([]Route, n)
	for i := range out {
		v := vrps[rng.Intn(len(vrps))]
		bits := min(max(v.Prefix.Bits()-4+rng.Intn(13), 0), v.Prefix.Family().Width())
		out[i] = Route{Prefix: ipres.MustPrefixFrom(randomHost(rng, v.Prefix), bits), Origin: v.ASN + ipres.ASN(rng.Intn(2))}
	}
	return out
}

// routesOf is the routes of one family.
func routesOf(routes []Route, fam ipres.Family) []Route {
	var out []Route
	for _, r := range routes {
		if r.Prefix.Family() == fam {
			out = append(out, r)
		}
	}
	return out
}

// sameIndex fails unless a and b hold the same VRPs, up and directory.
func sameIndex(t testing.TB, a, b *Index) {
	t.Helper()
	switch {
	case !slices.Equal(a.vrps, b.vrps):
		t.Fatalf("vrps differ (%d vs %d)", len(a.vrps), len(b.vrps))
	case !slices.Equal(a.up, b.up):
		t.Fatalf("up differs at %d of %d", firstDiff(a.up, b.up), len(a.up))
	case !slices.Equal(a.dir, b.dir) || a.fams != b.fams:
		t.Fatalf("directory differs at %d of %d (%+v vs %+v)", firstDiff(a.dir, b.dir), len(a.dir), a.fams, b.fams)
	}
}

func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// nestedAnchors is n VRPs cut from a few hundred anchors at every length,
// so chains run up to 33 deep in IPv4 and 129 in IPv6, with runs of equal
// prefixes; canonical.
func nestedAnchors(rng *rand.Rand, n int) []VRP {
	anchors := make([]uint32, 300)
	for i := range anchors {
		anchors[i] = rng.Uint32()
	}
	var vrps []VRP
	for len(vrps) < n {
		fam := ipres.IPv4
		if rng.Intn(3) == 0 {
			fam = ipres.IPv6
		}
		seed := anchors[rng.Intn(len(anchors))]
		if rng.Intn(3) == 0 {
			seed ^= 1 << rng.Intn(32)
		}
		p := anchorPrefix(fam, seed, rng.Intn(fam.Width()+1))
		vrps = append(vrps, VRP{Prefix: p, MaxLength: p.Bits(), ASN: ipres.ASN(rng.Intn(3))})
	}
	return oracleSet(vrps)
}

// deepChain is 20 nested IPv4 prefixes, each the lower half of the one
// before, from 210.0.0.0/8 down to /27, every one with two VRPs; a few
// host routes under the innermost; and the upper half of each, which
// follows all that is under its lower half and closes the chain one level
// at a time. It returns the chain's prefixes with the set.
func deepChain() ([]ipres.Prefix, []VRP) {
	var chain []ipres.Prefix
	var vrps []VRP
	p := ipres.MustParsePrefix("210.0.0.0/8")
	for j := 0; j < 20; j++ {
		chain = append(chain, p)
		vrps = append(vrps, VRP{Prefix: p, MaxLength: 32, ASN: 1}, VRP{Prefix: p, MaxLength: 32, ASN: 2})
		lo, hi, _ := p.Halves()
		vrps = append(vrps, VRP{Prefix: hi, MaxLength: hi.Bits(), ASN: 3})
		p = lo
	}
	for a := uint32(0); a < 8; a += 3 {
		host := ipres.MustPrefixFrom(ipres.AddrFromUint32(210<<24|a), 32)
		vrps = append(vrps, VRP{Prefix: host, MaxLength: 32, ASN: 4})
	}
	return chain, vrps
}

// TestSplitBuildMatchesOnePass: a set built in two halves at once, cut
// where the seam falls, is the set built in one pass — the same vrps, up
// and directory, the same state and evidence for every route — on the
// cuts a seam can make: across an rtr_bulk-shaped set (NewIndex's own cut),
// among deeply nested prefixes, inside a run of equal prefixes, at the
// IPv4/IPv6 boundary, and 10 deep inside a 20-deep chain. A non-canonical
// set whose first violation lies in the second half, or across the seam,
// ends where the one-pass build of the sorted set does.
func TestSplitBuildMatchesOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bulk, bulkRoutes := bulkShape(5, 2*splitMin, 50_000)

	// A run of 400 VRPs for the prefix in the middle of the bulk set.
	mid := bulk[len(bulk)/2].Prefix
	run := slices.Clone(bulk)
	for asn := ipres.ASN(1); asn <= 400; asn++ {
		run = append(run, VRP{Prefix: mid, MaxLength: mid.Bits(), ASN: asn})
	}
	run = oracleSet(run)
	runStart := slices.IndexFunc(run, func(v VRP) bool { return v.Prefix == mid })

	chain, deep := deepChain()
	deep = oracleSet(append(deep, bulk...))
	chainAt := slices.IndexFunc(deep, func(v VRP) bool { return v.Prefix == chain[10] })

	broken := slices.Clone(bulk)
	at := 3 * len(broken) / 4
	broken[at], broken[at+1] = broken[at+1], broken[at]
	crossed := slices.Clone(bulk)
	half := len(crossed) / 2
	crossed[half-1], crossed[half] = crossed[half], crossed[half-1]

	nested := nestedAnchors(rng, 40_000)
	for _, c := range []struct {
		name   string
		vrps   []VRP
		seam   int
		routes []Route
	}{
		{"rtr_bulk shape", bulk, -1, bulkRoutes},
		{"deeply nested anchors", nested, len(nested) / 2, nil},
		{"inside an equal-prefix run", run, runStart + 200, nil},
		{"at the IPv4/IPv6 boundary", bulk, slices.IndexFunc(bulk, func(v VRP) bool { return v.Prefix.Family() == ipres.IPv6 }), nil},
		{"inside a 20-deep chain", deep, chainAt, nil},
		{"violation in the second half", broken, len(broken) / 2, nil},
		{"violation across the seam", crossed, half, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			one := newIndex(c.vrps, 0)
			var split *Index
			if c.seam < 0 {
				split = NewIndex(c.vrps...)
			} else {
				split = newIndex(c.vrps, c.seam)
			}
			sameIndex(t, split, one)
			if want := oracleSet(c.vrps); !slices.Equal(one.vrps, want) {
				t.Fatalf("one-pass index holds %d VRPs, want the %d of the canonical set", len(one.vrps), len(want))
			}
			routes := c.routes
			if routes == nil {
				routes = routesNear(rng, c.vrps, 50_000)
			}
			for _, r := range routes {
				s1, ev1 := split.Classify(r)
				s2, ev2 := one.Classify(r)
				if s1 != s2 || !slices.Equal(ev1, ev2) {
					t.Fatalf("Classify%v: split %v %v, one pass %v %v", r, s1, ev1, s2, ev2)
				}
			}
			for _, r := range routes[:100] {
				checkAgainstOracle(t, one, c.vrps, r)
			}
		})
	}
}

// TestIndexBucketCounts pins the directory by the VRPs a lookup searches,
// which a timing cannot show: on an rtr_bulk-shaped set the bucket a route
// lands in holds at most 5 VRPs on average in each family, and no route
// searches more than 16. A set shaped like the RIRs' IPv6 space —
// 2001::/16 and five /12s — still concentrates a sixth of its prefixes in
// 8 buckets; that is logged, not asserted.
func TestIndexBucketCounts(t *testing.T) {
	searched := func(ix *Index, routes []Route) (mean float64, most int) {
		total := 0
		for _, r := range routes {
			k := ix.bucket(r.Prefix)
			n := int(ix.dir[k+1] - ix.dir[k])
			total += n
			most = max(most, n)
		}
		return float64(total) / float64(len(routes)), most
	}
	vrps, routes := bulkShape(12, 200_000, 100_000)
	ix := NewIndex(vrps...)
	for _, fam := range []ipres.Family{ipres.IPv4, ipres.IPv6} {
		mean, most := searched(ix, routesOf(routes, fam))
		t.Logf("%v: %.2f VRPs searched per route on average, at most %d", fam, mean, most)
		if mean > 5 || most > 16 {
			t.Errorf("%v routes search %.2f VRPs on average and at most %d, want <= 5 and <= 16", fam, mean, most)
		}
	}

	rng := rand.New(rand.NewSource(12))
	rir := []string{"2001::/16", "2400::/12", "2600::/12", "2800::/12", "2a00::/12", "2c00::/12"}
	var v6 []VRP
	for i := 0; i < 90_000; i++ {
		block := ipres.MustParsePrefix(rir[i%len(rir)])
		p := ipres.MustPrefixFrom(randomHost(rng, block), 32+rng.Intn(17))
		v6 = append(v6, VRP{Prefix: p, MaxLength: 48, ASN: 1})
	}
	v6 = oracleSet(v6)
	mean, most := searched(NewIndex(v6...), routesNear(rng, v6, 50_000))
	t.Logf("RIR-shaped IPv6 (%d prefixes): %.0f VRPs searched per route on average, at most %d", len(v6), mean, most)
}

// TestNewIndexBulkBudget: a 200,000-VRP build allocates its copy of the set
// (6.4 MB), up (0.8 MB) and the directory (0.33 MB), and little else.
func TestNewIndexBulkBudget(t *testing.T) {
	vrps, _ := bulkShape(12, 200_000, 0)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewIndex(vrps...)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 7_600_000 {
		t.Errorf("NewIndex of %d VRPs allocates %d B, want <= 7.6 MB", len(vrps), per)
	}
}

var (
	benchIndex  *Index
	benchStates [3]int
)

// BenchmarkIndexBulk reads the index's layers on a 200,000-VRP set of
// rtr_bulk's shape: the build, and State over 100,000 routes drawn as that
// workload draws them, all of them and each family alone (ns/route).
//
//	go test -run '^$' -bench IndexBulk -benchmem ./internal/rov
func BenchmarkIndexBulk(b *testing.B) {
	vrps, routes := bulkShape(12, 200_000, 100_000)
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchIndex = NewIndex(vrps...)
		}
	})
	ix := NewIndex(vrps...)
	for _, c := range []struct {
		name   string
		routes []Route
	}{
		{"state/mixed", routes},
		{"state/ipv4", routesOf(routes, ipres.IPv4)},
		{"state/ipv6", routesOf(routes, ipres.IPv6)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range c.routes {
					benchStates[ix.State(r)]++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.routes)), "ns/route")
		})
	}
}
