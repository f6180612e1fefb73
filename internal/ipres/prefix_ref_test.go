package ipres

import (
	"math/rand"
	"strconv"
	"testing"
)

// refPrefix is the reference Prefix the packed one is differenced against:
// a whole Addr plus an int length, with every operation written the way it
// was before the address was split into words — as u128 arithmetic.
type refPrefix struct {
	addr Addr
	bits int
}

func ref(p Prefix) refPrefix { return refPrefix{p.Addr(), p.Bits()} }

func refPrefixFrom(a Addr, bits int) refPrefix {
	r := refPrefix{a, bits}
	r.addr.value = a.value.and(r.valueMask())
	return r
}

func (p refPrefix) valueMask() u128 {
	if p.addr.family == IPv4 {
		return mask128(p.bits).shr(96)
	}
	return mask128(p.bits)
}

func (p refPrefix) Range() Range {
	last := Addr{value: p.addr.value.or(p.valueMask().not()), family: p.addr.family}
	if p.addr.family == IPv4 {
		last.value.hi = 0
		last.value.lo &= 0xFFFFFFFF
	}
	return Range{lo: p.addr, hi: last}
}

func (p refPrefix) Contains(a Addr) bool {
	return a.family == p.addr.family && a.value.and(p.valueMask()).cmp(p.addr.value) == 0
}

func (p refPrefix) Covers(q refPrefix) bool {
	return p.addr.family == q.addr.family && p.bits <= q.bits && p.Contains(q.addr)
}

func (p refPrefix) Cmp(q refPrefix) int {
	if c := p.addr.Cmp(q.addr); c != 0 {
		return c
	}
	switch {
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

func (p refPrefix) Lead() uint64 {
	switch p.addr.family {
	case IPv4:
		return p.addr.value.lo << 31
	case IPv6:
		return 1<<63 | p.addr.value.hi>>1
	}
	return 0
}

func (p refPrefix) Halves() (lo, hi refPrefix, ok bool) {
	w := p.addr.family.Width()
	if p.bits >= w {
		return refPrefix{}, refPrefix{}, false
	}
	nb := p.bits + 1
	v, _ := p.addr.value.add(u128FromUint64(1).shl(uint(w - nb)))
	return refPrefix{p.addr, nb}, refPrefix{Addr{value: v, family: p.addr.family}, nb}, true
}

func (p refPrefix) Parent() (refPrefix, bool) {
	if p.bits == 0 {
		return refPrefix{}, false
	}
	return refPrefixFrom(p.addr, p.bits-1), true
}

// testLengths are the lengths at and either side of every word boundary.
var testLengths = []int{0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128}

// testPrefix builds the canonical prefix of the given family holding the
// leading bits of (hi, lo), or the zero Prefix when bits is too long.
func testPrefix(v6 bool, hi, lo uint64, bits int) Prefix {
	a := AddrFromUint32(uint32(lo))
	if v6 {
		a = Addr{value: u128{hi, lo}, family: IPv6}
	}
	p, err := PrefixFrom(a, bits)
	if err != nil {
		return Prefix{}
	}
	return p
}

// checkPrefix differences p's own operations against the reference.
func checkPrefix(t *testing.T, p Prefix) {
	t.Helper()
	r := ref(p)
	if p.Family() != p.Addr().Family() || p.IsValid() != p.Family().Valid() {
		t.Fatalf("%v: family %v, Addr's %v, valid %v", p, p.Family(), p.Addr().Family(), p.IsValid())
	}
	if !p.IsValid() {
		if p != (Prefix{}) || p.String() != "invalid/0" {
			t.Fatalf("invalid prefix %#v renders %q", p, p.String())
		}
		return
	}
	if back := MustPrefixFrom(p.Addr(), p.Bits()); back != p || prefixOf(p.Addr(), p.Bits()) != p {
		t.Fatalf("%v: Addr/Bits round trip gives %v", p, back)
	}
	if rr := refPrefixFrom(r.addr, r.bits); rr != r {
		t.Fatalf("%v is not canonical: reference masks it to %v/%d", p, rr.addr, rr.bits)
	}
	if got, want := p.String(), r.addr.String()+"/"+strconv.Itoa(r.bits); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if back, err := ParsePrefix(p.String()); err != nil || back != p {
		t.Fatalf("ParsePrefix(%q) = %v, %v", p.String(), back, err)
	}
	if got, want := p.Lead(), r.Lead(); got != want {
		t.Fatalf("%v: Lead = %#x, reference %#x", p, got, want)
	}
	if got, want := p.Range(), r.Range(); got != want {
		t.Fatalf("%v: Range = %v, reference %v", p, got, want)
	}
	lo, hi, ok := p.Halves()
	rlo, rhi, rok := r.Halves()
	if ok != rok || ok && (ref(lo) != rlo || ref(hi) != rhi) {
		t.Fatalf("%v: Halves = %v, %v, %v; reference %v, %v, %v", p, lo, hi, ok, rlo, rhi, rok)
	}
	par, ok := p.Parent()
	rpar, rok := r.Parent()
	if ok != rok || ok && ref(par) != rpar {
		t.Fatalf("%v: Parent = %v, %v; reference %v, %v", p, par, ok, rpar, rok)
	}
	for _, a := range []Addr{p.Range().Lo(), p.Range().Hi()} {
		if !p.Contains(a) || !r.Contains(a) {
			t.Fatalf("%v does not contain its own bound %v", p, a)
		}
	}
}

// checkPair differences the two-prefix operations against the reference.
func checkPair(t *testing.T, p, q Prefix) {
	t.Helper()
	rp, rq := ref(p), ref(q)
	if got, want := p.Cmp(q), rp.Cmp(rq); got != want {
		t.Fatalf("%v.Cmp(%v) = %d, reference %d", p, q, got, want)
	}
	if (p == q) != (p.Cmp(q) == 0) {
		t.Fatalf("%v == %v is %v but Cmp is %d", p, q, p == q, p.Cmp(q))
	}
	if got, want := p.Covers(q), rp.Covers(rq); got != want {
		t.Fatalf("%v.Covers(%v) = %v, reference %v", p, q, got, want)
	}
	if q.IsValid() {
		for _, a := range []Addr{q.Range().Lo(), q.Range().Hi()} {
			if got, want := p.Contains(a), rp.Contains(a); got != want {
				t.Fatalf("%v.Contains(%v) = %v, reference %v", p, a, got, want)
			}
		}
	}
}

// TestPrefixMatchesReference runs both families at every length either
// side of a word boundary, over addresses with all, none and random bits
// set, against the u128 reference — singly and in every pair.
func TestPrefixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	words := [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {1 << 63, 1 << 63}, {0x20010db8_00000000, 1}}
	for i := 0; i < 6; i++ {
		words = append(words, [2]uint64{rng.Uint64(), rng.Uint64()})
	}
	ps := []Prefix{{}}
	for _, v6 := range []bool{false, true} {
		for _, w := range words {
			for _, bits := range testLengths {
				if p := testPrefix(v6, w[0], w[1], bits); p.IsValid() {
					ps = append(ps, p)
				}
			}
		}
	}
	for _, p := range ps {
		checkPrefix(t, p)
		for _, q := range ps {
			checkPair(t, p, q)
		}
	}
}

// FuzzPrefix differences the packed Prefix against the u128 reference on
// arbitrary pairs of prefixes, the second sometimes a more specific of the
// first so that Covers is exercised on both outcomes.
func FuzzPrefix(f *testing.F) {
	for _, bits := range testLengths {
		f.Add(true, uint64(0x20010db8_00000000), uint64(0), uint8(bits), uint64(0x20010db8_ffffffff), ^uint64(0), uint8(128), false)
		f.Add(false, uint64(0), uint64(0x3fa01000), uint8(bits), uint64(0), uint64(0x3fa01700), uint8(bits+1), true)
	}
	f.Fuzz(func(t *testing.T, v6 bool, hi1, lo1 uint64, b1 uint8, hi2, lo2 uint64, b2 uint8, nest bool) {
		p := testPrefix(v6, hi1, lo1, int(b1))
		q := testPrefix(v6 != nest, hi2, lo2, int(b2))
		if nest && p.IsValid() {
			q = testPrefix(v6, hi1, lo1, int(b2))
		}
		checkPrefix(t, p)
		checkPrefix(t, q)
		checkPair(t, p, q)
		checkPair(t, q, p)
	})
}
