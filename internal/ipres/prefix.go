package ipres

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Prefix is a CIDR prefix: an address plus a prefix length. Prefixes are
// stored in canonical (masked) form; the bits below the prefix length are
// zero, so == is prefix equality. The zero Prefix is invalid.
//
// The address value is held as two w64 halves of Addr's u128 rather than
// the u128 itself: with 4-byte alignment the struct is 20 bytes instead of
// 32, which is what every VRP and route embeds. Cmp, Covers and Lead work
// on the words directly; Addr rebuilds the u128.
type Prefix struct {
	h, l   w64
	family Family
	bits   uint8
}

// w64 is a 64-bit word as two 32-bit halves, a the more significant.
type w64 struct{ a, b uint32 }

func splitW64(v uint64) w64 { return w64{uint32(v >> 32), uint32(v)} }

func (w w64) u64() uint64 { return uint64(w.a)<<32 | uint64(w.b) }

// prefixOf packs a canonical address and a length already checked
// against its family's width.
func prefixOf(a Addr, bits int) Prefix {
	return Prefix{h: splitW64(a.value.hi), l: splitW64(a.value.lo), family: a.family, bits: uint8(bits)}
}

// PrefixFrom returns the canonical prefix containing addr with the given
// length. Host bits below the prefix length are cleared.
func PrefixFrom(addr Addr, bits int) (Prefix, error) {
	if !addr.IsValid() {
		return Prefix{}, fmt.Errorf("ipres: invalid address in prefix")
	}
	w := addr.family.Width()
	if bits < 0 || bits > w {
		return Prefix{}, fmt.Errorf("ipres: prefix length %d out of range for %v", bits, addr.family)
	}
	m := mask128(128 - w + bits) // top bits of the w-bit value
	if addr.family == IPv4 {
		m = mask128(bits).shr(uint(128 - 32)) // low 32 bits hold the value
	}
	return prefixOf(Addr{value: addr.value.and(m), family: addr.family}, bits), nil
}

// MustPrefixFrom is PrefixFrom that panics on error.
func MustPrefixFrom(addr Addr, bits int) Prefix {
	p, err := PrefixFrom(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses a prefix in CIDR notation, e.g. "63.160.0.0/12".
// Host bits below the prefix length must be zero.
func ParsePrefix(s string) (Prefix, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("ipres: missing '/' in prefix %q", s)
	}
	addr, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("ipres: invalid prefix length in %q", s)
	}
	p, err := PrefixFrom(addr, bits)
	if err != nil {
		return Prefix{}, err
	}
	if p.Addr() != addr {
		return Prefix{}, fmt.Errorf("ipres: prefix %q has host bits set", s)
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the (masked) base address of the prefix.
func (p Prefix) Addr() Addr {
	return Addr{value: u128{p.h.u64(), p.l.u64()}, family: p.family}
}

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Family returns the prefix's address family.
func (p Prefix) Family() Family { return p.family }

// IsValid reports whether p is a valid prefix.
func (p Prefix) IsValid() bool { return p.family.Valid() }

// Range returns the inclusive address range spanned by the prefix.
func (p Prefix) Range() Range {
	lo := p.Addr()
	m := mask128(int(p.bits))
	if p.family == IPv4 {
		m = m.shr(96)
	}
	last := Addr{value: lo.value.or(m.not()), family: p.family}
	if p.family == IPv4 {
		last.value.hi = 0
		last.value.lo &= 0xFFFFFFFF
	}
	return Range{lo: lo, hi: last}
}

// Contains reports whether the prefix contains addr.
func (p Prefix) Contains(a Addr) bool {
	return a.family == p.family && p.Covers(prefixOf(a, a.family.Width()))
}

// Covers reports whether p covers q in the sense of the paper: q's address
// space is a subset of (or equal to) p's. It compares the leading p.Bits()
// bits of the two addresses word by word; a shift by the full word width
// yields zero, so /0 needs no special case.
func (p Prefix) Covers(q Prefix) bool {
	if p.family != q.family || p.bits > q.bits {
		return false
	}
	n := uint(p.bits)
	if p.family == IPv4 {
		return (p.l.b^q.l.b)>>(32-n) == 0
	}
	x := p.h.u64() ^ q.h.u64()
	if n <= 64 {
		return x>>(64-n) == 0
	}
	return x == 0 && (p.l.u64()^q.l.u64())>>(128-n) == 0
}

// Overlaps reports whether p and q share any addresses.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Cmp orders prefixes by base address, then by length (shorter first).
func (p Prefix) Cmp(q Prefix) int {
	switch {
	case p.family != q.family:
		return cmp.Compare(p.family, q.family)
	case p.h != q.h:
		return cmp.Compare(p.h.u64(), q.h.u64())
	case p.l != q.l:
		return cmp.Compare(p.l.u64(), q.l.u64())
	}
	return cmp.Compare(p.bits, q.bits)
}

// Lead packs the family and the leading address bits into one integer that
// never decreases along Cmp order: p.Cmp(q) < 0 implies p.Lead() <= q.Lead().
// The top bit is the family (IPv4 below IPv6); the 63 below it are the most
// significant address bits — all 32 of an IPv4 address, the first 63 of an
// IPv6 one. Past the leading bits a run of prefixes shares, its next bits
// bucket them in Cmp order, which is what rov.Index's directory is. The
// invalid Prefix, which Cmp orders first, yields 0.
func (p Prefix) Lead() uint64 {
	switch p.family {
	case IPv4:
		return uint64(p.l.b) << 31
	case IPv6:
		return 1<<63 | p.h.u64()>>1
	}
	return 0
}

// Halves splits the prefix into its two immediate subprefixes. It returns
// ok=false if the prefix is a single host address.
func (p Prefix) Halves() (lo, hi Prefix, ok bool) {
	w := p.family.Width()
	if int(p.bits) >= w {
		return Prefix{}, Prefix{}, false
	}
	nb := int(p.bits) + 1
	lo = p
	lo.bits++
	a := p.Addr()
	a.value, _ = a.value.add(u128FromUint64(1).shl(uint(w - nb)))
	return lo, prefixOf(a, nb), true
}

// Parent returns the enclosing prefix one bit shorter, or ok=false at /0.
func (p Prefix) Parent() (Prefix, bool) {
	if p.bits == 0 {
		return Prefix{}, false
	}
	return MustPrefixFrom(p.Addr(), int(p.bits)-1), true
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	if !p.IsValid() {
		return "invalid/0"
	}
	return p.Addr().String() + "/" + strconv.Itoa(int(p.bits))
}
