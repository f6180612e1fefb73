package ipres

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is a CIDR prefix: an address plus a prefix length. Prefixes are
// stored in canonical (masked) form; the bits below the prefix length are
// zero. The zero Prefix is invalid.
type Prefix struct {
	addr Addr
	bits int
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
	return Prefix{addr: Addr{value: addr.value.and(m), family: addr.family}, bits: bits}, nil
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
	if p.addr != addr {
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
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return p.bits }

// Family returns the prefix's address family.
func (p Prefix) Family() Family { return p.addr.family }

// IsValid reports whether p is a valid prefix.
func (p Prefix) IsValid() bool { return p.addr.IsValid() }

// valueMask returns the prefix's network mask as a u128 over the family's
// value representation.
func (p Prefix) valueMask() u128 {
	if p.addr.family == IPv4 {
		return mask128(p.bits).shr(96)
	}
	return mask128(p.bits)
}

// Range returns the inclusive address range spanned by the prefix.
func (p Prefix) Range() Range {
	m := p.valueMask()
	last := Addr{value: p.addr.value.or(m.not()), family: p.addr.family}
	if p.addr.family == IPv4 {
		last.value.hi = 0
		last.value.lo &= 0xFFFFFFFF
	}
	return Range{lo: p.addr, hi: last}
}

// Contains reports whether the prefix contains addr.
func (p Prefix) Contains(a Addr) bool {
	if a.family != p.addr.family {
		return false
	}
	return a.value.and(p.valueMask()).cmp(p.addr.value) == 0
}

// Covers reports whether p covers q in the sense of the paper: q's address
// space is a subset of (or equal to) p's.
func (p Prefix) Covers(q Prefix) bool {
	return p.addr.family == q.addr.family && p.bits <= q.bits && p.Contains(q.addr)
}

// Overlaps reports whether p and q share any addresses.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Cmp orders prefixes by base address, then by length (shorter first).
func (p Prefix) Cmp(q Prefix) int {
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

// Lead packs the family and the leading address bits into one integer that
// never decreases along Cmp order: p.Cmp(q) < 0 implies p.Lead() <= q.Lead().
// The top bit is the family (IPv4 below IPv6); the 63 below it are the most
// significant address bits — all 32 of an IPv4 address, the first 63 of an
// IPv6 one. Shifted right it buckets prefixes in Cmp order, which is what
// rov.Index's directory is. The invalid Prefix, which Cmp orders first,
// yields 0.
func (p Prefix) Lead() uint64 {
	switch p.addr.family {
	case IPv4:
		return p.addr.value.lo << 31
	case IPv6:
		return 1<<63 | p.addr.value.hi>>1
	}
	return 0
}

// Halves splits the prefix into its two immediate subprefixes. It returns
// ok=false if the prefix is a single host address.
func (p Prefix) Halves() (lo, hi Prefix, ok bool) {
	w := p.addr.family.Width()
	if p.bits >= w {
		return Prefix{}, Prefix{}, false
	}
	nb := p.bits + 1
	lo = Prefix{addr: p.addr, bits: nb}
	step := u128FromUint64(1).shl(uint(w - nb))
	v, _ := p.addr.value.add(step)
	hi = Prefix{addr: Addr{value: v, family: p.addr.family}, bits: nb}
	return lo, hi, true
}

// Parent returns the enclosing prefix one bit shorter, or ok=false at /0.
func (p Prefix) Parent() (Prefix, bool) {
	if p.bits == 0 {
		return Prefix{}, false
	}
	return MustPrefixFrom(p.addr, p.bits-1), true
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	if !p.IsValid() {
		return "invalid/0"
	}
	return p.addr.String() + "/" + strconv.Itoa(p.bits)
}
