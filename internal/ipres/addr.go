// Package ipres implements the IP-resource algebra underlying RFC 3779
// certificate extensions and RPKI validation semantics: addresses, prefixes,
// inclusive ranges, canonical resource sets with union/intersection/
// subtraction/covering operations, minimal prefix covers, and AS number sets.
//
// All set operations produce canonical forms (sorted, disjoint, maximally
// merged), so Equal is structural equality and every operation is
// deterministic. IPv4 and IPv6 resources may be mixed freely in a Set.
package ipres

import (
	"fmt"
	"strconv"
	"strings"
)

// Family identifies an IP address family using the IANA AFI values, as used
// in the RFC 3779 IPAddrBlocks extension.
type Family uint8

const (
	// IPv4 is address family identifier 1.
	IPv4 Family = 1
	// IPv6 is address family identifier 2.
	IPv6 Family = 2
)

// Width returns the address width in bits: 32 for IPv4, 128 for IPv6.
func (f Family) Width() int {
	if f == IPv4 {
		return 32
	}
	return 128
}

// Valid reports whether f is IPv4 or IPv6.
func (f Family) Valid() bool { return f == IPv4 || f == IPv6 }

func (f Family) String() string {
	switch f {
	case IPv4:
		return "IPv4"
	case IPv6:
		return "IPv6"
	}
	return fmt.Sprintf("Family(%d)", uint8(f))
}

// Addr is an IPv4 or IPv6 address. The zero Addr is invalid.
type Addr struct {
	value  u128
	family Family
}

// AddrFrom4 returns the IPv4 address for the given 4 bytes.
func AddrFrom4(b [4]byte) Addr {
	v := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	return Addr{value: u128FromUint64(v), family: IPv4}
}

// AddrFrom16 returns the IPv6 address for the given 16 bytes.
func AddrFrom16(b [16]byte) Addr {
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return Addr{value: u128{hi, lo}, family: IPv6}
}

// AddrFromUint32 returns the IPv4 address with the given numeric value.
func AddrFromUint32(v uint32) Addr {
	return Addr{value: u128FromUint64(uint64(v)), family: IPv4}
}

// Family returns the address family.
func (a Addr) Family() Family { return a.family }

// IsValid reports whether a is a valid (non-zero-family) address.
func (a Addr) IsValid() bool { return a.family.Valid() }

// As4 returns the IPv4 byte representation. It panics for non-IPv4 addresses.
func (a Addr) As4() [4]byte {
	if a.family != IPv4 {
		panic("ipres: As4 on non-IPv4 address")
	}
	v := uint32(a.value.lo)
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// As16 returns the IPv6 byte representation. It panics for non-IPv6 addresses.
func (a Addr) As16() [16]byte {
	if a.family != IPv6 {
		panic("ipres: As16 on non-IPv6 address")
	}
	var b [16]byte
	hi, lo := a.value.hi, a.value.lo
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		b[i+8] = byte(lo)
		hi >>= 8
		lo >>= 8
	}
	return b
}

// Bytes returns the network-order byte representation (4 or 16 bytes).
func (a Addr) Bytes() []byte {
	if a.family == IPv4 {
		b := a.As4()
		return b[:]
	}
	b := a.As16()
	return b[:]
}

// Cmp compares two addresses. IPv4 addresses order before IPv6 addresses;
// within a family, numeric order applies.
func (a Addr) Cmp(b Addr) int {
	if a.family != b.family {
		if a.family < b.family {
			return -1
		}
		return 1
	}
	return a.value.cmp(b.value)
}

// Next returns the successor address, with ok=false if a is the maximum
// address of its family.
func (a Addr) Next() (Addr, bool) {
	v, carry := a.value.addOne()
	if carry {
		return Addr{}, false
	}
	if a.family == IPv4 && v.hi == 0 && v.lo > 0xFFFFFFFF {
		return Addr{}, false
	}
	return Addr{value: v, family: a.family}, true
}

// Prev returns the predecessor address, with ok=false if a is the minimum
// address of its family.
func (a Addr) Prev() (Addr, bool) {
	if a.value.isZero() {
		return Addr{}, false
	}
	v, _ := a.value.subOne()
	return Addr{value: v, family: a.family}, true
}

// String formats the address in conventional dotted-quad or RFC 5952 form.
func (a Addr) String() string {
	switch a.family {
	case IPv4:
		b := a.As4()
		return fmt.Sprintf("%d.%d.%d.%d", b[0], b[1], b[2], b[3])
	case IPv6:
		return formatIPv6(a.As16())
	}
	return "invalid"
}

// formatIPv6 renders a 16-byte address per RFC 5952 (lowercase hex,
// longest run of zero groups compressed, leftmost on tie, runs of one
// group not compressed).
func formatIPv6(b [16]byte) string {
	var groups [8]uint16
	for i := range groups {
		groups[i] = uint16(b[2*i])<<8 | uint16(b[2*i+1])
	}
	// Find the longest run of zero groups of length >= 2.
	bestStart, bestLen := -1, 1
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == bestStart {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(bestStart >= 0 && i == bestStart+bestLen) {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	return sb.String()
}

// ParseAddr parses an IPv4 dotted-quad or IPv6 address.
func ParseAddr(s string) (Addr, error) {
	if strings.Contains(s, ":") {
		return parseIPv6(s)
	}
	return parseIPv4(s)
}

// MustParseAddr is ParseAddr that panics on error; intended for constants
// and tests.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func parseIPv4(s string) (Addr, error) {
	var b [4]byte
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return Addr{}, fmt.Errorf("ipres: invalid IPv4 address %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil || (len(p) > 1 && p[0] == '0') {
			return Addr{}, fmt.Errorf("ipres: invalid IPv4 address %q", s)
		}
		b[i] = byte(v)
	}
	return AddrFrom4(b), nil
}

func parseIPv6(s string) (Addr, error) {
	// Split on "::" at most once.
	var head, tail []string
	if i := strings.Index(s, "::"); i >= 0 {
		h, t := s[:i], s[i+2:]
		if strings.Contains(t, "::") {
			return Addr{}, fmt.Errorf("ipres: invalid IPv6 address %q", s)
		}
		if h != "" {
			head = strings.Split(h, ":")
		}
		if t != "" {
			tail = strings.Split(t, ":")
		}
		if len(head)+len(tail) >= 8 {
			return Addr{}, fmt.Errorf("ipres: invalid IPv6 address %q", s)
		}
	} else {
		head = strings.Split(s, ":")
		if len(head) != 8 {
			return Addr{}, fmt.Errorf("ipres: invalid IPv6 address %q", s)
		}
	}
	groups := make([]uint16, 0, 8)
	parse := func(parts []string) error {
		for _, p := range parts {
			if p == "" {
				return fmt.Errorf("ipres: invalid IPv6 address %q", s)
			}
			v, err := strconv.ParseUint(p, 16, 16)
			if err != nil {
				return fmt.Errorf("ipres: invalid IPv6 address %q", s)
			}
			groups = append(groups, uint16(v))
		}
		return nil
	}
	if err := parse(head); err != nil {
		return Addr{}, err
	}
	zeros := 8 - len(head) - len(tail)
	for i := 0; i < zeros; i++ {
		groups = append(groups, 0)
	}
	if err := parse(tail); err != nil {
		return Addr{}, err
	}
	var b [16]byte
	for i, g := range groups {
		b[2*i] = byte(g >> 8)
		b[2*i+1] = byte(g)
	}
	return AddrFrom16(b), nil
}
