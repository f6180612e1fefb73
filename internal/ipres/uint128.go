package ipres

import "math/bits"

// u128 is an unsigned 128-bit integer used to represent IP address values.
// IPv4 addresses occupy the low 32 bits; IPv6 addresses use all 128 bits.
type u128 struct {
	hi, lo uint64
}

func u128FromUint64(v uint64) u128 { return u128{lo: v} }

func (u u128) isZero() bool { return u.hi == 0 && u.lo == 0 }

func (u u128) cmp(v u128) int {
	switch {
	case u.hi < v.hi:
		return -1
	case u.hi > v.hi:
		return 1
	case u.lo < v.lo:
		return -1
	case u.lo > v.lo:
		return 1
	}
	return 0
}

func (u u128) and(v u128) u128 { return u128{u.hi & v.hi, u.lo & v.lo} }
func (u u128) or(v u128) u128  { return u128{u.hi | v.hi, u.lo | v.lo} }
func (u u128) not() u128       { return u128{^u.hi, ^u.lo} }

// add returns u+v and a carry-out flag.
func (u u128) add(v u128) (u128, bool) {
	lo, c := bits.Add64(u.lo, v.lo, 0)
	hi, c2 := bits.Add64(u.hi, v.hi, c)
	return u128{hi, lo}, c2 != 0
}

// sub returns u-v and a borrow-out flag.
func (u u128) sub(v u128) (u128, bool) {
	lo, b := bits.Sub64(u.lo, v.lo, 0)
	hi, b2 := bits.Sub64(u.hi, v.hi, b)
	return u128{hi, lo}, b2 != 0
}

// addOne returns u+1 and whether it overflowed.
func (u u128) addOne() (u128, bool) { return u.add(u128{lo: 1}) }

// subOne returns u-1 and whether it underflowed.
func (u u128) subOne() (u128, bool) { return u.sub(u128{lo: 1}) }

// shl shifts left by n bits (n in [0,128]).
func (u u128) shl(n uint) u128 {
	switch {
	case n >= 128:
		return u128{}
	case n >= 64:
		return u128{hi: u.lo << (n - 64)}
	case n == 0:
		return u
	default:
		return u128{hi: u.hi<<n | u.lo>>(64-n), lo: u.lo << n}
	}
}

// shr shifts right by n bits (n in [0,128]).
func (u u128) shr(n uint) u128 {
	switch {
	case n >= 128:
		return u128{}
	case n >= 64:
		return u128{lo: u.hi >> (n - 64)}
	case n == 0:
		return u
	default:
		return u128{hi: u.hi >> n, lo: u.lo>>n | u.hi<<(64-n)}
	}
}

// leadingZeros returns the number of leading zero bits in the 128-bit value.
func (u u128) leadingZeros() int {
	if u.hi != 0 {
		return bits.LeadingZeros64(u.hi)
	}
	return 64 + bits.LeadingZeros64(u.lo)
}

// trailingZeros returns the number of trailing zero bits (128 for zero).
func (u u128) trailingZeros() int {
	if u.lo != 0 {
		return bits.TrailingZeros64(u.lo)
	}
	if u.hi != 0 {
		return 64 + bits.TrailingZeros64(u.hi)
	}
	return 128
}

// mask128 returns a mask with the top n bits of a 128-bit word set.
func mask128(n int) u128 {
	if n <= 0 {
		return u128{}
	}
	if n >= 128 {
		return u128{^uint64(0), ^uint64(0)}
	}
	return u128{^uint64(0), ^uint64(0)}.shl(uint(128 - n)) // clears low bits
}
