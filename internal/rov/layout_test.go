package rov

import (
	"testing"
	"unsafe"

	"repro/internal/ipres"
)

// TestLayout pins the sizes every VRP set and route table is made of. A
// Prefix is 20 bytes with 4-byte alignment: its address is two pairs of
// 32-bit words, because Go keeps a struct in registers only if it has at
// most 4 fields and at most 4 words, which a [16]byte array or six scalar
// fields would break. ASN fills the 4 bytes after it; MaxLength comes last.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"ipres.Prefix", unsafe.Sizeof(ipres.Prefix{}), 20},
		{"VRP", unsafe.Sizeof(VRP{}), 32},
		{"Route", unsafe.Sizeof(Route{}), 24},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.size, c.want)
		}
	}
}
