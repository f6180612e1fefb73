package ipres

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		in string
		ok bool
	}{
		{"63.160.0.0/12", true},
		{"0.0.0.0/0", true},
		{"1.2.3.4/32", true},
		{"2001:db8::/32", true},
		{"::/0", true},
		{"63.160.0.0", false},
		{"63.160.0.0/33", false},
		{"63.160.0.0/-1", false},
		{"63.161.0.0/12", false}, // host bits set
		{"2001:db8::/129", false},
		{"2001:db8::1/64", false}, // host bits set
	}
	for _, tc := range tests {
		p, err := ParsePrefix(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParsePrefix(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && p.String() != tc.in {
			t.Errorf("ParsePrefix(%q).String() = %q", tc.in, p.String())
		}
	}
}

func TestPrefixRange(t *testing.T) {
	tests := []struct {
		in     string
		lo, hi string
	}{
		{"63.160.0.0/12", "63.160.0.0", "63.175.255.255"},
		{"63.174.16.0/20", "63.174.16.0", "63.174.31.255"},
		{"63.174.16.0/22", "63.174.16.0", "63.174.19.255"},
		{"0.0.0.0/0", "0.0.0.0", "255.255.255.255"},
		{"10.0.0.1/32", "10.0.0.1", "10.0.0.1"},
		{"2001:db8::/32", "2001:db8::", "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff"},
	}
	for _, tc := range tests {
		r := MustParsePrefix(tc.in).Range()
		if r.Lo().String() != tc.lo || r.Hi().String() != tc.hi {
			t.Errorf("%s.Range() = [%v, %v], want [%s, %s]", tc.in, r.Lo(), r.Hi(), tc.lo, tc.hi)
		}
	}
}

func TestPrefixCovers(t *testing.T) {
	// The paper's footnote 1: 63.160.0.0/12 covers 63.168.93.0/24, and a
	// prefix covers itself.
	p12 := MustParsePrefix("63.160.0.0/12")
	p24 := MustParsePrefix("63.168.93.0/24")
	if !p12.Covers(p24) {
		t.Error("63.160.0.0/12 should cover 63.168.93.0/24")
	}
	if !p12.Covers(p12) {
		t.Error("a prefix should cover itself")
	}
	if p24.Covers(p12) {
		t.Error("/24 should not cover /12")
	}
	if p12.Covers(MustParsePrefix("64.0.0.0/24")) {
		t.Error("disjoint prefixes should not cover")
	}
	if p12.Covers(MustParsePrefix("2001:db8::/32")) {
		t.Error("cross-family cover should be false")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("63.174.16.0/20")
	if !p.Contains(MustParseAddr("63.174.23.0")) {
		t.Error("should contain 63.174.23.0")
	}
	if p.Contains(MustParseAddr("63.174.32.0")) {
		t.Error("should not contain 63.174.32.0")
	}
	if p.Contains(MustParseAddr("2001:db8::1")) {
		t.Error("cross-family contains should be false")
	}
}

func TestPrefixHalvesAndParent(t *testing.T) {
	p := MustParsePrefix("63.160.0.0/12")
	lo, hi, ok := p.Halves()
	if !ok || lo.String() != "63.160.0.0/13" || hi.String() != "63.168.0.0/13" {
		t.Fatalf("Halves = %v, %v, %v", lo, hi, ok)
	}
	par, ok := lo.Parent()
	if !ok || par != p {
		t.Fatalf("Parent(%v) = %v", lo, par)
	}
	if _, _, ok := MustParsePrefix("1.2.3.4/32").Halves(); ok {
		t.Error("/32 should not halve")
	}
	if _, ok := MustParsePrefix("0.0.0.0/0").Parent(); ok {
		t.Error("/0 should have no parent")
	}
}

func TestPrefixFromMasksHostBits(t *testing.T) {
	p, err := PrefixFrom(MustParseAddr("63.174.23.77"), 20)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "63.174.16.0/20" {
		t.Errorf("got %v", p)
	}
	q, err := PrefixFrom(MustParseAddr("2001:db8:abcd::1"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "2001:db8::/32" {
		t.Errorf("got %v", q)
	}
}

func TestPrefixHalvesPartitionQuick(t *testing.T) {
	f := func(v uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 32) // 0..31 so halves exist
		p, err := PrefixFrom(AddrFromUint32(v), bits)
		if err != nil {
			return false
		}
		lo, hi, ok := p.Halves()
		if !ok {
			return false
		}
		r, rl, rh := p.Range(), lo.Range(), hi.Range()
		next, _ := rl.Hi().Next()
		return rl.Lo() == r.Lo() && rh.Hi() == r.Hi() && next == rh.Lo()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixCoversTransitiveQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		b1 := rng.Intn(25)
		b2 := b1 + rng.Intn(33-b1)
		b3 := b2 + rng.Intn(33-b2)
		v := rng.Uint32()
		p1 := MustPrefixFrom(AddrFromUint32(v), b1)
		p2 := MustPrefixFrom(AddrFromUint32(v), b2)
		p3 := MustPrefixFrom(AddrFromUint32(v), b3)
		if !p1.Covers(p2) || !p2.Covers(p3) || !p1.Covers(p3) {
			t.Fatalf("cover chain broken: %v %v %v", p1, p2, p3)
		}
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("63.160.0.0/12")
	b := MustParsePrefix("63.174.16.0/20")
	c := MustParsePrefix("64.86.0.0/16")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestPrefixCmp(t *testing.T) {
	a := MustParsePrefix("63.160.0.0/12")
	b := MustParsePrefix("63.160.0.0/13")
	c := MustParsePrefix("63.168.0.0/13")
	if a.Cmp(b) >= 0 || b.Cmp(c) >= 0 || a.Cmp(a) != 0 {
		t.Error("prefix ordering wrong")
	}
}

// TestPrefixLeadFollowsCmp: Lead never decreases along Cmp order, across
// families, lengths and the invalid prefix, and separates addresses that
// differ in their leading bits — at any shift, which is how rov.Index's
// directory buckets prefixes.
func TestPrefixLeadFollowsCmp(t *testing.T) {
	ps := []Prefix{
		{}, // invalid: Cmp orders it first
		MustParsePrefix("0.0.0.0/0"),
		MustParsePrefix("0.0.0.0/8"),
		MustParsePrefix("0.0.0.1/32"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/9"),
		MustParsePrefix("10.128.0.0/9"),
		MustParsePrefix("127.255.255.255/32"),
		MustParsePrefix("128.0.0.0/1"),
		MustParsePrefix("255.255.255.255/32"),
		MustParsePrefix("::/0"),
		MustParsePrefix("::1/128"),
		MustParsePrefix("2001:db8::/32"),
		MustParsePrefix("2001:db8::/48"),
		MustParsePrefix("2001:db8:0:1::/64"),
		MustParsePrefix("8000::/1"),
		MustParsePrefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
	}
	for i, p := range ps {
		for j, q := range ps {
			if c := p.Cmp(q); (c < 0) != (i < j) || (c == 0) != (i == j) {
				t.Fatalf("test table out of Cmp order at %v, %v", p, q)
			}
			for _, shift := range []uint{0, 31, 47, 63} {
				if i < j && p.Lead()>>shift > q.Lead()>>shift {
					t.Errorf("%v orders before %v but Lead>>%d is %#x > %#x", p, q, shift, p.Lead()>>shift, q.Lead()>>shift)
				}
			}
		}
	}
	if v4, v6 := MustParsePrefix("255.255.255.255/32").Lead(), MustParsePrefix("::/0").Lead(); v4>>63 != 0 || v6>>63 != 1 {
		t.Errorf("family bit: last IPv4 %#x, first IPv6 %#x", v4, v6)
	}
	if a, b := MustParsePrefix("10.0.0.0/32").Lead(), MustParsePrefix("10.0.0.1/32").Lead(); a == b {
		t.Error("Lead drops the last bit of an IPv4 address")
	}
	if a, b := MustParsePrefix("2001:db8::/33").Lead(), MustParsePrefix("2001:db8:8000::/33").Lead(); a == b {
		t.Error("Lead does not reach bit 33 of an IPv6 address")
	}
}
