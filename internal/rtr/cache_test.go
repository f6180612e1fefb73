package rtr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// snapshotVRPs flattens the cache's chunks: the current canonical set,
// serial, and session, for tests that compare a router with its cache.
func (c *Cache) snapshotVRPs() (vrps []rov.VRP, serial uint32, session uint16) {
	chunks, serial, session := c.snapshot()
	return flattenChunks(chunks), serial, session
}

// deltaEntries returns the history entries deltaFrames would answer a
// Serial Query from serial with (slice headers copied; the frames are
// shared read-only), and the current serial.
func (c *Cache) deltaEntries(serial uint32) (entries []delta, current uint32, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if serial == c.serial {
		return nil, c.serial, true
	}
	for i, d := range c.history {
		if d.from == serial {
			return slices.Clone(c.history[i:]), c.serial, true
		}
	}
	return nil, c.serial, false
}

// ops decodes the entry's frame, what routers are sent, into the VRPs it
// announces and those it withdraws, in frame order, and holds the entry's
// VRP count to the frame's.
func (d delta) ops(t testing.TB) (announced, withdrawn []rov.VRP) {
	t.Helper()
	r := bytes.NewReader(d.frame)
	for r.Len() > 0 {
		p, err := ReadPDU(r)
		if err != nil {
			t.Fatalf("delta frame: %v", err)
		}
		if p.Flags&FlagAnnounce != 0 {
			announced = append(announced, p.VRP)
		} else {
			withdrawn = append(withdrawn, p.VRP)
		}
	}
	if n := len(announced) + len(withdrawn); n != d.vrps {
		t.Fatalf("delta counts %d VRPs, its frame holds %d", d.vrps, n)
	}
	return announced, withdrawn
}

// checkChunkSizes holds a chunk list, a cache's or a router's, to the size
// invariant: none empty or above chunkVRPs, only the last below chunkVRPs/2.
func checkChunkSizes(t testing.TB, chunks []*chunk) {
	t.Helper()
	for k, ch := range chunks {
		if len(ch.vrps) == 0 || len(ch.vrps) > chunkVRPs {
			t.Fatalf("chunk %d of %d holds %d VRPs", k, len(chunks), len(ch.vrps))
		}
		if len(ch.vrps) < chunkVRPs/2 && k != len(chunks)-1 {
			t.Fatalf("chunk %d of %d is undersized (%d VRPs) and not the last", k, len(chunks), len(ch.vrps))
		}
	}
}

// oracleNormalize is the flat reference for what a cache stores of an
// arbitrary input: the distinct VRPs a prefix PDU can carry, in canonical
// order.
func oracleNormalize(vrps []rov.VRP) []rov.VRP {
	seen := make(map[rov.VRP]bool)
	var out []rov.VRP
	for _, v := range vrps {
		if !v.Prefix.IsValid() || v.MaxLength < v.Prefix.Bits() || v.MaxLength > v.Prefix.Family().Width() || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	slices.SortFunc(out, rov.VRP.Compare)
	return out
}

// oracleFrame serializes vrps as Announce prefix PDUs field by field from
// RFC 6810 §5.6/§5.7, sharing no code with appendPrefixPDU.
func oracleFrame(vrps []rov.VRP) []byte {
	out := make([]byte, 0, 32*len(vrps))
	for _, v := range vrps {
		addr := v.Prefix.Addr().Bytes()
		typ := uint8(TypeIPv4Prefix)
		if len(addr) == 16 {
			typ = TypeIPv6Prefix
		}
		out = append(out, Version, typ, 0, 0)
		out = binary.BigEndian.AppendUint32(out, uint32(16+len(addr)))
		out = append(out, FlagAnnounce, uint8(v.Prefix.Bits()), uint8(v.MaxLength), 0)
		out = append(out, addr...)
		out = binary.BigEndian.AppendUint32(out, uint32(v.ASN))
	}
	return out
}

// oracleDigest is StateDigest as it was defined over one flat frame.
func oracleDigest(session uint16, serial uint32, frame []byte) [32]byte {
	h := sha256.New()
	var hdr [6]byte
	binary.BigEndian.PutUint16(hdr[0:], session)
	binary.BigEndian.PutUint32(hdr[2:], serial)
	h.Write(hdr[:])
	h.Write(frame)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// checkStep holds a cache that was at (prev, prevSerial) and has been given
// an input normalizing to next against the flat oracle: the recorded delta
// is rov.DiffVRPs(prev, next), the serial moved only if that is non-empty,
// and the state is next's (checkState).
func checkStep(t testing.TB, c *Cache, prev, next []rov.VRP, prevSerial uint32) {
	t.Helper()
	announced, withdrawn := rov.DiffVRPs(prev, next)
	wantSerial := prevSerial
	if len(announced)+len(withdrawn) > 0 {
		wantSerial++
	}
	serial := c.Serial()
	if serial != wantSerial {
		t.Fatalf("serial %d, want %d (delta +%d −%d)", serial, wantSerial, len(announced), len(withdrawn))
	}
	if serial != prevSerial {
		entries, _, ok := c.deltaEntries(prevSerial)
		if !ok || len(entries) != 1 {
			t.Fatalf("history after serial %d: %d entries, ok=%v", prevSerial, len(entries), ok)
		}
		gotA, gotW := entries[0].ops(t)
		if !slices.Equal(gotA, announced) || !slices.Equal(gotW, withdrawn) {
			t.Fatalf("delta +%d −%d differs from rov.DiffVRPs +%d −%d",
				len(gotA), len(gotW), len(announced), len(withdrawn))
		}
	}
	checkState(t, c, next, oracleFrame(next))
}

// checkState holds what a cache stores against the flat oracle: the set is
// want, the chunk frames concatenate to wantFrame (want's flat encoding),
// the digest is the flat one, and the chunks keep their size invariant.
func checkState(t testing.TB, c *Cache, want []rov.VRP, wantFrame []byte) {
	t.Helper()
	chunks, serial, session := c.snapshot()
	var vrps []rov.VRP
	var frame []byte
	checkChunkSizes(t, chunks)
	for k, ch := range chunks {
		if cap(ch.frame) != len(ch.frame) {
			t.Fatalf("chunk %d frame has %d spare bytes", k, cap(ch.frame)-len(ch.frame))
		}
		vrps = append(vrps, ch.vrps...)
		frame = append(frame, ch.frame...)
	}
	if !slices.Equal(vrps, want) {
		t.Fatalf("cache holds %d VRPs, oracle %d", len(vrps), len(want))
	}
	if c.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", c.Len(), len(want))
	}
	if !slices.Equal(frame, wantFrame) {
		t.Fatalf("concatenated chunk frames (%d B) differ from the flat encoding (%d B)", len(frame), len(wantFrame))
	}
	if got := c.StateDigest(); got != oracleDigest(session, serial, wantFrame) {
		t.Fatalf("StateDigest %x differs from the digest of the flat frame", got[:6])
	}
}

// testUniverse makes n distinct VRPs in canonical order: IPv4 and IPv6,
// with runs that share a prefix and differ in ASN or maxLength.
func testUniverse(rng *rand.Rand, n int) []rov.VRP {
	seen := make(map[rov.VRP]bool, n)
	out := make([]rov.VRP, 0, n)
	for len(out) < n {
		var p ipres.Prefix
		if rng.Intn(5) == 0 {
			var b [16]byte
			b[0], b[1] = 0x20, 0x01
			rng.Read(b[2:6])
			p = ipres.MustPrefixFrom(ipres.AddrFrom16(b), 32+rng.Intn(17))
		} else {
			p = ipres.MustPrefixFrom(ipres.AddrFromUint32(rng.Uint32()), 12+rng.Intn(13))
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			v := rov.VRP{Prefix: p, MaxLength: p.Bits() + rng.Intn(4), ASN: ipres.ASN(1 + rng.Intn(50))}
			if !seen[v] && len(out) < n {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	rov.SortVRPs(out)
	return out
}

// TestChunkedCacheMatchesFlatOracle drives one cache through seeded mutation
// steps and holds it, after every step, against the flat oracle and a cache
// built afresh from the same set; a replica cache fed the recorded deltas
// must land on the primary's digest every time.
func TestChunkedCacheMatchesFlatOracle(t *testing.T) {
	steps := 800
	if testing.Short() {
		steps = 200
	}
	rng := rand.New(rand.NewSource(16))
	universe := testUniverse(rng, 5000)
	present := make([]bool, len(universe))
	build := func() []rov.VRP {
		var out []rov.VRP
		for i, v := range universe {
			if present[i] {
				out = append(out, v)
			}
		}
		return out
	}
	junk := []rov.VRP{
		{ASN: 7}, // invalid prefix
		{Prefix: ipres.MustParsePrefix("10.0.0.0/8"), MaxLength: 300, ASN: 7},
		{Prefix: ipres.MustParsePrefix("10.0.0.0/8"), MaxLength: 7, ASN: 7},
		{Prefix: ipres.MustParsePrefix("2001:db8::/32"), MaxLength: 129, ASN: 7},
	}

	primary, replica := NewCache(9), NewCache(0)
	primary.SetHistoryLimits(8, 1<<30)
	replica.applySnapshot(primary.Session(), primary.Serial(), nil)
	var prev []rov.VRP
	for step := 0; step < steps; step++ {
		shuffled := false
		switch kind := rng.Intn(10); {
		case kind < 4: // a few flips anywhere
			for k := 1 + rng.Intn(10); k > 0; k-- {
				i := rng.Intn(len(present))
				present[i] = !present[i]
			}
		case kind < 6: // a contiguous whack or restore
			lo := rng.Intn(len(present))
			hi := min(len(present), lo+1+rng.Intn(3*chunkVRPs))
			restore := rng.Intn(2) == 0
			for i := lo; i < hi; i++ {
				present[i] = restore
			}
		case kind == 6: // 2 % scatter
			for k := len(present) / 50; k > 0; k-- {
				i := rng.Intn(len(present))
				present[i] = !present[i]
			}
		case kind == 7: // empty or full
			full := rng.Intn(2) == 0
			for i := range present {
				present[i] = full
			}
		case kind == 8: // shuffled, duplicated, with entries no PDU can carry
			shuffled = true
			if rng.Intn(2) == 0 {
				i := rng.Intn(len(present))
				present[i] = !present[i]
			}
		default: // no-op
		}
		next := build()
		input := slices.Clone(next)
		if shuffled {
			input = append(input, input[:len(input)/3]...)
			input = append(input, junk...)
			rng.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })
		} else if rng.Intn(8) == 0 && len(input) > 0 {
			// Canonical but for one unencodable entry spliced in where it sorts.
			bad := input[rng.Intn(len(input))]
			bad.MaxLength = 200 + rng.Intn(100)
			at, _ := slices.BinarySearchFunc(input, bad, rov.VRP.Compare)
			input = slices.Insert(input, at, bad)
		}

		prevSerial := primary.Serial()
		primary.SetVRPs(input)
		checkStep(t, primary, prev, next, prevSerial)

		frame := oracleFrame(next)
		fresh := NewCache(9)
		fresh.SetVRPs(next)
		checkState(t, fresh, next, frame)

		if serial := primary.Serial(); serial != prevSerial {
			entries, _, _ := primary.deltaEntries(prevSerial)
			announced, withdrawn := entries[0].ops(t)
			if !replica.applyDelta(serial, announced, withdrawn) {
				t.Fatalf("step %d: replica refused delta %d", step, serial)
			}
		}
		checkState(t, replica, next, frame)
		if primary.StateDigest() != replica.StateDigest() {
			t.Fatalf("step %d: replica digest differs from the primary's", step)
		}
		prev = next
	}
}

// TestSetVRPsRejectsUnsortedAnnounce: an out-of-order input whose misplaced
// entries are all new to the cache is still caught by the fused check.
func TestSetVRPsRejectsUnsortedAnnounce(t *testing.T) {
	a, b, c3, d := vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2), vrp("10.2.0.0/16", 16, 3), vrp("10.3.0.0/16", 16, 4)
	for _, input := range [][]rov.VRP{
		{a, d, c3},       // new entries swapped after a cached one
		{c3, a, b},       // new entry ahead of the cached ones
		{a, b, b},        // duplicate of a cached entry
		{a, c3, c3, d},   // duplicate of a new entry
		{d, c3, b, a},    // reversed
		{a, b, c3, d, a}, // cached entry repeated at the end
	} {
		c := NewCache(1)
		c.SetVRPs([]rov.VRP{a, b})
		c.SetVRPs(input)
		checkStep(t, c, []rov.VRP{a, b}, oracleNormalize(input), 1)
	}
}

// TestSetVRPsDropsOutOfRangeMaxLength: a VRP whose maxLength no prefix PDU
// can carry is dropped at the cache, on the canonical and on the normalizing
// path, instead of being truncated to a byte on the wire — which every
// router rejects, failing its whole snapshot load.
func TestSetVRPsDropsOutOfRangeMaxLength(t *testing.T) {
	good := vrp("10.1.0.0/16", 24, 2)
	for name, input := range map[string][]rov.VRP{
		"canonical":   {vrp("10.0.0.0/8", 300, 1), good},
		"unsorted":    {good, vrp("10.0.0.0/8", 300, 1)},
		"below":       {vrp("10.0.0.0/8", 7, 1), good},
		"v4 above 32": {vrp("10.0.0.0/8", 33, 1), good},
	} {
		t.Run(name, func(t *testing.T) {
			cache := NewCache(3)
			cache.SetVRPs(input)
			client := NewClient(startServer(t, cache))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- client.Run(ctx) }()
			if !client.WaitSynced(3 * time.Second) {
				select {
				case err := <-errc:
					t.Fatalf("router failed its snapshot load: %v", err)
				default:
					t.Fatal("router never synced")
				}
			}
			if got := client.VRPs(); !slices.Equal(got, []rov.VRP{good}) {
				t.Errorf("router holds %v, want exactly %v", got, good)
			}
		})
	}
}

// TestSetVRPsSmallChangeAllocatesOrderDelta is the O(delta) gate noise cannot
// move: at live-RPKI size, a 10-VRP change allocates a few chunks' worth of
// memory, not the set's (the flat cache allocated ≈ 14 MB here).
func TestSetVRPsSmallChangeAllocatesOrderDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-VRP set")
	}
	rng := rand.New(rand.NewSource(200_000))
	full := testUniverse(rng, 200_000)
	c := NewCache(1)
	c.SetVRPs(full)

	allocated := func(next []rov.VRP) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.SetVRPs(next)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Ten adjacent VRPs — one authority's ROAs — sit in one or two chunks.
	at := len(full) / 3
	adjacent := slices.Delete(slices.Clone(full), at, at+10)
	if got := allocated(adjacent); got >= 256<<10 {
		t.Errorf("withdrawing 10 adjacent VRPs of %d allocated %d KiB, want < 256", len(full), got>>10)
	}
	if got := allocated(full); got >= 256<<10 {
		t.Errorf("restoring 10 adjacent VRPs of %d allocated %d KiB, want < 256", len(full), got>>10)
	}
	// Ten VRPs spread over the set touch at most ten chunks (≈ 68 KiB each).
	scattered := make([]rov.VRP, 0, len(full))
	for i, v := range full {
		if i%(len(full)/10) != 7 {
			scattered = append(scattered, v)
		}
	}
	if len(full)-len(scattered) != 10 {
		t.Fatalf("scattered change drops %d VRPs, want 10", len(full)-len(scattered))
	}
	if got := allocated(scattered); got >= 1<<20 {
		t.Errorf("withdrawing 10 scattered VRPs of %d allocated %d KiB, want < 1024", len(full), got>>10)
	}
	checkStep(t, c, full, scattered, 3)
}
