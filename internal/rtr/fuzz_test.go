package rtr

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// FuzzRTRRead drives ReadPDU with arbitrary wire bytes — the router side of
// the protocol reads from a cache it does not control, so a malformed frame
// must produce an error, never a panic (the ErrorReport length-overflow
// regression in pdu_regress_test.go came from exactly this surface). A PDU
// that decodes must survive a marshal/re-read round trip.
func FuzzRTRRead(f *testing.F) {
	seedPDUs := []*PDU{
		{Type: TypeSerialNotify, Session: 7, Serial: 42},
		{Type: TypeResetQuery},
		{Type: TypeCacheResponse, Session: 7},
		{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: rov.VRP{
			Prefix: ipres.MustParsePrefix("63.160.0.0/12"), MaxLength: 13, ASN: 1239}},
		{Type: TypeEndOfData, Session: 7, Serial: 42},
		{Type: TypeErrorReport, Session: ErrCorruptData, ErrText: "bad pdu"},
	}
	for _, p := range seedPDUs {
		buf, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// The two minimized ErrorReport overflow crashers.
	f.Add([]byte{0, 10, 0, 0, 0, 0, 0, 16, 0xFF, 0xFF, 0xFF, 0xF8, 0, 0, 0, 0})
	f.Add([]byte{0, 10, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xF8})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPDU(bytes.NewReader(data))
		if err != nil {
			return
		}
		buf, err := p.Marshal()
		if err != nil {
			t.Fatalf("decoded PDU does not re-marshal: %v", err)
		}
		q, err := ReadPDU(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-marshaled PDU does not re-read: %v", err)
		}
		if q.Type != p.Type || q.Serial != p.Serial || q.ErrText != p.ErrText {
			t.Fatalf("round trip mismatch: %+v vs %+v", p, q)
		}
	})
}

// fuzzRecord is the size of one record in FuzzCacheSetVRPs's input: a
// control byte, four address bytes, length, maxLength, ASN.
const fuzzRecord = 8

// fuzzBase is the set both of FuzzCacheSetVRPs's inputs start from: three
// chunks of /24s under 10.0.0.0/8, so the records land inside, between and
// across chunks.
var fuzzBase = func() []rov.VRP {
	out := make([]rov.VRP, 3*chunkVRPs-100)
	for i := range out {
		out[i] = rov.VRP{Prefix: ipres.MustPrefixFrom(ipres.AddrFromUint32(10<<24|uint32(i)<<10), 24), MaxLength: 24, ASN: 1}
	}
	return out
}()

// decodeFuzzVRP maps a record onto a VRP under 10.0.0.0/8 (so it interleaves
// with fuzzBase) or 2001:db8::/32. The maxLength byte is taken as it stands
// when the control byte says so, which yields VRPs no prefix PDU can carry;
// a control byte of 0xC0 or above yields the invalid zero prefix.
func decodeFuzzVRP(b []byte) rov.VRP {
	asn := ipres.ASN(b[7] % 4)
	if b[0] >= 0xC0 {
		return rov.VRP{ASN: asn}
	}
	var p ipres.Prefix
	if b[0]&1 == 1 {
		a := [16]byte{0x20, 0x01, 0x0d, 0xb8, b[1], b[2], b[3], b[4]}
		p = ipres.MustPrefixFrom(ipres.AddrFrom16(a), 32+int(b[5])%97)
	} else {
		p = ipres.MustPrefixFrom(ipres.AddrFrom4([4]byte{10, b[2], b[3], b[4]}), 8+int(b[5])%25)
	}
	maxLen := p.Bits() + int(b[6])%(p.Family().Width()-p.Bits()+1)
	if b[0]&0x20 != 0 {
		maxLen = int(b[6]) * 2
	}
	return rov.VRP{Prefix: p, MaxLength: maxLen, ASN: asn}
}

// FuzzCacheSetVRPs reads the input as records that each add a VRP to the
// first set, the second, or both, or cut a run out of the second set's copy
// of fuzzBase, then feeds one cache the first set and the second and holds
// it against the flat oracle after each. The first byte's top bit chooses
// whether the sets arrive as built (unsorted: the normalizing path) or
// sorted with their unencodable entries left in (the fused check's path).
// Both are diffed split (diffChunks) at a seam the input chooses: its
// trailing partial record, if two bytes or more, read as a position in the
// set, and otherwise the set's middle. The sets are far below splitDiffMin.
func FuzzCacheSetVRPs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0, 0, 2, 0, 16, 0, 1})                                         // one /24 into the first set, inside chunk 0
	f.Add([]byte{0x82, 0, 0x0f, 0x77, 0, 16, 0, 2, 0x82, 0, 0x0f, 0x79, 0, 16, 0, 3}) // sorted; announces either side of the first chunk boundary
	f.Add([]byte{0x06, 0, 0, 0, 200, 255, 0, 0, 0x06, 0, 0, 3, 0, 255, 0, 0})         // two whacks, one across chunks
	f.Add([]byte{0xa4, 0, 1, 2, 0, 16, 150, 1, 0xC4, 0, 0, 0, 0, 0, 0, 0})            // sorted; a maxLength of 300 and an invalid prefix in both sets
	f.Add([]byte{0x82, 0, 0x0f, 0x77, 0, 16, 0, 2, 0x03, 0xde})                       // sorted; an announce just below the second chunk's head, split there
	f.Fuzz(func(t *testing.T, data []byte) {
		sorted := len(data) > 0 && data[0]&0x80 != 0
		seam := -1
		if rest := data[len(data)/fuzzRecord*fuzzRecord:]; len(rest) >= 2 {
			seam = int(rest[0])<<8 | int(rest[1])
		}
		first := slices.Clone(fuzzBase)
		var second []rov.VRP
		whacked := make([]bool, len(fuzzBase))
		for ; len(data) >= fuzzRecord; data = data[fuzzRecord:] {
			switch v := decodeFuzzVRP(data); data[0] >> 1 & 3 {
			case 0:
				first = append(first, v)
			case 1:
				second = append(second, v)
			case 2:
				first, second = append(first, v), append(second, v)
			default:
				lo := (int(data[3])<<8 | int(data[4])) % len(fuzzBase)
				for i := lo; i < min(len(fuzzBase), lo+int(data[5])*8); i++ {
					whacked[i] = true
				}
			}
		}
		for i, v := range fuzzBase {
			if !whacked[i] {
				second = append(second, v)
			}
		}
		if sorted {
			slices.SortFunc(first, rov.VRP.Compare)
			slices.SortFunc(second, rov.VRP.Compare)
		}
		at := func(set []rov.VRP) int {
			if seam < 0 {
				return len(set) / 2
			}
			return seam % (len(set) + 1)
		}
		c := NewCache(1)
		c.setVRPs(first, at(first))
		checkStep(t, c, nil, oracleNormalize(first), 0)
		serial := c.Serial()
		c.setVRPs(second, at(second))
		checkStep(t, c, oracleNormalize(first), oracleNormalize(second), serial)
	})
}

// FuzzClientResponse reads the input as records that script a cache: prefix
// PDUs (single VRPs, or runs of fuzzBase's /24s announced or withdrawn whole)
// and markers that end the response and say how the next one arrives — as a
// delta, after a Cache Reset, or under a foreign session (dropped by the
// router, which then reloads). A real Client that starts from a snapshot of
// fuzzBase is played the script and held, after every End of Data, against
// the map the chunked table replaced; a Replica's client, its store a Cache,
// is played the same script and held against the router at each End of
// Data: the same session and serial, and chunk frames that concatenate to
// the prefix-PDU encoding of the router's set.
func FuzzClientResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0, 0, 2, 0, 16, 0, 1, 0x00, 0, 0, 2, 0, 16, 0, 1})                                // withdraw then announce of one VRP
	f.Add([]byte{0x00, 0, 0, 2, 0, 16, 0, 1, 0x04, 0, 0, 2, 0, 16, 0, 1})                                // announce then withdraw
	f.Add([]byte{0x09, 0, 0, 0, 0, 200, 0, 0, 0x0a, 0, 0, 0, 0, 0, 0, 0, 0x08, 0, 0, 0, 100, 255, 0, 0}) // a whack across chunks, then part of it back
	f.Fuzz(func(t *testing.T, data []byte) {
		const delta, reload, foreign = 5, 6, 7 // the markers: how the next response arrives
		s := newScriptedCache(t).withReplica()
		var ops []prefixOp
		for _, v := range fuzzBase {
			ops = append(ops, prefixOp{vrp: v, announce: true})
		}
		how := reload
		end := func(next int) {
			switch how {
			case delta:
				s.delta(ops)
			case reload:
				s.reload(ops)
			case foreign:
				s.foreign(ops)
				next = reload
			}
			ops, how = nil, next
		}
		end(delta)
		for ; len(data) >= fuzzRecord; data = data[fuzzRecord:] {
			switch kind := int(data[0] >> 1 & 7); kind {
			case 0, 1, 2, 3:
				rec := [fuzzRecord]byte(data[:fuzzRecord])
				rec[0] &= 1 // the family bit only: every VRP on this wire is encodable
				ops = append(ops, prefixOp{vrp: decodeFuzzVRP(rec[:]), announce: kind < 2})
			case 4:
				lo := (int(data[3])<<8 | int(data[4])) % len(fuzzBase)
				for i := lo; i < min(len(fuzzBase), lo+int(data[5])*8); i++ {
					ops = append(ops, prefixOp{vrp: fuzzBase[i], announce: data[0]&1 == 0})
				}
			default:
				end(kind)
			}
		}
		end(reload)
		if how == reload && s.afterForeign {
			end(delta) // a script may not end on a dropped response: the reload it called for
		}
		s.play()
	})
}
