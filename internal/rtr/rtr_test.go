package rtr

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

func vrp(p string, maxLen int, asn ipres.ASN) rov.VRP {
	return rov.VRP{Prefix: ipres.MustParsePrefix(p), MaxLength: maxLen, ASN: asn}
}

func TestPDURoundTrip(t *testing.T) {
	pdus := []*PDU{
		{Type: TypeSerialNotify, Session: 7, Serial: 42},
		{Type: TypeSerialQuery, Session: 7, Serial: 41},
		{Type: TypeResetQuery},
		{Type: TypeCacheResponse, Session: 7},
		{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: vrp("63.160.0.0/12", 13, 1239)},
		{Type: TypeIPv4Prefix, Flags: 0, VRP: vrp("63.174.16.0/20", 20, 17054)},
		{Type: TypeIPv6Prefix, Flags: FlagAnnounce, VRP: vrp("2001:db8::/32", 48, 64500)},
		{Type: TypeEndOfData, Session: 7, Serial: 42},
		{Type: TypeCacheReset},
		{Type: TypeErrorReport, Session: ErrNoDataAvailable, ErrText: "no data"},
	}
	for _, p := range pdus {
		buf, err := p.Marshal()
		if err != nil {
			t.Fatalf("marshal type %d: %v", p.Type, err)
		}
		got, err := ReadPDU(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("read type %d: %v", p.Type, err)
		}
		if got.Type != p.Type || got.Serial != p.Serial || got.Flags != p.Flags || got.ErrText != p.ErrText {
			t.Errorf("round trip changed PDU: %+v vs %+v", got, p)
		}
		if p.Type == TypeIPv4Prefix || p.Type == TypeIPv6Prefix {
			if got.VRP != p.VRP {
				t.Errorf("VRP changed: %v vs %v", got.VRP, p.VRP)
			}
		}
	}
}

func TestPDURejectsGarbage(t *testing.T) {
	if _, err := ReadPDU(bytes.NewReader([]byte{9, 0, 0, 0, 0, 0, 0, 8})); err == nil {
		t.Error("wrong version must fail")
	}
	if _, err := ReadPDU(bytes.NewReader([]byte{0, 99, 0, 0, 0, 0, 0, 8})); err == nil {
		t.Error("unknown type must fail")
	}
	// Absurd length.
	if _, err := ReadPDU(bytes.NewReader([]byte{0, 4, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Error("absurd length must fail")
	}
	// Marshal rejects family mismatch.
	p := &PDU{Type: TypeIPv4Prefix, VRP: vrp("2001:db8::/32", 32, 1)}
	if _, err := p.Marshal(); err == nil {
		t.Error("family mismatch must fail")
	}
}

func TestCacheDeltas(t *testing.T) {
	c := NewCache(1)
	v1 := vrp("10.0.0.0/8", 8, 1)
	v2 := vrp("10.0.0.0/8", 8, 2)
	c.SetVRPs([]rov.VRP{v1})
	if c.Serial() != 1 || c.Len() != 1 {
		t.Fatalf("serial=%d len=%d", c.Serial(), c.Len())
	}
	c.SetVRPs([]rov.VRP{v1}) // no change, no serial bump
	if c.Serial() != 1 {
		t.Error("identical update must not bump serial")
	}
	c.SetVRPs([]rov.VRP{v2})
	entries, serial, ok := c.deltaEntries(1)
	if !ok || serial != 2 || len(entries) != 1 || len(entries[0].announced) != 1 || len(entries[0].withdrawn) != 1 {
		t.Fatalf("delta: %+v %d %v", entries, serial, ok)
	}
	if entries[0].announced[0] != v2 || entries[0].withdrawn[0] != v1 {
		t.Error("delta content wrong")
	}
	// Current serial: empty delta, still ok.
	entries, _, ok = c.deltaEntries(2)
	if !ok || len(entries) != 0 {
		t.Error("no-op delta wrong")
	}
	// Out-of-window serial: not ok.
	if _, _, ok := c.deltaEntries(99); ok {
		t.Error("future serial should be out of window")
	}
}

func startServer(t *testing.T, cache *Cache) string {
	t.Helper()
	srv := NewServer(cache)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}

func TestClientFullSync(t *testing.T) {
	cache := NewCache(99)
	vrps := []rov.VRP{
		vrp("63.160.0.0/12", 13, 1239),
		vrp("63.174.16.0/20", 20, 17054),
		vrp("2001:db8::/32", 48, 64500),
	}
	cache.SetVRPs(vrps)
	addr := startServer(t, cache)

	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()

	if !client.WaitSynced(3 * time.Second) {
		t.Fatal("client never synced")
	}
	got := client.VRPs()
	if len(got) != 3 {
		t.Fatalf("VRPs = %v", got)
	}
	if client.Serial() != 1 {
		t.Errorf("serial = %d", client.Serial())
	}
}

func TestClientIncrementalUpdate(t *testing.T) {
	cache := NewCache(7)
	v1 := vrp("63.174.16.0/20", 20, 17054)
	v2 := vrp("63.174.16.0/22", 22, 7341)
	cache.SetVRPs([]rov.VRP{v1, v2})
	addr := startServer(t, cache)

	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSynced(3 * time.Second) {
		t.Fatal("initial sync failed")
	}

	// Whack v2: the withdrawal must propagate via serial notify + query.
	cache.SetVRPs([]rov.VRP{v1})
	if !client.WaitSerial(2, 3*time.Second) {
		t.Fatal("incremental update never arrived")
	}
	got := client.VRPs()
	if len(got) != 1 || got[0] != v1 {
		t.Errorf("after withdrawal: %v", got)
	}
}

func TestClientOnSyncCallback(t *testing.T) {
	cache := NewCache(1)
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	addr := startServer(t, cache)

	client := NewClient(addr)
	syncs := make(chan int, 10)
	client.OnSync(func(vrps []rov.VRP) { syncs <- len(vrps) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()

	select {
	case n := <-syncs:
		if n != 1 {
			t.Errorf("first sync had %d VRPs", n)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no sync callback")
	}
}

func TestManyVRPsOverRTR(t *testing.T) {
	cache := NewCache(3)
	var vrps []rov.VRP
	for i := 0; i < 1000; i++ {
		p := ipres.MustPrefixFrom(ipres.AddrFromUint32(uint32(i)<<12), 24)
		vrps = append(vrps, rov.VRP{Prefix: p, MaxLength: 24, ASN: ipres.ASN(i % 50)})
	}
	cache.SetVRPs(vrps)
	addr := startServer(t, cache)
	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSynced(5 * time.Second) {
		t.Fatal("sync failed")
	}
	if got := len(client.VRPs()); got != len(vrps) {
		t.Errorf("VRPs = %d, want %d", got, len(vrps))
	}
}

func TestPDUQuickRoundTrip(t *testing.T) {
	f := func(v uint32, bitsRaw, extraRaw uint8, asn uint32, announce bool) bool {
		bits := int(bitsRaw % 33)
		maxLen := bits + int(extraRaw)%(33-bits)
		prefix, err := ipres.PrefixFrom(ipres.AddrFromUint32(v), bits)
		if err != nil {
			return false
		}
		var flags uint8
		if announce {
			flags = FlagAnnounce
		}
		p := &PDU{Type: TypeIPv4Prefix, Flags: flags,
			VRP: rov.VRP{Prefix: prefix, MaxLength: maxLen, ASN: ipres.ASN(asn)}}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := ReadPDU(bytes.NewReader(buf))
		return err == nil && got.VRP == p.VRP && got.Flags == p.Flags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestClientAppliesResponseAtEndOfData: until End of Data arrives, VRPs() and
// Serial() are the state before the response. A scripted cache withdraws one
// VRP and announces its replacement, then stalls: a router reading its table
// in that gap must not see the withdrawn route's ROA gone with nothing in
// its place (a transient Invalid of the Side Effect 6 kind).
func TestClientAppliesResponseAtEndOfData(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	keep, old, replacement := vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2), vrp("10.1.0.0/16", 24, 2)
	const session = 9
	prefix := func(v rov.VRP, flags uint8) *PDU { return &PDU{Type: TypeIPv4Prefix, Flags: flags, VRP: v} }

	midResponse := make(chan struct{}) // closed once the client has read the whole delta but no End of Data
	finish := make(chan struct{})      // closed to let the cache send End of Data
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			send := func(pdus ...*PDU) error {
				for _, p := range pdus {
					if err := WritePDU(conn, p); err != nil {
						return err
					}
				}
				return nil
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeResetQuery {
				return fmt.Errorf("want reset query, got %+v, %v", q, err)
			}
			if err := send(&PDU{Type: TypeCacheResponse, Session: session},
				prefix(keep, FlagAnnounce), prefix(old, FlagAnnounce),
				&PDU{Type: TypeEndOfData, Session: session, Serial: 1},
				&PDU{Type: TypeSerialNotify, Session: session, Serial: 2}); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Serial != 1 {
				return fmt.Errorf("want serial query at 1, got %+v, %v", q, err)
			}
			// The delta, then a notify the client answers with a query: the
			// client reads PDUs in order, so once that query is here it has
			// consumed the withdraw and the announce.
			if err := send(&PDU{Type: TypeCacheResponse, Session: session},
				prefix(old, 0), prefix(replacement, FlagAnnounce),
				&PDU{Type: TypeSerialNotify, Session: session, Serial: 3}); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Serial != 1 {
				return fmt.Errorf("mid-response the client should still be at serial 1, got %+v, %v", q, err)
			}
			close(midResponse)
			<-finish
			return send(&PDU{Type: TypeEndOfData, Session: session, Serial: 2})
		}()
	}()

	client := NewClient(ln.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()

	select {
	case <-midResponse:
	case err := <-srvErr:
		t.Fatalf("scripted cache: %v", err)
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{keep, old}) || client.Serial() != 1 {
		t.Errorf("mid-response: serial %d, VRPs %v; want the old set %v at serial 1", client.Serial(), got, []rov.VRP{keep, old})
	}
	close(finish)
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if !client.WaitSerial(2, 3*time.Second) {
		t.Fatal("End of Data never applied")
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{keep, replacement}) {
		t.Errorf("after End of Data: %v, want %v", got, []rov.VRP{keep, replacement})
	}
}

// TestClientCapsUnendingResponse: a cache that opens a response and streams
// announces without ever sending End of Data must not grow the router's
// staging slice without bound. Past the cap Run returns an error naming it
// (the caller reconnects), and the router still holds the last End-of-Data
// state.
func TestClientCapsUnendingResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	keep := vrp("10.0.0.0/8", 8, 1)
	const session, limit = 9, 1000
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeResetQuery {
				return fmt.Errorf("want reset query, got %+v, %v", q, err)
			}
			w := bufio.NewWriter(conn)
			for _, p := range []*PDU{
				{Type: TypeCacheResponse, Session: session},
				{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: keep},
				{Type: TypeEndOfData, Session: session, Serial: 1},
				{Type: TypeSerialNotify, Session: session, Serial: 2},
			} {
				if err := WritePDU(w, p); err != nil {
					return err
				}
			}
			if err := w.Flush(); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Serial != 1 {
				return fmt.Errorf("want serial query at 1, got %+v, %v", q, err)
			}
			if err := WritePDU(w, &PDU{Type: TypeCacheResponse, Session: session}); err != nil {
				return err
			}
			// Until the router hangs up. The socket buffers in between take
			// some megabytes after the router stopped reading, so the bound on
			// "still reading" is 64 MiB of 20-byte PDUs, past anything they
			// hold; a router that keeps the connection open without reading
			// runs this writer into the deadline above instead.
			for i := uint32(0); ; i++ {
				v := rov.VRP{Prefix: ipres.MustPrefixFrom(ipres.AddrFromUint32(11<<24|i<<8), 24), MaxLength: 24, ASN: 2}
				if err := WritePDU(w, &PDU{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: v}); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						return fmt.Errorf("router still connected after %d announces: %v", i, err)
					}
					return nil
				}
				if i > 64<<20/20 {
					return fmt.Errorf("router still reading after %d announces", i)
				}
			}
		}()
	}()

	client := NewClient(ln.Addr().String())
	client.responseCap = limit
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = client.Run(ctx)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), fmt.Sprintf("cap of %d prefix PDUs", limit)) {
		t.Fatalf("Run returned %v, want an error naming the cap of %d", err, limit)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{keep}) || client.Serial() != 1 {
		t.Errorf("after the capped response: serial %d, VRPs %v; want %v at serial 1", client.Serial(), got, []rov.VRP{keep})
	}
}

func TestClientRecoversFromOutOfWindowSerial(t *testing.T) {
	cache := NewCache(5)
	cache.maxHist = 1 // tiny history window
	v1 := vrp("10.0.0.0/8", 8, 1)
	v2 := vrp("10.0.0.0/8", 8, 2)
	v3 := vrp("10.0.0.0/8", 8, 3)
	cache.SetVRPs([]rov.VRP{v1})
	addr := startServer(t, cache)
	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSynced(3 * time.Second) {
		t.Fatal("initial sync failed")
	}
	// Two rapid updates age out the delta the client needs; the server
	// must answer its serial query with Cache Reset and the client must
	// recover with a full reload.
	cache.SetVRPs([]rov.VRP{v2})
	cache.SetVRPs([]rov.VRP{v3})
	if !client.WaitSerial(3, 5*time.Second) {
		t.Fatal("client never caught up after cache reset")
	}
	got := client.VRPs()
	if len(got) != 1 || got[0] != v3 {
		t.Errorf("after recovery: %v", got)
	}
}

func TestServerRejectsUnsupportedPDU(t *testing.T) {
	cache := NewCache(1)
	addr := startServer(t, cache)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a Cache Response (a server→client PDU) as a query.
	if err := WritePDU(conn, &PDU{Type: TypeCacheResponse}); err != nil {
		t.Fatal(err)
	}
	p, err := ReadPDU(conn)
	if err != nil {
		t.Fatal(err)
	}
	if p.Type != TypeErrorReport || p.Session != ErrUnsupportedPDU {
		t.Errorf("want error report, got %+v", p)
	}
}

func TestCacheSubscribeNotify(t *testing.T) {
	cache := NewCache(1)
	sub := cache.subscribe("test", nil)
	defer cache.unsubscribe(sub)
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	select {
	case <-sub.wake:
		if serial := sub.pending.Load(); serial != 1 {
			t.Errorf("serial = %d", serial)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification")
	}
}

func TestErrorReportRoundTripEmpty(t *testing.T) {
	p := &PDU{Type: TypeErrorReport, Session: ErrInternal, ErrText: ""}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPDU(bytes.NewReader(buf))
	if err != nil || got.ErrText != "" || got.Session != ErrInternal {
		t.Errorf("got %+v, %v", got, err)
	}
}

// TestSetVRPsCanonicalNoOp: SetVRPs normalizes its input, so the same set
// shuffled and with duplicates is a true no-op — no serial bump, no delta.
func TestSetVRPsCanonicalNoOp(t *testing.T) {
	c := NewCache(1)
	v1 := vrp("10.0.0.0/8", 8, 1)
	v2 := vrp("10.1.0.0/16", 24, 2)
	v3 := vrp("2001:db8::/32", 48, 3)
	c.SetVRPs([]rov.VRP{v1, v2, v3})
	if c.Serial() != 1 {
		t.Fatalf("serial = %d", c.Serial())
	}
	c.SetVRPs([]rov.VRP{v3, v1, v2, v1, v3}) // shuffled + duplicated
	if c.Serial() != 1 {
		t.Errorf("reordered duplicate update bumped serial to %d", c.Serial())
	}
	if entries, _, _ := c.HistoryStats(); entries != 1 {
		t.Errorf("history entries = %d, want 1", entries)
	}
}

// TestSetVRPsUnchangedCanonicalAllocatesNothing: the set rp hands over is
// canonical, and handing over the same one again costs no allocation.
func TestSetVRPsUnchangedCanonicalAllocatesNothing(t *testing.T) {
	c := NewCache(1)
	set := []rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 24, 2), vrp("2001:db8::/32", 48, 3)}
	if !rov.IsCanonical(set) {
		t.Fatal("test set is not canonical")
	}
	c.SetVRPs(set)
	if n := testing.AllocsPerRun(100, func() { c.SetVRPs(set) }); n != 0 {
		t.Errorf("SetVRPs of the unchanged canonical set allocates %v times", n)
	}
	if c.Serial() != 1 {
		t.Errorf("serial = %d, want 1", c.Serial())
	}
}

// TestSetVRPsDoesNotAliasCaller: the canonical path diffs the caller's slice
// in place, but what the cache stores is its own copy.
func TestSetVRPsDoesNotAliasCaller(t *testing.T) {
	c := NewCache(1)
	set := []rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 24, 2)}
	c.SetVRPs(set)
	want := c.StateDigest()
	set[1] = vrp("192.0.2.0/24", 24, 666) // the caller reuses its slice
	// Against an aliased store this set would now differ from the cache's.
	c.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 24, 2)})
	if got := c.StateDigest(); got != want || c.Serial() != 1 {
		t.Errorf("caller's write reached the cache: serial %d, digest %x, want 1, %x", c.Serial(), got[:6], want[:6])
	}
}

// TestCacheHistoryBounds: the delta history stays inside every configured
// bound no matter how many updates flow through, and out-of-window serial
// queries fall back to Cache Reset.
func TestCacheHistoryBounds(t *testing.T) {
	c := NewCache(1)
	c.SetHistoryLimits(8, 40, 1<<30)
	for i := 0; i < 100; i++ {
		c.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, ipres.ASN(i+1))})
		entries, vrpsN, bytes := c.HistoryStats()
		if entries > 8 || vrpsN > 40 {
			t.Fatalf("update %d: history entries=%d vrps=%d bytes=%d exceeds bounds", i, entries, vrpsN, bytes)
		}
	}
	if c.Serial() != 100 {
		t.Fatalf("serial = %d", c.Serial())
	}
	// A serial inside the retained window replays deltas.
	if _, _, ok := c.deltaFrames(99); !ok {
		t.Error("recent serial should be in window")
	}
	// A serial older than the window is refused (server answers CacheReset).
	if _, _, ok := c.deltaFrames(5); ok {
		t.Error("ancient serial should be out of window")
	}

	// The byte budget alone must also bound the history.
	cb := NewCache(2)
	cb.SetHistoryLimits(1<<30, 1<<30, 200)
	for i := 0; i < 50; i++ {
		cb.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, ipres.ASN(i+1))})
		if _, _, bytes := cb.HistoryStats(); bytes > 200 {
			t.Fatalf("update %d: history bytes=%d exceeds budget", i, bytes)
		}
	}
}

// TestRTRManyClientsFanOut: one cache serves a full snapshot and a
// subsequent minimal delta to 100 concurrent clients, every client
// converging on the same canonical VRP set. The snapshot and delta frames
// are serialized once and shared; per-client work is only the writes.
func TestRTRManyClientsFanOut(t *testing.T) {
	const nClients = 100
	cache := NewCache(42)
	var vrps []rov.VRP
	for i := 0; i < 500; i++ {
		p := ipres.MustPrefixFrom(ipres.AddrFromUint32(0x0a000000+uint32(i)<<8), 24)
		vrps = append(vrps, rov.VRP{Prefix: p, MaxLength: 24, ASN: ipres.ASN(i%64 + 1)})
	}
	cache.SetVRPs(vrps)
	addr := startServer(t, cache)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = NewClient(addr)
		go func(c *Client) { _ = c.Run(ctx) }(clients[i])
	}
	for i, c := range clients {
		if !c.WaitSynced(10 * time.Second) {
			t.Fatalf("client %d never synced", i)
		}
		if got := len(c.VRPs()); got != len(vrps) {
			t.Fatalf("client %d: %d VRPs, want %d", i, got, len(vrps))
		}
	}

	// One "module" worth of change: drop two VRPs, add one.
	next := append([]rov.VRP{}, vrps[:len(vrps)-2]...)
	extra := rov.VRP{Prefix: ipres.MustParsePrefix("192.0.2.0/24"), MaxLength: 24, ASN: 64500}
	next = append(next, extra)
	cache.SetVRPs(next)
	if entries, _, _ := cache.HistoryStats(); entries != 2 {
		t.Fatalf("history entries = %d, want 2", entries)
	}

	want := append([]rov.VRP{}, next...)
	rov.SortVRPs(want)
	for i, c := range clients {
		if !c.WaitSerial(2, 10*time.Second) {
			t.Fatalf("client %d never saw the delta", i)
		}
		got := c.VRPs()
		if len(got) != len(want) {
			t.Fatalf("client %d: %d VRPs after delta, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("client %d: VRP[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}
