package rtr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// applyOps replays staged prefix PDUs onto set in arrival order: announce
// sets the VRP, withdraw deletes it. This map and this loop were the
// client's table until it moved onto chunks; they stay as its oracle.
func applyOps(set map[rov.VRP]bool, ops []prefixOp) {
	for _, op := range ops {
		if op.announce {
			set[op.vrp] = true
		} else {
			delete(set, op.vrp)
		}
	}
}

// scriptedCache is a cache that has written down everything it will say: a
// PDU stream built response by response, then replayed to a real Client in
// one go over an in-memory connection (play). The client runs on the test's
// goroutine, so its OnSerial callback can hold the table against the oracle
// after every End of Data, and what it wrote — its queries — is checked
// against what the script called for.
type scriptedCache struct {
	t      testing.TB
	client *Client
	// oracle is the table as a map, advanced by applyOps at each End of Data.
	oracle map[rov.VRP]bool
	// replica, when set, is played the same stream after the router, its
	// store a Cache (a Replica's client). At each of its End of Data the
	// Cache's digest must be digests', taken from the router's table at the
	// same point: same session, same serial, and chunk frames concatenating
	// to the prefix-PDU encoding of the router's set.
	replica *Client
	digests [][32]byte

	stream  bytes.Buffer       // the PDUs not yet played
	applied []scriptedResponse // the responses in stream that reach the table, in order
	queries []PDU              // what the router must send while stream plays, after its opening query
	session uint16             // as of the end of stream
	serial  uint32
	// afterForeign: the last response scripted was dropped by the router,
	// which has its Reset Query out already.
	afterForeign bool
}

// scriptedResponse is one scripted response that reaches the table.
type scriptedResponse struct {
	ops    []prefixOp
	reload bool
	serial uint32
}

func newScriptedCache(t testing.TB) *scriptedCache {
	s := &scriptedCache{t: t, client: NewClient("scripted"), oracle: make(map[rov.VRP]bool), session: 7}
	s.client.OnSerial(s.endOfData)
	return s
}

func (s *scriptedCache) write(pdus ...*PDU) {
	s.t.Helper()
	for _, p := range pdus {
		if err := WritePDU(&s.stream, p); err != nil {
			s.t.Fatalf("scripted cache: %v", err)
		}
	}
}

// respond scripts one cache response under the given session: ops as prefix
// PDUs in the order given, End of Data at the next serial.
func (s *scriptedCache) respond(session uint16, ops []prefixOp) {
	s.t.Helper()
	s.write(&PDU{Type: TypeCacheResponse, Session: session})
	for _, op := range ops {
		p := PDU{Type: TypeIPv4Prefix, VRP: op.vrp}
		if op.vrp.Prefix.Family() == ipres.IPv6 {
			p.Type = TypeIPv6Prefix
		}
		if op.announce {
			p.Flags = FlagAnnounce
		}
		s.write(&p)
	}
	s.write(&PDU{Type: TypeEndOfData, Session: session, Serial: s.serial + 1})
}

// notify scripts the Serial Notify that makes the router ask for the next
// response; the first response of a connection answers its opening query.
func (s *scriptedCache) notify() {
	if s.stream.Len() > 0 {
		s.write(&PDU{Type: TypeSerialNotify, Session: s.session, Serial: s.serial + 1})
		s.queries = append(s.queries, PDU{Type: TypeSerialQuery, Session: s.session, Serial: s.serial})
	}
}

// delta scripts ops as the answer to a Serial Query.
func (s *scriptedCache) delta(ops []prefixOp) {
	s.t.Helper()
	s.notify()
	s.respond(s.session, ops)
	s.serial++
	s.applied = append(s.applied, scriptedResponse{ops: ops, serial: s.serial})
}

// reload scripts ops as a full reload: Cache Reset to the router's Serial
// Query, then the answer to its Reset Query. A router that has never synced,
// or has just dropped a foreign response, has the Reset Query out already.
func (s *scriptedCache) reload(ops []prefixOp) {
	s.t.Helper()
	if !s.afterForeign {
		s.notify()
		if s.serial > 0 {
			s.write(&PDU{Type: TypeCacheReset})
			s.queries = append(s.queries, PDU{Type: TypeResetQuery})
		}
	}
	s.afterForeign = false
	s.respond(s.session, ops)
	s.serial++
	s.applied = append(s.applied, scriptedResponse{ops: ops, reload: true, serial: s.serial})
}

// foreign scripts ops as the answer to a Serial Query, but under another
// session: the router must read it to its End of Data, apply nothing of it,
// and send a Reset Query. The cache is under the new session from here on,
// and the next response scripted must be a reload.
func (s *scriptedCache) foreign(ops []prefixOp) {
	s.t.Helper()
	s.notify()
	s.respond(s.session+1, ops)
	s.queries = append(s.queries, PDU{Type: TypeResetQuery})
	s.session++
	s.afterForeign = true
}

// scriptConn replays a PDU stream to whoever reads it and keeps what is
// written to it. Only what Client.sync uses is there.
type scriptConn struct {
	net.Conn
	in  *bytes.Buffer
	out bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// play replays the script to the client as one connection, to its end, and
// checks that every response reached the table (endOfData has checked each
// against the oracle) and that the router sent exactly the queries the
// script called for.
func (s *scriptedCache) play() {
	s.t.Helper()
	open := PDU{Type: TypeResetQuery}
	if s.client.Synced() {
		s.client.mu.Lock()
		open = PDU{Type: TypeSerialQuery, Session: s.client.session, Serial: s.client.serial}
		s.client.mu.Unlock()
	}
	var stream []byte
	if s.replica != nil {
		stream = bytes.Clone(s.stream.Bytes())
	}
	conn := &scriptConn{in: &s.stream}
	err := s.client.sync(context.Background(), conn)
	if !errors.Is(err, io.EOF) {
		s.t.Fatalf("router gave up on the script: %v", err)
	}
	if len(s.applied) > 0 {
		s.t.Fatalf("%d scripted responses never reached the router's table (next: serial %d)", len(s.applied), s.applied[0].serial)
	}
	if s.replica != nil {
		replicaConn := &scriptConn{in: bytes.NewBuffer(stream)}
		if err := s.replica.sync(context.Background(), replicaConn); !errors.Is(err, io.EOF) {
			s.t.Fatalf("replica gave up on the script: %v", err)
		}
		if len(s.digests) > 0 {
			s.t.Fatalf("%d End of Data the router took never reached the replica's cache", len(s.digests))
		}
		if !bytes.Equal(replicaConn.out.Bytes(), conn.out.Bytes()) {
			s.t.Fatal("the replica's queries differ from the router's")
		}
	}
	for i, want := range append([]PDU{open}, s.queries...) {
		got, err := ReadPDU(&conn.out)
		if err != nil || got.Type != want.Type || got.Session != want.Session || got.Serial != want.Serial {
			s.t.Fatalf("router's query %d is %+v (%v), want type %d session %d serial %d", i, got, err, want.Type, want.Session, want.Serial)
		}
	}
	if conn.out.Len() > 0 {
		s.t.Fatalf("router sent %d bytes more than the script called for", conn.out.Len())
	}
	s.stream.Reset()
	s.queries = nil
}

// endOfData is the router's OnSerial: the next scripted response has been
// applied. It holds the table against the oracle: VRPs() is the map sorted,
// canonical, at the scripted serial; the chunks keep the size invariant the
// cache's keep and carry no frame.
func (s *scriptedCache) endOfData(serial uint32) {
	if len(s.applied) == 0 || s.applied[0].serial != serial {
		s.t.Fatalf("router completed serial %d, which the script does not have next", serial)
	}
	next := s.applied[0]
	s.applied = s.applied[1:]
	if s.oracle == nil {
		return
	}
	if next.reload {
		clear(s.oracle)
	}
	applyOps(s.oracle, next.ops)

	want := make([]rov.VRP, 0, len(s.oracle))
	for v := range s.oracle {
		want = append(want, v)
	}
	rov.SortVRPs(want)
	got := s.client.VRPs()
	if !slices.Equal(got, want) {
		s.t.Fatalf("serial %d: router holds %d VRPs, oracle %d", serial, len(got), len(want))
	}
	if !rov.IsCanonical(got) {
		s.t.Fatalf("serial %d: VRPs() is not canonical", serial)
	}
	if s.client.Serial() != serial {
		s.t.Fatalf("router reports serial %d at the End of Data of %d", s.client.Serial(), serial)
	}
	s.client.mu.Lock()
	defer s.client.mu.Unlock()
	if s.replica != nil {
		s.digests = append(s.digests, oracleDigest(s.client.session, serial, oracleFrame(got)))
	}
	checkChunkSizes(s.t, s.client.chunks)
	for k, ch := range s.client.chunks {
		if ch.frame != nil {
			s.t.Fatalf("serial %d: router chunk %d carries a frame", serial, k)
		}
	}
}

// replicaEndOfData is the replica's OnSerial: its Cache must now stand where
// the router's table stood at the same End of Data.
func (s *scriptedCache) replicaEndOfData(serial uint32) {
	if len(s.digests) == 0 {
		s.t.Fatalf("replica completed serial %d, which the router never took", serial)
	}
	want := s.digests[0]
	s.digests = s.digests[1:]
	chunks, _, _ := s.replica.cache.snapshot()
	checkChunkSizes(s.t, chunks)
	if got := s.replica.cache.StateDigest(); got != want || s.replica.cache.Serial() != serial {
		s.t.Fatalf("serial %d: the replica's cache (digest %x, serial %d) is not the router's table (digest %x)", serial, got[:6], s.replica.cache.Serial(), want[:6])
	}
}

// withReplica has the script played to a replica store as well.
func (s *scriptedCache) withReplica() *scriptedCache {
	s.replica = NewReplica("scripted", NewCache(0)).client
	s.replica.OnSerial(s.replicaEndOfData)
	return s
}

// TestClientSetMatchesMapOracle feeds a real Client seeded responses of every
// shape a cache — well-behaved, sloppy or hostile — can give them, and after
// every End of Data holds its chunked table against the map it replaced.
func TestClientSetMatchesMapOracle(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 150
	}
	rng := rand.New(rand.NewSource(21))
	universe := testUniverse(rng, 5000)
	model := make(map[rov.VRP]bool) // the table as the script leaves it, to draw the next response from
	announce := func(i int) prefixOp { return prefixOp{vrp: universe[i], announce: true} }
	withdraw := func(i int) prefixOp { return prefixOp{vrp: universe[i]} }
	// flips is a canonical delta over the given universe positions: the
	// absent ones announced, then the present ones withdrawn, each ascending.
	flips := func(at []int) []prefixOp {
		slices.Sort(at)
		at = slices.Compact(at)
		var ops []prefixOp
		for _, i := range at {
			if !model[universe[i]] {
				ops = append(ops, announce(i))
			}
		}
		for _, i := range at {
			if model[universe[i]] {
				ops = append(ops, withdraw(i))
			}
		}
		return ops
	}
	some := func(n int) []int {
		at := make([]int, n)
		for k := range at {
			at[k] = rng.Intn(len(universe))
		}
		return at
	}
	window := func() []int {
		lo := rng.Intn(len(universe) - chunkVRPs)
		hi := min(len(universe), lo+chunkVRPs+100+rng.Intn(2*chunkVRPs))
		at := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			at = append(at, i)
		}
		return at
	}

	s := newScriptedCache(t).withReplica()
	const kinds = 13
	var seen [kinds]int
	for step := 0; step < steps; step++ {
		kind := rng.Intn(kinds)
		if step == 0 {
			kind = 8 // the first response answers a Reset Query
		}
		seen[kind]++
		var ops []prefixOp
		switch kind {
		case 0, 1: // a canonical delta
			ops = flips(some(1 + rng.Intn(20)))
		case 2: // the same, PDUs shuffled
			ops = flips(some(1 + rng.Intn(40)))
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		case 3: // duplicates, in place and far apart
			ops = flips(some(1 + rng.Intn(20)))
			for k := rng.Intn(len(ops) + 1); k > 0; k-- {
				ops = slices.Insert(ops, rng.Intn(len(ops)+1), ops[rng.Intn(len(ops))])
			}
		case 4: // withdraw of absent, announce of present, and a few real flips
			ops = flips(some(rng.Intn(5)))
			for _, i := range some(1 + rng.Intn(20)) {
				if model[universe[i]] {
					ops = append(ops, announce(i))
				} else {
					ops = append(ops, withdraw(i))
				}
			}
		case 5: // one VRP announced and withdrawn in one response, both orders
			for _, i := range some(1 + rng.Intn(6)) {
				if rng.Intn(2) == 0 {
					ops = append(ops, announce(i), withdraw(i))
				} else {
					ops = append(ops, withdraw(i), announce(i))
				}
			}
			ops = append(ops, flips(some(rng.Intn(5)))...)
			if rng.Intn(2) == 0 {
				slices.SortStableFunc(ops, func(a, b prefixOp) int { return a.vrp.Compare(b.vrp) }) // adjacent pairs, in order
			}
		case 6: // an empty response
		case 7, 8, 12: // a full reload
			if kind == 12 { // brought on by a delta under a foreign session, which is dropped
				s.foreign(flips(some(1 + rng.Intn(20))))
			}
			clear(model)
			for i := range universe {
				if rng.Intn(3) > 0 {
					ops = append(ops, announce(i))
				}
			}
			if kind == 7 { // withdraws mixed in
				for _, i := range some(30) {
					ops = slices.Insert(ops, rng.Intn(len(ops)+1), withdraw(i)) // before its announce, after it, or of nothing
				}
			}
		case 9: // a run of the set withdrawn: chunks emptied
			for _, i := range window() {
				if model[universe[i]] {
					ops = append(ops, withdraw(i))
				}
			}
		case 10: // a run announced where little was: a chunk grown past chunkVRPs
			for _, i := range window() {
				ops = append(ops, announce(i)) // of present ones too
			}
		case 11: // empty <-> full
			full := len(model) <= len(universe)/2
			for i := range universe {
				if full {
					ops = append(ops, announce(i))
				} else if model[universe[i]] {
					ops = append(ops, withdraw(i))
				}
			}
		}
		switch kind {
		case 7, 8, 12:
			s.reload(ops)
		default:
			s.delta(ops)
		}
		applyOps(model, ops)
	}
	for kind, n := range seen {
		if n == 0 {
			t.Errorf("response kind %d never drawn in %d steps", kind, steps)
		}
	}
	s.play()
	if !maps.Equal(s.oracle, model) {
		t.Errorf("the oracle ended on %d VRPs, the script on %d", len(s.oracle), len(model))
	}
	if got, want := s.client.Reloads(), uint64(seen[7]+seen[8]+seen[12]); got != want {
		t.Errorf("Reloads() = %d, want %d", got, want)
	}
	if got, want := s.client.mismatches, uint64(seen[12]); got != want {
		t.Errorf("%d session mismatches counted, want %d", got, want)
	}
}

// TestClientDropsForeignSessionDelta: a cache that answers a Serial Query
// under another session — a frontend restarted with fresh state, say — must
// not have its deltas merged onto the table learned under the old one
// (RFC 8210 §5.1). The router reads the response out, applies none of it,
// and reloads through a Reset Query; until the reload's End of Data it keeps
// serving the old set at the old serial.
func TestClientDropsForeignSessionDelta(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, b, c3 := vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2), vrp("10.2.0.0/16", 16, 3)
	prefix := func(v rov.VRP, flags uint8) *PDU { return &PDU{Type: TypeIPv4Prefix, Flags: flags, VRP: v} }

	dropped := make(chan struct{}) // closed once the client has read the foreign response to its end
	finish := make(chan struct{})
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
			if err := send(&PDU{Type: TypeCacheResponse, Session: 9},
				prefix(a, FlagAnnounce), prefix(b, FlagAnnounce),
				&PDU{Type: TypeEndOfData, Session: 9, Serial: 5},
				&PDU{Type: TypeSerialNotify, Session: 9, Serial: 6}); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Session != 9 || q.Serial != 5 {
				return fmt.Errorf("want serial query 9/5, got %+v, %v", q, err)
			}
			// Session 10 knows nothing of {a, b}: its "delta since 5" is
			// against a set the router never held.
			if err := send(&PDU{Type: TypeCacheResponse, Session: 10},
				prefix(a, 0), prefix(c3, FlagAnnounce),
				&PDU{Type: TypeEndOfData, Session: 10, Serial: 6}); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeResetQuery {
				return fmt.Errorf("after a response under session 10 to a query under session 9: want reset query, got %+v, %v", q, err)
			}
			// A notify the client answers only after it has read that End of
			// Data.
			if err := send(&PDU{Type: TypeSerialNotify, Session: 10, Serial: 7}); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Session != 9 || q.Serial != 5 {
				return fmt.Errorf("before the reload the client is still at 9/5, got %+v, %v", q, err)
			}
			close(dropped)
			<-finish
			return send(&PDU{Type: TypeCacheResponse, Session: 10},
				prefix(b, FlagAnnounce), prefix(c3, FlagAnnounce),
				&PDU{Type: TypeEndOfData, Session: 10, Serial: 7},
				&PDU{Type: TypeCacheResponse, Session: 10}, // the answer to the serial query in between
				&PDU{Type: TypeEndOfData, Session: 10, Serial: 7})
		}()
	}()

	client := NewClient(ln.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = client.Run(ctx) }()

	select {
	case <-dropped:
	case err := <-srvErr:
		t.Fatalf("scripted cache: %v", err)
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{a, b}) || client.Serial() != 5 {
		t.Errorf("after the foreign delta: serial %d, VRPs %v; want the old set %v at serial 5", client.Serial(), got, []rov.VRP{a, b})
	}
	close(finish)
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if !client.WaitSerial(7, 3*time.Second) {
		t.Fatal("reload never applied")
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{b, c3}) {
		t.Errorf("after the reload: %v, want %v", got, []rov.VRP{b, c3})
	}
	if got := client.Reloads(); got != 2 {
		t.Errorf("Reloads() = %d, want 2 (first sync, session change)", got)
	}
}

// feedConn is a connection the test feeds one response at a time: Read
// blocks until the next is handed over, which the feeder can do only once the
// router has acted on everything before it.
type feedConn struct {
	net.Conn
	feed chan []byte
	buf  []byte
}

func (c *feedConn) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		b, ok := <-c.feed
		if !ok {
			return 0, io.EOF
		}
		c.buf = b
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}
func (c *feedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *feedConn) SetWriteDeadline(time.Time) error { return nil }

// TestClientOverlappingRunsShareTheTable: callers cancel one Run and start the
// next without waiting for the first to return (the reconnect tests of
// scale_test.go and replica_test.go do), so for a moment two syncs feed
// one client, the old one draining what its connection had buffered. Each
// must apply its delta to the table as it stands under the lock. A sync that
// worked from the chunk list it read when it started would commit over the
// other's End of Data, and rebuild chunks in storage the other's list still
// held. Two connections take turns, one delta each, over disjoint halves of a
// five-chunk set; the table must end on what both said.
func TestClientOverlappingRunsShareTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := testUniverse(rng, 5*chunkVRPs)
	model := make(map[rov.VRP]bool)
	script := &scriptedCache{t: t, session: 7}
	response := func(ops []prefixOp) []byte {
		script.stream.Reset()
		script.respond(script.session, ops)
		script.serial++
		applyOps(model, ops)
		return bytes.Clone(script.stream.Bytes())
	}
	var snapshot []prefixOp
	for i := 0; i < len(universe); i += 2 {
		snapshot = append(snapshot, prefixOp{vrp: universe[i], announce: true})
	}
	client := NewClient("scripted")
	first := &feedConn{feed: make(chan []byte, 1)}
	first.feed <- response(snapshot)
	close(first.feed)
	if err := client.sync(context.Background(), first); !errors.Is(err, io.EOF) {
		t.Fatalf("loading the set: %v", err)
	}

	// Connection k flips universe positions ≡ k (mod 2) only, ten at a time,
	// anywhere in the set: each delta touches most chunks.
	const rounds = 40
	conns := [2]*feedConn{{feed: make(chan []byte)}, {feed: make(chan []byte)}}
	done := make(chan error, len(conns))
	for _, conn := range conns {
		go func() { done <- client.sync(context.Background(), conn) }()
	}
	for r := 0; r < rounds; r++ {
		for k, conn := range conns {
			var ops []prefixOp
			for n := 0; n < 10; n++ {
				v := universe[2*rng.Intn(len(universe)/2)+k]
				ops = append(ops, prefixOp{vrp: v, announce: !model[v]})
			}
			conn.feed <- response(ops)
		}
	}
	for _, conn := range conns {
		close(conn.feed)
	}
	for range conns {
		if err := <-done; !errors.Is(err, io.EOF) {
			t.Fatalf("router gave up on a connection: %v", err)
		}
	}

	want := make([]rov.VRP, 0, len(model))
	for v := range model {
		want = append(want, v)
	}
	rov.SortVRPs(want)
	if got := client.VRPs(); !slices.Equal(got, want) {
		t.Fatalf("router holds %d VRPs after %d deltas on each connection, both say %d", len(got), rounds, len(want))
	}
	checkChunkSizes(t, client.chunks)
}

// TestWaitSerialWraps: serials are compared in RFC 1982 arithmetic, as
// Cache.applyDelta compares them, so a router that has wrapped past
// 0xFFFFFFFF counts as ahead and one 2³¹ behind does not count as there.
func TestWaitSerialWraps(t *testing.T) {
	for _, tc := range []struct {
		have, want uint32
		reached    bool
	}{
		{5, 5, true},
		{6, 5, true},
		{4, 5, false},
		{0, 0xFFFFFFFF, true},  // wrapped: one ahead
		{3, 0xFFFFFFF0, true},  // wrapped: 19 ahead
		{0xFFFFFFFF, 0, false}, // one behind, across the wrap
		{0xFFFFFFF0, 3, false},
		{0, 0x7FFFFFFF, false}, // 2³¹−1 behind
		{0x80000005, 5, false}, // 2³¹ away is not "reached"
		{0x7FFFFFFF, 0, true},
	} {
		c := NewClient("unused")
		c.serial = tc.have
		if got := c.WaitSerial(tc.want, 0); got != tc.reached {
			t.Errorf("router at %#x, WaitSerial(%#x) = %v, want %v", tc.have, tc.want, got, tc.reached)
		}
	}
}

// TestClientTableShapeAt200k is what the chunked table buys at live-RPKI
// size, as gates noise cannot move: what the router retains, what reading the
// set costs, what a small delta costs, and that the set read is the caller's.
func TestClientTableShapeAt200k(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-VRP set")
	}
	rng := rand.New(rand.NewSource(200_000))
	full := testUniverse(rng, 200_000)
	snapshot := make([]prefixOp, len(full))
	for i, v := range full {
		snapshot[i] = prefixOp{vrp: v, announce: true}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	s := newScriptedCache(t)
	s.oracle = nil // the set is compared once, below: a 200,000-entry map would drown the heap reading
	s.reload(snapshot)
	before := heap()
	s.play()
	// The parent's map held ≈ 1.7 × the bare VRPs; the chunks are the VRPs
	// plus a pointer and two slice headers per 1,024.
	retained, limit := int64(heap()-before), int64(len(full))*48*5/4
	t.Logf("router retains %d KiB for %d VRPs (%d KiB bare)", retained>>10, len(full), len(full)*48>>10)
	if retained > limit {
		t.Errorf("router retains %d KiB for %d VRPs, want <= %d", retained>>10, len(full), limit>>10)
	}
	if n := testing.AllocsPerRun(3, func() { s.client.VRPs() }); n != 1 {
		t.Errorf("VRPs() allocates %v times, want once", n)
	}

	// Ten VRPs spread over the set: ten chunks rebuilt, each in the storage
	// of the one rebuilt before it.
	var ops []prefixOp
	for i := 7; i < len(full); i += len(full) / 10 {
		ops = append(ops, prefixOp{vrp: full[i]})
	}
	if len(ops) != 10 {
		t.Fatalf("scattered delta of %d VRPs, want 10", len(ops))
	}
	s.delta(ops)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.play()
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("withdrawing 10 scattered VRPs of %d allocated %d KiB at the router, want < 1024", len(full), got>>10)
	}

	want := make([]rov.VRP, 0, len(full))
	for i, v := range full {
		if i%(len(full)/10) != 7 {
			want = append(want, v)
		}
	}
	got := s.client.VRPs()
	if !slices.Equal(got, want) {
		t.Fatalf("router holds %d VRPs after the delta, want %d", len(got), len(want))
	}
	for i := range got {
		got[i] = rov.VRP{ASN: 666} // the caller scribbles over what it was given
	}
	if !slices.Equal(s.client.VRPs(), want) {
		t.Error("writing to the slice VRPs() returned changed the router's table")
	}
}

// TestClientRunLeavesNoGoroutine: a connection that ends on its own — the
// cache hangs up — takes everything Run started with it. A Replica calls Run
// again and again under one context, so a goroutine left waiting on that
// context per call would pile up for the life of the process.
func TestClientRunLeavesNoGoroutine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := NewClient(ln.Addr().String())
	before := runtime.NumGoroutine()
	const runs = 100
	for i := 0; i < runs; i++ {
		if err := client.Run(ctx); err == nil {
			t.Fatal("Run against a cache that hangs up returned no error")
		}
	}
	if after := runtime.NumGoroutine(); after >= before+runs/2 {
		t.Errorf("%d goroutines after %d Runs that ended on their own, %d before", after, runs, before)
	}
}

// TestClientOneSerialQueryInFlight: notifies that arrive while a Serial
// Query is out are not each answered with a query of their own from the
// same serial (the cache would answer every one with overlapping deltas).
// The newest is remembered and asked about once, after the End of Data, if
// the cache is still ahead of it.
func TestClientOneSerialQueryInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, b, c3 := vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2), vrp("10.2.0.0/16", 16, 3)
	const session = 9
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
			expect := func(serial uint32) error {
				if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Session != session || q.Serial != serial {
					return fmt.Errorf("want serial query %d/%d, got %+v, %v", session, serial, q, err)
				}
				return nil
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeResetQuery {
				return fmt.Errorf("want reset query, got %+v, %v", q, err)
			}
			// Two notifies before the client could have asked about either:
			// the second reaches it while the first one's query is out.
			if err := send(&PDU{Type: TypeCacheResponse, Session: session},
				&PDU{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: a},
				&PDU{Type: TypeEndOfData, Session: session, Serial: 1},
				&PDU{Type: TypeSerialNotify, Session: session, Serial: 2},
				&PDU{Type: TypeSerialNotify, Session: session, Serial: 3}); err != nil {
				return err
			}
			if err := expect(1); err != nil {
				return err
			}
			// The cache answers as it stood at 2; serial 3 is still ahead.
			if err := send(&PDU{Type: TypeCacheResponse, Session: session},
				&PDU{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: b},
				&PDU{Type: TypeEndOfData, Session: session, Serial: 2}); err != nil {
				return err
			}
			if err := expect(2); err != nil {
				return fmt.Errorf("after End of Data 2, with 3 notified: %w", err)
			}
			if err := send(&PDU{Type: TypeCacheResponse, Session: session},
				&PDU{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: c3},
				&PDU{Type: TypeEndOfData, Session: session, Serial: 3},
				&PDU{Type: TypeSerialNotify, Session: session, Serial: 4}); err != nil {
				return err
			}
			// Nothing was left to ask about at 3: the next query is the
			// answer to notify 4.
			if err := expect(3); err != nil {
				return fmt.Errorf("after End of Data 3 and notify 4: %w", err)
			}
			return send(&PDU{Type: TypeCacheResponse, Session: session},
				&PDU{Type: TypeEndOfData, Session: session, Serial: 4})
		}()
	}()

	client := NewClient(ln.Addr().String())
	connect(t, client)
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if !client.WaitSerial(4, 5*time.Second) {
		t.Fatal("client never reached serial 4")
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{a, b, c3}) {
		t.Errorf("client holds %v, want %v", got, []rov.VRP{a, b, c3})
	}
}

// TestClientHoldsNotifyUntilFirstSync: a notify read during a router's first
// reload is asked about after its End of Data, from the serial it brought.
// Asked about at once, it went out as a Serial Query under session 0, which
// the cache answers with Cache Reset and a second full reload.
func TestClientHoldsNotifyUntilFirstSync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, b := vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2)
	const session = 9
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
			// The cache moved on to 2 while it wrote the reload at 1.
			if err := send(&PDU{Type: TypeCacheResponse, Session: session},
				&PDU{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: a},
				&PDU{Type: TypeSerialNotify, Session: session, Serial: 2},
				&PDU{Type: TypeEndOfData, Session: session, Serial: 1}); err != nil {
				return err
			}
			if q, err := ReadPDU(conn); err != nil || q.Type != TypeSerialQuery || q.Session != session || q.Serial != 1 {
				return fmt.Errorf("want serial query %d/1 after the first End of Data, got %+v, %v", session, q, err)
			}
			return send(&PDU{Type: TypeCacheResponse, Session: session},
				&PDU{Type: TypeIPv4Prefix, Flags: FlagAnnounce, VRP: b},
				&PDU{Type: TypeEndOfData, Session: session, Serial: 2})
		}()
	}()

	client := NewClient(ln.Addr().String())
	connect(t, client)
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if !client.WaitSerial(2, 5*time.Second) {
		t.Fatal("client never reached serial 2")
	}
	if got := client.VRPs(); !slices.Equal(got, []rov.VRP{a, b}) || client.Reloads() != 1 {
		t.Errorf("client holds %v after %d reloads, want %v after 1", got, client.Reloads(), []rov.VRP{a, b})
	}
}
