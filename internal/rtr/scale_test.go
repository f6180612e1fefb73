package rtr

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/rov"
)

// manyVRPs builds n distinct VRPs (used to make snapshot frames large
// enough to overflow a small kernel send buffer).
func manyVRPs(n int) []rov.VRP {
	out := make([]rov.VRP, 0, n)
	for i := 0; i < n; i++ {
		p := ipres.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		out = append(out, rov.VRP{Prefix: p, MaxLength: 24, ASN: ipres.ASN(64500 + i)})
	}
	return out
}

// dialSmallWindow connects with SO_RCVBUF set before the handshake. The
// receive window is advertised at connect (tcp_rmem's default, 128 KiB on
// Linux 6.x) and SetReadBuffer on the connected socket does not take it
// back, so only a pre-connect setting makes a stalled reader independent of
// kernel defaults.
func dialSmallWindow(addr string, rcvbuf int) (net.Conn, error) {
	d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvbuf)
		}); err != nil {
			return err
		}
		return serr
	}}
	return d.Dial("tcp", addr)
}

// awaitEviction polls until the server has evicted a slow consumer.
func awaitEviction(srv *Server, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for srv.Evictions() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return srv.Evictions() > 0
}

// TestSlowConsumerEvicted: a client that requests the snapshot and then
// stops reading must be evicted on a write stall — and a healthy client on
// the same server must keep receiving deltas undisturbed while the stalled
// one wedges.
func TestSlowConsumerEvicted(t *testing.T) {
	cache := NewCache(7)
	cache.SetVRPs(manyVRPs(2000)) // ~40 KiB snapshot frame

	srv := NewServer(cache)
	srv.WriteTimeout = 200 * time.Millisecond
	srv.WriteBuffer = 4 << 10 // snapshot cannot fit the kernel buffer
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Healthy client, synced and following.
	healthy := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = healthy.Run(ctx) }()
	if !healthy.WaitSerial(1, 5*time.Second) {
		t.Fatal("healthy client never synced")
	}

	// Stalled client: asks for the snapshot, reads nothing. Its receive
	// buffer is pinned small so the unread snapshot wedges the server's
	// write instead of draining into kernel buffering.
	stalled, err := dialSmallWindow(addr, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := WritePDU(stalled, &PDU{Type: TypeResetQuery}); err != nil {
		t.Fatal(err)
	}

	// Churn while the stalled client wedges its writer.
	base := manyVRPs(1990)
	for i := 0; i < 5; i++ {
		churn := append(base[:1990:1990], vrp("192.168.0.0/24", 24, ipres.ASN(65000+i)))
		cache.SetVRPs(churn)
	}

	if !awaitEviction(srv, 5*time.Second) {
		t.Fatal("stalled client never evicted")
	}

	// The healthy client must still track the cache.
	if !healthy.WaitSerial(cache.Serial(), 5*time.Second) {
		t.Fatalf("healthy client stuck at %d, cache at %d", healthy.Serial(), cache.Serial())
	}
	assertVRPsEqual(t, healthy, cache)
}

// TestFleetScale1000 holds the piecewise guarantees together at fleet size:
// 1,000 routers, a replica frontend and one stalled connection share a
// cache's listener while ten single-announcement deltas go out, each awaited
// on every router so no two serials coalesce. At the end the stalled
// connection has been evicted, every router holds exactly the cache's set,
// the replica's state digest is the primary's, and the whole fleet, still
// connected, fits the
// heap budget — clients included, so the server's share is less (measured:
// 262 MiB, almost all of it the routers' own VRP maps).
func TestFleetScale1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-router fleet in -short mode")
	}
	const routers, deltas = 1000, 10
	base := manyVRPs(2000)
	cache := NewCache(7)
	cache.SetVRPs(base)
	srv := NewServer(cache)
	srv.WriteTimeout = 2 * time.Second
	srv.WriteBuffer = 8 << 10 // a stalled router stalls the write, not server memory
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	replica := NewReplica(addr, NewCache(0)) // to the primary, one more router
	follow(t, replica)
	fleet := make([]*Client, 0, routers)
	awaitFleet := func() {
		t.Helper()
		for i, c := range fleet {
			if !c.WaitSerial(cache.Serial(), 30*time.Second) {
				t.Fatalf("router %d stuck at serial %d, cache at %d (%d evictions)",
					i, c.Serial(), cache.Serial(), srv.Evictions())
			}
		}
	}
	// The fleet connects in waves of 100. All at once, a thousand routers
	// parsing their snapshots can keep a writer goroutine off two cores past
	// WriteTimeout under -race, and a healthy router is evicted for it.
	for len(fleet) < routers {
		c := NewClient(addr)
		go func() { _ = c.Run(ctx) }()
		if fleet = append(fleet, c); len(fleet)%100 == 0 {
			awaitFleet()
		}
	}

	// The stalled router asks for the snapshot and never reads it.
	stalled, err := dialSmallWindow(addr, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := WritePDU(stalled, &PDU{Type: TypeResetQuery}); err != nil {
		t.Fatal(err)
	}

	for d := 1; d <= deltas; d++ {
		base = append(base, vrp(fmt.Sprintf("198.18.%d.0/24", d), 24, ipres.ASN(64900+d)))
		cache.SetVRPs(base)
		awaitFleet()
	}

	if !awaitEviction(srv, 10*time.Second) {
		t.Error("stalled router never evicted")
	}
	for _, c := range fleet {
		assertVRPsEqual(t, c, cache)
	}
	waitSerial(t, replica.Cache(), cache.Serial(), 10*time.Second)
	if replica.Cache().StateDigest() != cache.StateDigest() {
		t.Error("replica state digest diverged from primary")
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("HeapInuse %d MiB with the fleet connected, %d evictions", ms.HeapInuse>>20, srv.Evictions())
	if ms.HeapInuse > 512<<20 {
		t.Errorf("HeapInuse %d MiB with the fleet connected, budget 512 MiB", ms.HeapInuse>>20)
	}
}

// TestDisconnectIsNotEviction: a router that syncs and then simply hangs
// up is not a slow consumer. The writer must notice the reader's exit on its
// own — releasing the subscriber slot before any further delta is published
// — and neither the hang-up nor the next delta may count an eviction.
func TestDisconnectIsNotEviction(t *testing.T) {
	cache := NewCache(7)
	cache.SetVRPs(manyVRPs(10))
	srv := NewServer(cache)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	router := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = router.Run(ctx)
	}()
	if !router.WaitSerial(cache.Serial(), 5*time.Second) {
		t.Fatal("router never synced")
	}
	if n := cache.subscriberCount(); n != 1 {
		t.Fatalf("subscriberCount = %d with one router connected, want 1", n)
	}
	cancel()
	<-done

	deadline := time.Now().Add(5 * time.Second)
	for cache.subscriberCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := cache.subscriberCount(); n != 0 {
		t.Fatalf("subscriber slot still held after the router hung up (%d subscribers)", n)
	}
	cache.SetVRPs(manyVRPs(11))
	if n := srv.Evictions(); n != 0 {
		t.Errorf("Evictions() = %d after a plain disconnect and a delta, want 0", n)
	}
}

// TestQueueFullEviction: a client that floods queries without draining
// responses fills its bounded send queue and is evicted rather than
// buffered without bound.
func TestQueueFullEviction(t *testing.T) {
	// Small answers: the few the writer gets out before the verdict fit any
	// kernel's socket buffers, so the writer is never wedged in a write
	// (under the 30 s deadline below) when the eviction is posted.
	cache := NewCache(7)
	cache.SetVRPs(manyVRPs(100))

	srv := NewServer(cache)
	srv.SendQueue = 1
	srv.WriteTimeout = 30 * time.Second // stall detection via the queue, not the deadline
	srv.WriteBuffer = 4 << 10
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Flood reset queries in one segment, never read: the reader answers
	// them back to back from its buffer, far faster than the writer can put
	// one answer on the socket, so the one-slot queue overflows.
	var flood []byte
	for i := 0; i < 100; i++ {
		flood = append(flood, mustMarshal(&PDU{Type: TypeResetQuery})...)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(flood); err != nil {
		t.Fatal(err)
	}
	if !awaitEviction(srv, 5*time.Second) {
		t.Fatal("query-flooding client never evicted")
	}
}

func TestMaxClientsRejected(t *testing.T) {
	cache := NewCache(7)
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	srv := NewServer(cache)
	srv.MaxClients = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var keep []*Client
	for i := 0; i < 2; i++ {
		c := NewClient(addr)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { _ = c.Run(ctx) }()
		if !c.WaitSynced(5 * time.Second) {
			t.Fatalf("client %d never synced", i)
		}
		keep = append(keep, c)
	}

	// The third connection is answered with an Error PDU and closed.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	p, err := ReadPDU(conn)
	if err != nil {
		t.Fatalf("over-cap connection: %v", err)
	}
	if p.Type != TypeErrorReport {
		t.Errorf("over-cap answer type = %d, want error report", p.Type)
	}
	if srv.Rejections() != 1 {
		t.Errorf("rejections = %d, want 1", srv.Rejections())
	}
	_ = keep
}

// assertVRPsEqual compares a client's canonical VRP set against the
// cache's.
func assertVRPsEqual(t *testing.T, c *Client, cache *Cache) {
	t.Helper()
	want, _, _ := cache.snapshotVRPs()
	got := c.VRPs()
	if len(got) != len(want) {
		t.Fatalf("client has %d VRPs, cache has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VRP %d: client %v, cache %v", i, got[i], want[i])
		}
	}
}

// TestSessionResumption: a reconnecting client with a valid session/serial
// replays only the missed deltas — one resume, no second full reload.
func TestSessionResumption(t *testing.T) {
	cache := NewCache(7)
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	srv := NewServer(cache)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSerial(1, 5*time.Second) {
		t.Fatal("initial sync failed")
	}
	cancel() // connection drops

	// Two deltas happen while the router is away.
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2)})
	cache.SetVRPs([]rov.VRP{vrp("10.1.0.0/16", 16, 2), vrp("2001:db8::/32", 48, 3)})

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = client.Run(ctx2) }()
	if !client.WaitSerial(3, 5*time.Second) {
		t.Fatal("resume never caught up")
	}

	if client.Resumes() != 1 {
		t.Errorf("client resumes = %d, want 1", client.Resumes())
	}
	if client.Reloads() != 1 {
		t.Errorf("client reloads = %d, want 1 (the initial sync only)", client.Reloads())
	}
	if srv.Resumptions() != 1 {
		t.Errorf("server resumptions = %d, want 1", srv.Resumptions())
	}
	assertVRPsEqual(t, client, cache)
}

// TestResumeOutOfWindow: a serial older than the retained history window
// must be answered with Cache Reset and a full snapshot reload — never a
// partial replay.
func TestResumeOutOfWindow(t *testing.T) {
	cache := NewCache(7)
	cache.SetHistoryLimits(1, 0)
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	srv := NewServer(cache)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSerial(1, 5*time.Second) {
		t.Fatal("initial sync failed")
	}
	cancel()

	// Enough churn that serial 1 ages out of the 1-entry window.
	for i := 0; i < 4; i++ {
		cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, ipres.ASN(10+i))})
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = client.Run(ctx2) }()
	if !client.WaitSerial(5, 5*time.Second) {
		t.Fatal("out-of-window reconnect never caught up")
	}

	if client.Resumes() != 0 {
		t.Errorf("client resumes = %d, want 0 (out of window must not partially replay)", client.Resumes())
	}
	if client.Reloads() != 2 {
		t.Errorf("client reloads = %d, want 2 (initial + post-reset)", client.Reloads())
	}
	if srv.CacheResets() == 0 {
		t.Error("server answered no cache reset")
	}
	assertVRPsEqual(t, client, cache)
}

// TestResumeAcrossSetVRPsRace: reconnecting while the cache is being
// updated concurrently must never skip or duplicate a delta — after the
// dust settles the client's canonical VRP set equals the cache's exactly.
func TestResumeAcrossSetVRPsRace(t *testing.T) {
	cache := NewCache(7)
	cache.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	srv := NewServer(cache)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewClient(addr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSerial(1, 5*time.Second) {
		t.Fatal("initial sync failed")
	}
	cancel()

	// Churn storm racing the reconnect.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			set := []rov.VRP{vrp("10.0.0.0/8", 8, 1)}
			for j := 0; j <= i%7; j++ {
				set = append(set, vrp(fmt.Sprintf("172.16.%d.0/24", j), 24, ipres.ASN(100+i)))
			}
			cache.SetVRPs(set)
		}
	}()

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = client.Run(ctx2) }()

	wg.Wait()
	final := cache.Serial()
	if !client.WaitSerial(final, 10*time.Second) {
		t.Fatalf("client stuck at %d, cache at %d", client.Serial(), final)
	}
	assertVRPsEqual(t, client, cache)
}

// TestPropagationSamplesPerNotify: the delta-propagation histogram takes one
// sample per router per commit, when that router's notify is flushed, and
// none for a replica's reload, which is not a delta.
func TestPropagationSamplesPerNotify(t *testing.T) {
	cache := NewCache(7)
	hub := obs.NewHub(nil)
	cache.Instrument(hub)
	cache.SetVRPs(manyVRPs(10)) // serial 1, before any router: no sample
	_, addr := startPrimary(t, cache)
	routers := []*Client{NewClient(addr), NewClient(addr)}
	for _, r := range routers {
		connect(t, r)
	}
	// A router at serial s has been sent every notify up to s: the writer
	// samples a notify before it writes the answer to the query it prompts.
	await := func(serial uint32) {
		t.Helper()
		for i, r := range routers {
			if !r.WaitSerial(serial, 5*time.Second) {
				t.Fatalf("router %d stuck at serial %d, want %d", i, r.Serial(), serial)
			}
		}
	}
	samples := func() float64 {
		n, ok := hub.Registry().Sample("rpki_rtr_delta_propagation_seconds_count")
		if !ok {
			t.Fatal("no rpki_rtr_delta_propagation_seconds_count series")
		}
		return n
	}
	await(1)
	if n := cache.subscriberCount(); n != len(routers) {
		t.Fatalf("subscriberCount = %d, want %d", n, len(routers))
	}
	before := samples()

	cache.SetVRPs(manyVRPs(11))
	await(2)
	if got := samples() - before; got != float64(len(routers)) {
		t.Errorf("one SetVRPs with %d routers added %v propagation samples, want %d", len(routers), got, len(routers))
	}

	cache.applySnapshot(7, 3, manyVRPs(12))
	await(3)
	if got := samples() - before; got != float64(len(routers)) {
		t.Errorf("a replica reload added %v propagation samples, want 0", got-float64(len(routers)))
	}
}
