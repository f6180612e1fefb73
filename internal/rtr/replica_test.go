package rtr

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// waitCache blocks until done reports true. It waits on a subscription, as a
// router connection does, not on a clock: the cache rings every subscriber
// after each commit.
func waitCache(t *testing.T, c *Cache, timeout time.Duration, done func() bool) {
	t.Helper()
	sub := c.subscribe("waitCache", nil)
	defer c.unsubscribe(sub)
	deadline := time.After(timeout)
	for !done() {
		select {
		case <-sub.wake:
		case <-deadline:
			t.Fatalf("cache stuck at session %d, serial %d", c.Session(), c.Serial())
		}
	}
}

// waitSerial blocks until the cache reaches at least serial (RFC 1982).
func waitSerial(t *testing.T, c *Cache, serial uint32, timeout time.Duration) {
	t.Helper()
	waitCache(t, c, timeout, func() bool { return !serialAhead(serial, c.Serial()) })
}

// startPrimary serves cache over RTR and returns the server and its address.
func startPrimary(t *testing.T, cache *Cache) (*Server, string) {
	t.Helper()
	srv := NewServer(cache)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr
}

// follow runs rep until the returned stop is called. stop returns once Run
// has, so the replica is away for certain when it does.
func follow(t *testing.T, rep *Replica) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = rep.Run(ctx) }()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

// connect runs one connection of the router until the returned stop is
// called, which returns once Run has.
func connect(t *testing.T, c *Client) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = c.Run(ctx) }()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	return stop
}

func TestReplicaFollowsPrimary(t *testing.T) {
	primary := NewCache(7)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	_, addr := startPrimary(t, primary)

	rep := NewReplica(addr, NewCache(0))
	follow(t, rep)
	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	if rep.Cache().Session() != 7 {
		t.Errorf("replica session = %d, want primary's 7", rep.Cache().Session())
	}

	// Live deltas flow through (two notifies may coalesce into one query).
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("2001:db8::/32", 48, 2)})
	primary.SetVRPs([]rov.VRP{vrp("2001:db8::/32", 48, 2)})
	waitSerial(t, rep.Cache(), 3, 5*time.Second)

	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged from primary")
	}
	if rep.Snapshots() != 1 || rep.Deltas() < 1 || rep.Deltas() > 2 {
		t.Errorf("snapshots=%d deltas=%d, want 1 snapshot and 1 or 2 deltas", rep.Snapshots(), rep.Deltas())
	}
	if rep.Lag() != 0 {
		t.Errorf("Lag() = %d once caught up, want 0", rep.Lag())
	}
}

func TestReplicaResumesAfterReconnect(t *testing.T) {
	primary := NewCache(7)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	srv, addr := startPrimary(t, primary)

	rep := NewReplica(addr, NewCache(0))
	stop := follow(t, rep)
	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	stop()

	// The primary moves on while the replica is away.
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2)})

	follow(t, rep)
	waitSerial(t, rep.Cache(), 2, 5*time.Second)

	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged after resume")
	}
	if srv.Resumptions() != 1 {
		t.Errorf("primary resumptions = %d, want 1 (replica should resume, not reload)", srv.Resumptions())
	}
	if rep.Snapshots() != 1 {
		t.Errorf("replica snapshots = %d, want 1 (resume must not reload)", rep.Snapshots())
	}
}

func TestReplicaOutOfWindowGetsSnapshot(t *testing.T) {
	primary := NewCache(7)
	primary.SetHistoryLimits(1, 0, 0)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	srv, addr := startPrimary(t, primary)

	rep := NewReplica(addr, NewCache(0))
	stop := follow(t, rep)
	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	stop() // returns once the connection is gone, or it would follow the churn live

	// Enough churn that serial 1 ages out of the 1-entry history window.
	for i := 0; i < 4; i++ {
		primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, ipres.ASN(10+i))})
	}

	follow(t, rep)
	waitSerial(t, rep.Cache(), 5, 5*time.Second)

	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged after the out-of-window reload")
	}
	if srv.CacheResets() < 1 {
		t.Errorf("primary cache resets = %d, want >= 1 (out-of-window replica must reload)", srv.CacheResets())
	}
	if rep.Snapshots() != 2 {
		t.Errorf("replica snapshots = %d, want 2", rep.Snapshots())
	}
	if srv.Resumptions() != 0 {
		t.Errorf("primary resumptions = %d, want 0", srv.Resumptions())
	}
}

// TestReplicaFollowsRestartedPrimary: the daemon's session ID is its PID,
// the same again when it restarts as PID 1 in a container, and a restarted
// primary counts from serial 1. The replica, ahead of it under the same
// session, asks from its own serial, is answered Cache Reset, and must take
// the reload at the lower serial: refusing it would leave the replica
// serving the old set for good, with every later notify ending the same way.
func TestReplicaFollowsRestartedPrimary(t *testing.T) {
	primary := NewCache(7)
	for i := 0; i < 3; i++ {
		primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, ipres.ASN(1+i))})
	}
	srv, addr := startPrimary(t, primary)
	rep := NewReplica(addr, NewCache(0))
	follow(t, rep)
	waitSerial(t, rep.Cache(), 3, 5*time.Second)
	_ = srv.Close() // the replica reconnects with backoff

	restarted := NewCache(7)
	restarted.SetVRPs([]rov.VRP{vrp("10.9.0.0/16", 16, 9)}) // serial 1, under the same session
	srv = NewServer(restarted)
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	want := restarted.StateDigest()
	waitCache(t, rep.Cache(), 10*time.Second, func() bool { return rep.Cache().StateDigest() == want })
	if srv.CacheResets() != 1 || srv.Resumptions() != 0 {
		t.Errorf("restarted primary: cache resets %d, resumptions %d; want 1 and 0 (the replica asks from serial 3)", srv.CacheResets(), srv.Resumptions())
	}
	if rep.Snapshots() != 2 {
		t.Errorf("replica snapshots = %d, want 2", rep.Snapshots())
	}
	if rep.Lag() != 0 {
		t.Errorf("Lag() = %d after the reload, want 0: no notify of the restarted primary is ahead", rep.Lag())
	}
}

// TestRouterResumesAgainstReplica is the multi-frontend deployment shape:
// a router that synced against one frontend reconnects to another frontend
// following the same primary, and resumes its session there — the replica
// mirrors session and serial, so the resumption is answered from the
// replica's own delta history.
func TestRouterResumesAgainstReplica(t *testing.T) {
	primary := NewCache(7)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	_, primaryAddr := startPrimary(t, primary)

	rep := NewReplica(primaryAddr, NewCache(0))
	follow(t, rep)
	waitSerial(t, rep.Cache(), 1, 5*time.Second)

	// The router first syncs against the PRIMARY.
	client := NewClient(primaryAddr)
	stop := connect(t, client)
	if !client.WaitSerial(1, 5*time.Second) {
		t.Fatal("client never synced against primary")
	}
	stop()

	// The primary moves on; the replica follows.
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.2.0.0/16", 16, 3)})
	waitSerial(t, rep.Cache(), 2, 5*time.Second)

	// Reconnect the SAME client to a frontend serving the REPLICA cache.
	replicaFront, frontAddr := startPrimary(t, rep.Cache())
	client.addr = frontAddr
	connect(t, client)
	if !client.WaitSerial(2, 5*time.Second) {
		t.Fatal("client never caught up via replica frontend")
	}

	if replicaFront.Resumptions() != 1 {
		t.Errorf("replica frontend resumptions = %d, want 1", replicaFront.Resumptions())
	}
	if client.Resumes() != 1 {
		t.Errorf("client resumes = %d, want 1", client.Resumes())
	}
	assertVRPsEqual(t, client, primary)
}

// TestReplicaCoalescedResume: a replica that resumes across three of the
// primary's serials holds them as one history entry, from the serial it had
// to the one it reached, with the exact net delta in it. A router at the
// entry's start resumes on the replica; a router at a serial inside the
// entry gets Cache Reset and reloads — it is never sent a delta computed
// from a base it does not hold. Both end on the primary's set.
func TestReplicaCoalescedResume(t *testing.T) {
	a, x, y, z := vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2), vrp("10.2.0.0/16", 16, 3), vrp("10.3.0.0/16", 16, 4)
	primary := NewCache(7)
	primary.SetVRPs([]rov.VRP{a}) // serial 1
	primarySrv, primaryAddr := startPrimary(t, primary)

	rep := NewReplica(primaryAddr, NewCache(0))
	stopReplica := follow(t, rep)
	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	front, frontAddr := startPrimary(t, rep.Cache())

	atN := NewClient(frontAddr) // a router at serial 1, on the replica
	stop := connect(t, atN)
	if !atN.WaitSerial(1, 5*time.Second) {
		t.Fatal("router never synced against the replica")
	}
	stop()
	stopReplica()

	primary.SetVRPs([]rov.VRP{a, x}) // serial 2
	atN1 := NewClient(primaryAddr)   // a router at serial 2, on the primary
	stop = connect(t, atN1)
	if !atN1.WaitSerial(2, 5*time.Second) {
		t.Fatal("router never synced against the primary")
	}
	stop()
	primary.SetVRPs([]rov.VRP{a, y})    // serial 3: x withdrawn again
	primary.SetVRPs([]rov.VRP{a, y, z}) // serial 4

	follow(t, rep)
	waitSerial(t, rep.Cache(), 4, 5*time.Second)
	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged after the coalesced resume")
	}
	if n := primarySrv.Resumptions(); n != 1 {
		t.Errorf("primary resumptions = %d, want 1 (the replica)", n)
	}
	entries, _, ok := rep.Cache().deltaEntries(1)
	if !ok || len(entries) != 1 {
		t.Fatalf("replica history from serial 1: %d entries (ok=%v), want one spanning 1 → 4", len(entries), ok)
	}
	if !slices.Equal(entries[0].announced, []rov.VRP{y, z}) || len(entries[0].withdrawn) != 0 {
		t.Errorf("replica entry announces %v, withdraws %v; want the net delta +%v", entries[0].announced, entries[0].withdrawn, []rov.VRP{y, z})
	}

	connect(t, atN)
	if !atN.WaitSerial(4, 5*time.Second) {
		t.Fatal("router at the entry's start never caught up on the replica")
	}
	if atN.Resumes() != 1 || front.Resumptions() != 1 {
		t.Errorf("router at 1: resumes %d, frontend resumptions %d; want 1 and 1", atN.Resumes(), front.Resumptions())
	}
	assertVRPsEqual(t, atN, primary)

	atN1.addr = frontAddr
	connect(t, atN1)
	if !atN1.WaitSerial(4, 5*time.Second) {
		t.Fatal("router inside the entry never caught up on the replica")
	}
	if atN1.Reloads() != 2 || atN1.Resumes() != 0 || front.CacheResets() != 1 {
		t.Errorf("router at 2: reloads %d, resumes %d, frontend cache resets %d; want 2, 0, 1", atN1.Reloads(), atN1.Resumes(), front.CacheResets())
	}
	assertVRPsEqual(t, atN1, primary)
}

// TestReplicaHeapMatchesPrimary: a replica holds its set once, as the
// framed chunks of its Cache, with no router table beside them — within
// 1.1 × what the primary's Cache retains for the same 200,000 VRPs. The
// bound holds the other way too: the primary's first SetVRPs records the
// whole set as a delta, which the history bounds evict at once, and an
// evicted entry must not stay reachable from the history's backing array.
func TestReplicaHeapMatchesPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000-VRP set")
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	full := testUniverse(rand.New(rand.NewSource(200_000)), 200_000)
	before := heap()
	primary := NewCache(7)
	primary.SetVRPs(full)
	primaryHeap := heap() - before
	_, addr := startPrimary(t, primary)

	before = heap()
	rep := NewReplica(addr, NewCache(0))
	stop := follow(t, rep)
	waitSerial(t, rep.Cache(), 1, 30*time.Second)
	stop()
	replicaHeap := heap() - before
	t.Logf("primary retains %d KiB, replica %d KiB for %d VRPs", primaryHeap>>10, replicaHeap>>10, len(full))
	if replicaHeap*10 > primaryHeap*11 || primaryHeap*10 > replicaHeap*11 {
		t.Errorf("replica retains %d KiB, the primary %d KiB: want each within 1.1 × the other", replicaHeap>>10, primaryHeap>>10)
	}
	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest differs from the primary's")
	}
	runtime.KeepAlive(full) // counted in both baselines, so in neither reading
}
