package rtr

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

func TestReplicationFrameRoundTrip(t *testing.T) {
	vrps := []rov.VRP{
		vrp("63.160.0.0/12", 13, 1239),
		vrp("63.174.16.0/20", 20, 17054),
		vrp("2001:db8::/32", 48, 64500),
	}

	hello := ReplHello{Session: 7, Serial: 42, HaveState: true}
	buf := AppendHelloFrame(nil, hello)
	typ, payload, err := ReadReplicationFrame(bytes.NewReader(buf))
	if err != nil || typ != ReplTypeHello {
		t.Fatalf("hello frame: type=%d err=%v", typ, err)
	}
	gotHello, err := ParseReplicationHello(payload)
	if err != nil || gotHello != hello {
		t.Fatalf("hello round trip: %+v err=%v", gotHello, err)
	}

	buf = AppendSnapshotFrame(nil, 7, 42, vrps)
	typ, payload, err = ReadReplicationFrame(bytes.NewReader(buf))
	if err != nil || typ != ReplTypeSnapshot {
		t.Fatalf("snapshot frame: type=%d err=%v", typ, err)
	}
	session, serial, gotVRPs, err := ParseReplicationSnapshot(payload)
	if err != nil || session != 7 || serial != 42 || len(gotVRPs) != len(vrps) {
		t.Fatalf("snapshot round trip: session=%d serial=%d n=%d err=%v", session, serial, len(gotVRPs), err)
	}
	for i := range vrps {
		if gotVRPs[i] != vrps[i] {
			t.Errorf("snapshot VRP %d: got %v want %v", i, gotVRPs[i], vrps[i])
		}
	}

	buf = AppendDeltaFrame(nil, 43, vrps[:2], vrps[2:])
	typ, payload, err = ReadReplicationFrame(bytes.NewReader(buf))
	if err != nil || typ != ReplTypeDelta {
		t.Fatalf("delta frame: type=%d err=%v", typ, err)
	}
	dSerial, ann, wd, err := ParseReplicationDelta(payload)
	if err != nil || dSerial != 43 || len(ann) != 2 || len(wd) != 1 {
		t.Fatalf("delta round trip: serial=%d ann=%d wd=%d err=%v", dSerial, len(ann), len(wd), err)
	}
	if ann[0] != vrps[0] || ann[1] != vrps[1] || wd[0] != vrps[2] {
		t.Error("delta VRP content changed in round trip")
	}

	// Empty lists are legal (a serial bump whose records were all withdrawn
	// then re-announced elsewhere).
	buf = AppendDeltaFrame(nil, 44, nil, nil)
	_, payload, err = ReadReplicationFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, ann, wd, err := ParseReplicationDelta(payload); err != nil || len(ann) != 0 || len(wd) != 0 {
		t.Fatalf("empty delta: %d/%d err=%v", len(ann), len(wd), err)
	}
}

func TestReplicationDecoderLimits(t *testing.T) {
	// A declared payload length over the hard limit must be rejected before
	// any allocation.
	hdr := make([]byte, replHeaderLen)
	hdr[0], hdr[1], hdr[2] = replMagic, replVersion, ReplTypeSnapshot
	binary.BigEndian.PutUint32(hdr[4:], MaxReplicationPayload+1)
	if _, _, err := ReadReplicationFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized declared payload must fail")
	}

	// Bad magic / version.
	if _, _, err := ReadReplicationFrame(bytes.NewReader([]byte{'X', 1, 1, 0, 0, 0, 0, 0})); err == nil {
		t.Error("bad magic must fail")
	}
	if _, _, err := ReadReplicationFrame(bytes.NewReader([]byte{replMagic, 99, 1, 0, 0, 0, 0, 0})); err == nil {
		t.Error("bad version must fail")
	}

	// Snapshot whose record count exceeds the payload must fail without
	// allocating count VRPs.
	snap := make([]byte, 10)
	binary.BigEndian.PutUint32(snap[6:], 0xFFFFFFFF)
	if _, _, _, err := ParseReplicationSnapshot(snap); err == nil {
		t.Error("absurd record count must fail")
	}

	// Delta whose joint counts overflow the payload.
	del := make([]byte, 12)
	binary.BigEndian.PutUint32(del[4:], 0x80000000)
	binary.BigEndian.PutUint32(del[8:], 0x80000000)
	if _, _, _, err := ParseReplicationDelta(del); err == nil {
		t.Error("joint count overflow must fail")
	}

	// Bad record family.
	rec := AppendSnapshotFrame(nil, 1, 1, []rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	rec[replHeaderLen+10] = 5 // family byte of the first record
	if _, _, _, err := ParseReplicationSnapshot(rec[replHeaderLen:]); err == nil {
		t.Error("bad family must fail")
	}

	// Trailing garbage after the declared records.
	trail := AppendSnapshotFrame(nil, 1, 1, nil)
	trail = append(trail, 0xAA)
	binary.BigEndian.PutUint32(trail[4:], uint32(len(trail)-replHeaderLen))
	if _, _, _, err := ParseReplicationSnapshot(trail[replHeaderLen:]); err == nil {
		t.Error("trailing bytes must fail")
	}

	// Max length below prefix bits.
	bad := AppendSnapshotFrame(nil, 1, 1, []rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	bad[replHeaderLen+12] = 4 // max-length byte < prefix bits
	if _, _, _, err := ParseReplicationSnapshot(bad[replHeaderLen:]); err == nil {
		t.Error("max length below prefix bits must fail")
	}
}

// waitSerial polls until the cache reaches at least serial.
func waitSerial(t *testing.T, c *Cache, serial uint32, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Serial() >= serial {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cache stuck at serial %d, want >= %d", c.Serial(), serial)
}

func startReplication(t *testing.T, cache *Cache) (*ReplicationServer, string) {
	t.Helper()
	rs := NewReplicationServer(cache)
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rs.Close() })
	return rs, addr
}

func TestReplicaFollowsPrimary(t *testing.T) {
	primary := NewCache(7)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	_, addr := startReplication(t, primary)

	rep := NewReplica(addr, NewCache(0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = rep.Run(ctx) }()

	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	if rep.Cache().Session() != 7 {
		t.Errorf("replica session = %d, want primary's 7", rep.Cache().Session())
	}

	// Live deltas flow through.
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("2001:db8::/32", 48, 2)})
	primary.SetVRPs([]rov.VRP{vrp("2001:db8::/32", 48, 2)})
	waitSerial(t, rep.Cache(), 3, 5*time.Second)

	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged from primary")
	}
	if rep.Snapshots() != 1 || rep.Deltas() < 2 {
		t.Errorf("snapshots=%d deltas=%d, want 1 snapshot and >=2 deltas", rep.Snapshots(), rep.Deltas())
	}
	cancel()
	<-done
}

func TestReplicaResumesAfterReconnect(t *testing.T) {
	primary := NewCache(7)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	rs, addr := startReplication(t, primary)

	rep := NewReplica(addr, NewCache(0))
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = rep.FollowOnce(ctx) }()
	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	cancel() // drop the connection

	// The primary moves on while the replica is away.
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.1.0.0/16", 16, 2)})

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = rep.FollowOnce(ctx2) }()
	waitSerial(t, rep.Cache(), 2, 5*time.Second)

	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged after resume")
	}
	if rs.Resumptions() != 1 {
		t.Errorf("server resumptions = %d, want 1 (replica should resume, not re-snapshot)", rs.Resumptions())
	}
	if rep.Snapshots() != 1 {
		t.Errorf("replica snapshots = %d, want 1 (resume must not re-snapshot)", rep.Snapshots())
	}
}

func TestReplicaOutOfWindowGetsSnapshot(t *testing.T) {
	primary := NewCache(7)
	primary.SetHistoryLimits(1, 0, 0)
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1)})
	rs, addr := startReplication(t, primary)

	rep := NewReplica(addr, NewCache(0))
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan struct{})
	go func() { defer close(gone); _ = rep.FollowOnce(ctx) }()
	waitSerial(t, rep.Cache(), 1, 5*time.Second)
	cancel()
	<-gone // or the dying connection follows the churn live and the reconnect is in window

	// Enough churn that serial 1 ages out of the 1-entry history window.
	for i := 0; i < 4; i++ {
		primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, ipres.ASN(10+i))})
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = rep.FollowOnce(ctx2) }()
	waitSerial(t, rep.Cache(), 5, 5*time.Second)

	if primary.StateDigest() != rep.Cache().StateDigest() {
		t.Error("replica state digest diverged after out-of-window re-snapshot")
	}
	if rs.Snapshots() < 2 {
		t.Errorf("server snapshots = %d, want >= 2 (out-of-window replica needs a fresh one)", rs.Snapshots())
	}
	if rs.Resumptions() != 0 {
		t.Errorf("server resumptions = %d, want 0", rs.Resumptions())
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
	_, replAddr := startReplication(t, primary)

	rep := NewReplica(replAddr, NewCache(0))
	repCtx, repCancel := context.WithCancel(context.Background())
	defer repCancel()
	go func() { _ = rep.Run(repCtx) }()
	waitSerial(t, rep.Cache(), 1, 5*time.Second)

	// The router first syncs against a frontend serving the PRIMARY cache.
	primaryAddr := startServer(t, primary)
	client := NewClient(primaryAddr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { _ = client.Run(ctx) }()
	if !client.WaitSerial(1, 5*time.Second) {
		t.Fatal("client never synced against primary")
	}
	cancel()

	// The primary moves on; the replica follows.
	primary.SetVRPs([]rov.VRP{vrp("10.0.0.0/8", 8, 1), vrp("10.2.0.0/16", 16, 3)})
	waitSerial(t, rep.Cache(), 2, 5*time.Second)

	// Reconnect the SAME client to a frontend serving the REPLICA cache.
	replicaFront := NewServer(rep.Cache())
	frontAddr, err := replicaFront.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = replicaFront.Close() })
	client.addr = frontAddr
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() { _ = client.Run(ctx2) }()
	if !client.WaitSerial(2, 5*time.Second) {
		t.Fatal("client never caught up via replica frontend")
	}

	if replicaFront.Resumptions() != 1 {
		t.Errorf("replica frontend resumptions = %d, want 1", replicaFront.Resumptions())
	}
	if client.Resumes() != 1 {
		t.Errorf("client resumes = %d, want 1", client.Resumes())
	}
	// Canonical VRP equality against the primary: the gate that matters.
	want, _, _ := primary.snapshotVRPs()
	got := client.VRPs()
	if len(got) != len(want) {
		t.Fatalf("client has %d VRPs, primary has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("VRP %d: client %v, primary %v", i, got[i], want[i])
		}
	}
}
