package rtr

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Replica follows a primary validator's cache over the replication stream
// and mirrors it into a local Cache — session, serial, and canonical VRP
// set byte-identical to the primary — so a stateless RTR frontend can serve
// routers (and accept their session resumptions) without running a
// validator of its own.
type Replica struct {
	addr  string
	cache *Cache

	// primed flips after the first snapshot or delta lands; a primed
	// replica reconnects with HaveState and resumes from its serial.
	primed atomic.Bool
	// lastSeen is the newest serial observed on the wire (possibly ahead of
	// the cache while a burst is being applied); lag = lastSeen − applied.
	lastSeen  atomic.Uint32
	deltas    atomic.Uint64
	snapshots atomic.Uint64
	reconns   atomic.Uint64
}

// NewReplica creates a replica of the primary at addr, mirroring into
// cache. The cache's own session ID is irrelevant: the first snapshot
// adopts the primary's.
func NewReplica(addr string, cache *Cache) *Replica {
	return &Replica{addr: addr, cache: cache}
}

// Cache returns the mirrored cache (serve RTR from it).
func (r *Replica) Cache() *Cache { return r.cache }

// Lag reports how many serials the mirrored cache trails the newest serial
// seen on the wire (0 when idle or fully applied).
func (r *Replica) Lag() uint32 {
	seen := r.lastSeen.Load()
	applied := r.cache.Serial()
	if d := seen - applied; d < 1<<31 && d > 0 {
		return d
	}
	return 0
}

// Deltas reports applied delta frames; Snapshots reports applied snapshot
// frames; Reconnects reports connection attempts after the first.
func (r *Replica) Deltas() uint64     { return r.deltas.Load() }
func (r *Replica) Snapshots() uint64  { return r.snapshots.Load() }
func (r *Replica) Reconnects() uint64 { return r.reconns.Load() }

// Instrument registers the replica's metrics on the hub (the mirrored
// cache's Instrument is separate). Call once, before Run.
func (r *Replica) Instrument(hub *obs.Hub) {
	reg := hub.Registry()
	if r == nil || reg == nil {
		return
	}
	reg.GaugeFunc("rpki_rtr_replica_lag_serials",
		"Serials the replica's mirrored cache trails the primary stream.",
		func() float64 { return float64(r.Lag()) })
	reg.CounterFunc("rpki_rtr_replica_deltas_total",
		"Delta frames applied from the primary.",
		func() float64 { return float64(r.Deltas()) })
	reg.CounterFunc("rpki_rtr_replica_snapshots_total",
		"Snapshot frames applied from the primary.",
		func() float64 { return float64(r.Snapshots()) })
	reg.CounterFunc("rpki_rtr_replica_reconnects_total",
		"Replication reconnect attempts after the initial connection.",
		func() float64 { return float64(r.Reconnects()) })
}

// Run follows the primary until ctx is canceled, reconnecting with backoff
// on stream errors. A reconnect resumes from the replica's serial when the
// primary still retains the window; otherwise the primary streams a fresh
// snapshot. Run returns ctx.Err() on cancellation.
func (r *Replica) Run(ctx context.Context) error {
	first := true
	backoff := 100 * time.Millisecond
	for {
		if !first {
			r.reconns.Add(1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
		}
		first = false
		err := r.follow(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = err // stream error: reconnect and resync
	}
}

// FollowOnce runs a single connection lifetime (tests exercise resume and
// gap handling through it).
func (r *Replica) FollowOnce(ctx context.Context) error { return r.follow(ctx) }

func (r *Replica) follow(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return fmt.Errorf("rtr: replica dial %s: %w", r.addr, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return fmt.Errorf("rtr: replica arming write deadline: %w", err)
	}
	hello := ReplHello{HaveState: r.primed.Load()}
	if hello.HaveState {
		_, hello.Serial, hello.Session = r.cache.snapshot()
	}
	if _, err := conn.Write(AppendHelloFrame(nil, hello)); err != nil {
		return fmt.Errorf("rtr: replica hello: %w", err)
	}

	// Reads stay unbounded by design: a replica legitimately idles until
	// the primary pushes the next delta.
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		typ, payload, err := ReadReplicationFrame(br)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("rtr: replica read: %w", err)
		}
		switch typ {
		case ReplTypeSnapshot:
			session, serial, vrps, err := ParseReplicationSnapshot(payload)
			if err != nil {
				return err
			}
			r.lastSeen.Store(serial)
			r.cache.applySnapshot(session, serial, vrps)
			r.primed.Store(true)
			r.snapshots.Add(1)
		case ReplTypeDelta:
			serial, announced, withdrawn, err := ParseReplicationDelta(payload)
			if err != nil {
				return err
			}
			r.lastSeen.Store(serial)
			if !r.cache.applyDelta(serial, announced, withdrawn) {
				// Serial gap: this replica missed a frame. Reconnect; the
				// primary will resume or re-snapshot as its window allows.
				return fmt.Errorf("rtr: replica serial gap at %d (have %d)", serial, r.cache.Serial())
			}
			r.primed.Store(true)
			r.deltas.Add(1)
		default:
			return fmt.Errorf("rtr: replica: unexpected frame type %d", typ)
		}
	}
}
