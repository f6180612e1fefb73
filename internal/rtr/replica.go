package rtr

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Replica is a stateless RTR frontend: an RTR client of a primary
// validator's ordinary Server whose store is a local Cache rather than a
// router's table. The Cache takes the primary's session, serial and
// canonical VRP set, byte-identical, so the frontend can serve routers (and
// accept their session resumptions) without running a validator of its own.
// To the primary a replica is one more router: it is counted in
// Resumptions and CacheResets, evicted if it stalls, and sent the cache's
// shared frames.
type Replica struct {
	client  *Client
	reconns atomic.Uint64
}

// NewReplica creates a replica of the primary whose RTR server listens at
// addr, mirroring into cache. The cache's own session ID is irrelevant: the
// first reload adopts the primary's.
func NewReplica(addr string, cache *Cache) *Replica {
	c := NewClient(addr)
	c.cache = cache
	return &Replica{client: c}
}

// Cache returns the mirrored cache (serve RTR from it).
func (r *Replica) Cache() *Cache { return r.client.cache }

// Lag reports how many serials the mirrored cache trails the newest serial
// the primary announced in a Serial Notify (0 when idle or caught up).
func (r *Replica) Lag() uint32 {
	r.client.mu.Lock()
	seen := r.client.notified
	r.client.mu.Unlock()
	if applied := r.client.cache.Serial(); serialAhead(seen, applied) {
		return seen - applied
	}
	return 0
}

// Deltas reports deltas committed to the cache; Snapshots reports reloads
// committed; Reconnects reports connection attempts after the first.
func (r *Replica) Deltas() uint64 {
	r.client.mu.Lock()
	defer r.client.mu.Unlock()
	return r.client.deltas
}
func (r *Replica) Snapshots() uint64  { return r.client.Reloads() }
func (r *Replica) Reconnects() uint64 { return r.reconns.Load() }

// Instrument registers the replica's metrics on the hub (the mirrored
// cache's Instrument is separate). Call once, before Run.
func (r *Replica) Instrument(hub *obs.Hub) {
	reg := hub.Registry()
	if r == nil || reg == nil {
		return
	}
	reg.GaugeFunc("rpki_rtr_replica_lag_serials",
		"Serials the replica's mirrored cache trails the primary's newest Serial Notify.",
		func() float64 { return float64(r.Lag()) })
	reg.CounterFunc("rpki_rtr_replica_deltas_total",
		"Deltas from the primary committed to the mirrored cache.",
		func() float64 { return float64(r.Deltas()) })
	reg.CounterFunc("rpki_rtr_replica_snapshots_total",
		"Full reloads from the primary committed to the mirrored cache.",
		func() float64 { return float64(r.Snapshots()) })
	reg.CounterFunc("rpki_rtr_replica_reconnects_total",
		"Connection attempts to the primary after the first.",
		func() float64 { return float64(r.Reconnects()) })
}

// Run follows the primary until ctx is canceled, reconnecting with backoff
// (100 ms, doubling to 5 s) whenever the connection ends. A reconnect
// resumes from the replica's serial when the primary still retains that
// window; otherwise the primary answers Cache Reset and the replica
// reloads. Run returns ctx.Err() on cancellation.
func (r *Replica) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for first := true; ; first = false {
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
		_ = r.client.Run(ctx) // the connection ended: reconnect and resync
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}
