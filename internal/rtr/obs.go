package rtr

// Observability wiring for the RTR cache and server (a replica adds its own
// in replica.go): connected-client and queue-depth gauges collected at
// scrape time (the fan-out hot path is untouched), counters for updates,
// evictions, rejections, resumptions, and cache resets, and a
// delta-propagation latency histogram measuring SetVRPs-to-router-notified
// per client — the metric a Stalloris victim would watch climb.

import (
	"repro/internal/obs"
)

// rtrMetrics holds the cache's metric handles; the cache carries it behind
// an atomic pointer (nil when uninstrumented) so hot paths reach a counter
// without locking.
type rtrMetrics struct {
	updates     *obs.Counter
	propagation *obs.Histogram
	// evictions counts slow-consumer terminations, labeled by reason
	// ("write-stall", "queue-full").
	evictions   *obs.CounterVec
	rejections  *obs.Counter
	resumptions *obs.Counter
	cacheResets *obs.Counter
}

// Instrument registers the cache's metrics on the hub. Call once, before
// the cache serves connections; a nil hub is a no-op.
func (c *Cache) Instrument(hub *obs.Hub) {
	r := hub.Registry()
	if c == nil || r == nil {
		return
	}
	met := &rtrMetrics{
		updates: r.Counter("rpki_rtr_updates_total",
			"Cache updates that changed the VRP set (serial bumps)."),
		propagation: r.Histogram("rpki_rtr_delta_propagation_seconds",
			"Latency from a VRP delta entering the cache to a client's serial notify being flushed.",
			obs.DurationBuckets()),
		evictions: r.CounterVec("rpki_rtr_evictions_total",
			"Connections terminated for slow consumption, by reason.", "reason"),
		rejections: r.Counter("rpki_rtr_rejections_total",
			"Connections refused over the MaxClients cap."),
		resumptions: r.Counter("rpki_rtr_resumptions_total",
			"Reconnecting clients that resumed their session from the delta history."),
		cacheResets: r.Counter("rpki_rtr_cache_resets_total",
			"Serial queries answered with Cache Reset (session mismatch or serial out of window)."),
	}
	r.GaugeFunc("rpki_rtr_connected_clients", "RTR connections currently served.",
		func() float64 { return float64(c.subscriberCount()) })
	r.GaugeFunc("rpki_rtr_serial", "Current cache serial number.",
		func() float64 { return float64(c.Serial()) })
	r.GaugeFunc("rpki_rtr_vrps", "VRPs currently served by the cache.",
		func() float64 { return float64(c.Len()) })
	// Aggregate queue-depth gauges: per-client labels would mint 10k+ label
	// values at fleet scale, so the scrape reports the sum and the worst
	// consumer instead.
	r.GaugeFunc("rpki_rtr_send_queue_depth_total",
		"Sum of pending responses across all connection send queues.",
		func() float64 { total, _ := c.queueDepthStats(); return float64(total) })
	r.GaugeFunc("rpki_rtr_send_queue_depth_max",
		"Deepest single connection send queue (the slowest consumer).",
		func() float64 { _, max := c.queueDepthStats(); return float64(max) })
	c.met.Store(met)
}
