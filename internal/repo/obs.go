package repo

// Observability wiring for the repository client: scrape-time metrics over
// the counters the client already keeps (no new hot-path work), per-point
// breaker state gauges collected on scrape, and flight-recorder events for
// retries, breaker transitions and fast-fails.

import (
	"strings"

	"repro/internal/obs"
)

// breakerEventKinds maps every breaker state to the flight-recorder event
// recorded when a breaker enters it — the rpki-lint metricscoverage rule
// keeps this table exhaustive, so adding a state without an event kind is
// a build-time lint failure, not a silent observability gap.
var breakerEventKinds = map[BreakerState]obs.EventKind{
	BreakerClosed:   obs.EventBreakerClosed,
	BreakerOpen:     obs.EventBreakerOpen,
	BreakerHalfOpen: obs.EventBreakerHalfOpen,
}

// Instrument attaches the observability plane to the client: retry, dial,
// connection-reuse, peer-move, request, listing-mismatch, feed-skip, feed-lie,
// breaker-trip, fast-fail and bytes-fetched series are read from the client's atomic
// counters at scrape time (zero added cost per request), per-point breaker states are collected on scrape, and every
// retry and breaker transition drops an event into the flight recorder.
// Call once, before the client serves requests; a nil hub is a no-op.
func (c *Client) Instrument(hub *obs.Hub) {
	r := hub.Registry()
	if c == nil || r == nil {
		return
	}
	c.rec = hub.Recorder()
	r.CounterFunc("rpki_repo_retries_total",
		"Repository requests retried after a transport failure.",
		func() float64 { return float64(c.retries.Load()) })
	r.CounterFunc("rpki_repo_fetched_bytes_total",
		"Object bytes fetched from repositories.",
		func() float64 { return float64(c.fetchedBytes.Load()) })
	r.CounterFunc("rpki_repo_dials_total",
		"Connections dialed to publication points (dials per sync is what connection reuse saves).",
		func() float64 { return float64(c.dials.Load()) })
	r.CounterFunc("rpki_repo_conn_reuses_total",
		"Fetches served on a parked connection to the peer their host is known to reach, instead of a dial.",
		func() float64 { return float64(c.reuses.Load()) })
	r.CounterFunc("rpki_repo_peer_moves_total",
		"Dials that reached another peer than their host's previous dial: the name moved, or is being steered.",
		func() float64 { return float64(c.peerMoves.Load()) })
	r.CollectCounters("rpki_repo_requests_total",
		"Request lines sent to publication points, by verb.",
		[]string{"verb"}, func(emit obs.Emit) {
			for v, name := range verbs {
				emit(float64(c.requests[v].Load()), strings.ToLower(name))
			}
		})
	r.CounterFunc("rpki_repo_listing_mismatch_total",
		"GET replies that were not the object their point's listing promised: a body of another digest, or no well-formed reply (the point republished mid-sync, lies, or the stream is out of step).",
		func() float64 { return float64(c.listingMismatches.Load()) })
	r.CounterFunc("rpki_repo_feed_skips_total",
		"Points returned unchanged, with no round trip, because their peer's VERSIONS feed vouched for the token of the snapshot held.",
		func() float64 { return float64(c.feedSkips.Load()) })
	r.CounterFunc("rpki_repo_feed_lies_total",
		"Audit listings that found changed content under the token a peer's VERSIONS feed was vouching for: the peer says unchanged when it is not.",
		func() float64 { return float64(c.feedLies.Load()) })
	r.CounterFunc("rpki_repo_breaker_trips_total",
		"Circuit-breaker transitions to open.",
		func() float64 { return float64(c.Breakers.Trips()) })
	r.CounterFunc("rpki_repo_breaker_fast_fails_total",
		"Requests refused while a publication point's breaker was open.",
		func() float64 { return float64(c.Breakers.FastFails()) })
	r.CollectGauges("rpki_repo_breaker_state",
		"Circuit-breaker state per publication point (0 closed, 1 open, 2 half-open).",
		[]string{"point"}, func(emit obs.Emit) {
			for key, state := range c.Breakers.States() {
				emit(float64(state), key)
			}
		})
	rec := c.rec
	c.Breakers.Observe(
		func(key string, from, to BreakerState) {
			rec.Recordf(breakerEventKinds[to], key, "breaker %s -> %s", from, to)
		},
		func(key string) {
			rec.Record(obs.EventBreakerFastFail, key, "request refused while breaker open")
		})
}

// countBytes accounts object content fetched from the network. One atomic
// add; nil-safe via the zero value of the counter.
func (c *Client) countBytes(n int) {
	if c != nil {
		c.fetchedBytes.Add(int64(n))
	}
}

// recordRetry drops one retry event into the flight recorder (no-op when
// the client is uninstrumented).
func (c *Client) recordRetry(key string, err error) {
	if c == nil || c.rec == nil {
		return
	}
	c.rec.Recordf(obs.EventRetry, key, "retrying after: %v", err)
}
