package attack

import (
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rp"
)

// The Stalloris campaign (arXiv:2205.06064): a repository does not need to
// be down to hurt a relying party — merely slow, at the right moments. Each
// scenario here plays a delay game tuned against one rung of the
// degradation ladder (per-request deadlines, retry policy, circuit
// breakers, last-known-good fallback) and asserts the relying party reaches
// a defined terminal state instead of stalling.

func stallScenarios() []Scenario {
	return []Scenario{
		{
			Name:  "stalloris/slow-loris",
			Paper: "Stalloris (arXiv:2205.06064) §5",
			Layer: "request deadline + circuit breaker",
			Doc:   "child point trickles one byte per interval; the RP must cut each request at its deadline, trip the breaker, and degrade",
			Run:   runSlowLoris,
		},
		{
			Name:  "stalloris/adaptive-ramp",
			Paper: "Stalloris (arXiv:2205.06064) §5.2",
			Layer: "request deadline",
			Doc:   "attacker ramps delay from just-under to far-over the deadline; the RP serves clean while under, degrades (never hangs) once over",
			Run:   runAdaptiveRamp,
		},
		{
			Name:  "stalloris/probe-timing-game",
			Paper: "Stalloris (arXiv:2205.06064) §6",
			Layer: "breaker probation",
			Doc:   "point serves exactly the half-open probe and stalls everything after; probation must re-open on one failure, admitting no second request",
			Run:   runProbeTimingGame,
		},
		{
			Name:  "stalloris/multipoint-stall",
			Paper: "Stalloris (arXiv:2205.06064) §7",
			Layer: "LKG store",
			Doc:   "coordinated stall of every publication point at once; the RP must serve last-known-good data for all of them (stale, not down), from the memo without revalidating",
			Run:   runMultipointStall,
		},
		{
			Name:  "stalloris/downgrade-to-stale",
			Paper: "Stalloris (arXiv:2205.06064) §7 + paper §4 (Side Effect 7)",
			Layer: "LKG StaleTTL",
			Doc:   "attacker keeps a point down to pin the RP on stale data; StaleTTL must bound the pin, however often the point is served stale — past it the subtree drops and the RP reports degraded",
			Run:   runDowngradeToStale,
		},
	}
}

func runSlowLoris(e *Env) {
	w := e.NewWorld()
	w.ChildFaults.SetSlowLoris(80 * time.Millisecond)
	client := w.Client(ClientOpts{Timeout: 150 * time.Millisecond, MaxRetries: 1, BreakerThreshold: 2})
	res := w.Sync(w.NewRP(rp.Config{Fetcher: client}))

	e.AssertTerminal(res, obs.HealthDegraded)
	if res.PubPointsVisited < 2 {
		e.Failf("RP should still visit both points, visited %d", res.PubPointsVisited)
	}
	if len(res.VRPs) != 0 {
		e.Failf("stalled child's ROA must not validate, got %d VRPs", len(res.VRPs))
	}
	if got := client.Breakers.State(w.ChildURI.String()); got != repo.BreakerOpen {
		e.Failf("child breaker = %v, want open", got)
	}
	e.RequireEvent(obs.EventRetry)
	e.RequireEvent(obs.EventBreakerOpen)
}

func runAdaptiveRamp(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{Timeout: 150 * time.Millisecond, MaxRetries: 2, BreakerThreshold: 2})

	// Phase 1: the attacker sits just under the deadline — degraded
	// throughput, but every request completes and validation is clean.
	w.ChildFaults.SetDelay(10 * time.Millisecond)
	under := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	if got := under.Health(); got != obs.HealthClean {
		e.Failf("under-deadline phase: health = %s, want clean (diags: %v)", got, under.Diagnostics)
	}
	e.Logf("under-deadline sync clean with %d VRPs", len(under.VRPs))

	// Phase 2: the attacker ramps past the deadline. Every request times
	// out; the breaker trips; the sync terminates degraded.
	w.ChildFaults.SetDelay(400 * time.Millisecond)
	over := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	e.AssertTerminal(over, obs.HealthDegraded)
	if got := client.Breakers.State(w.ChildURI.String()); got != repo.BreakerOpen {
		e.Failf("child breaker after ramp = %v, want open", got)
	}
	e.RequireEvent(obs.EventBreakerOpen)
}

func runProbeTimingGame(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{Timeout: time.Second, MaxRetries: 2, BreakerThreshold: 2, Cooldown: time.Minute})

	// Trip the child's breaker with a refused point.
	w.ChildFaults.Refuse(true)
	first := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	if got := first.Health(); got != obs.HealthDegraded {
		e.Fatalf("refused-point sync: health = %s, want degraded", got)
	}
	if got := client.Breakers.State(w.ChildURI.String()); got != repo.BreakerOpen {
		e.Fatalf("child breaker = %v, want open after refusal", got)
	}

	// The adversarial phase: serve exactly the half-open probe, stall
	// everything after it, and count what gets through. The script runs on
	// server connection goroutines, hence the atomic.
	var postProbe atomic.Int64
	w.ChildFaults.Refuse(false)
	w.ChildFaults.SetScript(func(requestN int) repo.FaultAction {
		if requestN == 1 {
			return repo.ActNone
		}
		postProbe.Add(1)
		return repo.ActDropConn
	})
	e.Clock.Advance(61 * time.Second) // cooldown elapses on the injected clock

	second := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	e.AssertTerminal(second, obs.HealthDegraded)
	if got := client.Breakers.State(w.ChildURI.String()); got != repo.BreakerOpen {
		e.Failf("breaker after probe game = %v, want re-opened", got)
	}
	// Probation is the whole defense: the probe's success must not grant
	// the attacker a fresh threshold's worth of admitted requests.
	if n := postProbe.Load(); n != 1 {
		e.Failf("point saw %d post-probe requests, want exactly 1", n)
	}
	// While re-opened, nothing reaches the network at all.
	before := postProbe.Load()
	third := w.Sync(w.NewRP(rp.Config{Fetcher: client}))
	if got := third.Health(); got != obs.HealthDegraded {
		e.Failf("fast-fail sync: health = %s, want degraded", got)
	}
	if after := postProbe.Load(); after != before {
		e.Failf("fast-failing breaker touched the network (%d -> %d requests)", before, after)
	}
	e.RequireEvent(obs.EventBreakerHalfOpen)
	e.RequireEvent(obs.EventBreakerFastFail)
}

func runMultipointStall(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{Timeout: 150 * time.Millisecond, BreakerThreshold: 2})
	relying := w.NewRP(rp.Config{Fetcher: client, StaleTTL: time.Hour})

	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean {
		e.Fatalf("baseline sync: health = %s, want clean (diags: %v)", got, baseline.Diagnostics)
	}

	// Coordinated stall: every publication point trickles at once — the
	// strongest form of the attack, no healthy point to hide behind.
	w.TAFaults.SetSlowLoris(80 * time.Millisecond)
	w.ChildFaults.SetSlowLoris(80 * time.Millisecond)
	e.Clock.Advance(10 * time.Minute)

	stalled := w.Sync(relying)
	e.AssertTerminal(stalled, obs.HealthStale)
	if !reflect.DeepEqual(stalled.VRPs, baseline.VRPs) {
		e.Failf("stale VRPs diverge from last-known-good:\n%v\n%v", stalled.VRPs, baseline.VRPs)
	}
	if stalled.StaleFallbacks < 2 {
		e.Failf("StaleFallbacks = %d, want both points served from LKG", stalled.StaleFallbacks)
	}

	// The stall costs freshness, not work: the memo already holds what the
	// snapshots validate to, so a stalled sync revalidates nothing.
	e.Clock.Advance(10 * time.Minute)
	again := w.Sync(relying)
	e.AssertTerminal(again, obs.HealthStale)
	if !reflect.DeepEqual(again.VRPs, baseline.VRPs) {
		e.Failf("second stalled sync's VRPs diverge from last-known-good:\n%v\n%v", again.VRPs, baseline.VRPs)
	}
	if again.ModulesRevalidated != 0 {
		e.Failf("second stalled sync revalidated %d modules, want 0 (served from the memo)", again.ModulesRevalidated)
	}
	e.RequireEvent(obs.EventStaleFallback)
}

func runDowngradeToStale(e *Env) {
	w := e.NewWorld()
	client := w.Client(ClientOpts{Timeout: time.Second, BreakerThreshold: 2})
	relying := w.NewRP(rp.Config{Fetcher: client, StaleTTL: 30 * time.Minute})

	baseline := w.Sync(relying)
	if got := baseline.Health(); got != obs.HealthClean {
		e.Fatalf("baseline sync: health = %s, want clean (diags: %v)", got, baseline.Diagnostics)
	}
	if len(baseline.VRPs) != 1 {
		e.Fatalf("baseline VRPs = %d, want 1", len(baseline.VRPs))
	}

	// The attacker takes the child point down and keeps it down, counting
	// on the RP to keep serving yesterday's data forever. Each stale sync
	// inside the TTL serves the snapshot; none may restart its age.
	w.ChildFaults.Refuse(true)
	for _, step := range []time.Duration{10 * time.Minute, 10 * time.Minute, 9 * time.Minute} {
		e.Clock.Advance(step)
		stale := w.Sync(relying)
		if got := stale.Health(); got != obs.HealthStale {
			e.Failf("inside TTL: health = %s, want stale (diags: %v)", got, stale.Diagnostics)
		}
		if !reflect.DeepEqual(stale.VRPs, baseline.VRPs) {
			e.Failf("inside TTL the LKG set must match the baseline")
		}
	}

	// Past the TTL the pin must break: the subtree drops from the cache
	// and the RP reports degraded — bounded staleness, never unbounded.
	// +31 min from the baseline, the last sync that reached the point.
	e.Clock.Advance(2 * time.Minute)
	expired := w.Sync(relying)
	e.AssertTerminal(expired, obs.HealthDegraded)
	if len(expired.VRPs) != 0 {
		e.Failf("past TTL the dead point's VRPs must drop, got %d", len(expired.VRPs))
	}
	e.RequireEvent(obs.EventStaleFallback)
}
