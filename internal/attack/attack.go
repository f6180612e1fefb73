// Package attack is an adversarial campaign harness: it drives the full
// relying party — real rsynclite server, fault injection, hand-crafted
// malformed objects — through named attack scenarios drawn from the
// literature on misbehaving RPKI authorities and hostile repositories
// (Stalloris delay games, CURE-style decoder mutation, resource-exhaustion
// blowups). Every scenario must leave the relying party in a defined
// terminal state — clean, degraded, or stale — within a bounded budget; a
// hang, a panic, or an unasserted terminal state is a failed scenario. The
// suite runs under `go test` (see attack_test.go) and as the standalone
// cmd/rpki-attack binary.
package attack

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rp"
)

// Outcome is a scenario's verdict class.
type Outcome string

const (
	// OutcomePass: every assertion held and a terminal state was recorded.
	OutcomePass Outcome = "pass"
	// OutcomeFail: an assertion failed (the attack found a soft spot).
	OutcomeFail Outcome = "fail"
	// OutcomeHang: the scenario blew its wall-clock budget — the exact
	// failure mode (unbounded stall) the defenses exist to prevent.
	OutcomeHang Outcome = "hang"
	// OutcomePanic: the relying party (or the scenario) panicked.
	OutcomePanic Outcome = "panic"
)

// Scenario is one named attack with a bounded budget and a verdict.
type Scenario struct {
	// Name is the campaign-qualified identifier, e.g. "stalloris/slow-loris".
	Name string
	// Paper cites the attack's source (section or arXiv id).
	Paper string
	// Layer names the defense layer the attack probes (retry policy,
	// breaker, decoder limits, LKG store, ...).
	Layer string
	// Doc is a one-line description of the attack and the expected defense.
	Doc string
	// Budget bounds the scenario's wall-clock time (default 30s). Blowing
	// it is OutcomeHang, not a slow pass.
	Budget time.Duration
	// ClockBudget bounds how far the scenario may advance the injected
	// clock (default 12h) — terminal states must be reached within a
	// bounded simulated horizon, not by fast-forwarding past the problem.
	ClockBudget time.Duration
	// Run executes the attack against a fresh Env.
	Run func(*Env)
}

func (s Scenario) budget() time.Duration {
	if s.Budget <= 0 {
		return 30 * time.Second
	}
	return s.Budget
}

func (s Scenario) clockBudget() time.Duration {
	if s.ClockBudget <= 0 {
		return 12 * time.Hour
	}
	return s.ClockBudget
}

// Verdict is the machine-readable outcome of one scenario run.
type Verdict struct {
	Name    string  `json:"name"`
	Paper   string  `json:"paper"`
	Layer   string  `json:"layer"`
	Outcome Outcome `json:"outcome"`
	// Health is the asserted terminal relying-party state ("clean",
	// "degraded", "stale"; empty if the scenario failed before asserting).
	Health string `json:"health,omitempty"`
	// Events lists the distinct flight-recorder event kinds observed — how
	// the relying party degraded, not just that it did.
	Events []string `json:"events,omitempty"`
	// Failures lists assertion failures (empty on pass).
	Failures []string `json:"failures,omitempty"`
	// Notes carries scenario progress logs.
	Notes []string `json:"notes,omitempty"`
	// WallMS is elapsed wall-clock milliseconds.
	WallMS int64 `json:"wall_ms"`
	// ClockAdvancedMS is total injected-clock advancement in milliseconds.
	ClockAdvancedMS int64 `json:"clock_advanced_ms"`
}

// Clock is the scenario's injected clock: mutex-guarded, monotonic, and
// accounting — total advancement is charged against Scenario.ClockBudget.
type Clock struct {
	mu       sync.Mutex
	now      time.Time
	advanced time.Duration
}

// Epoch is where every scenario clock starts (the rp test epoch: fresh
// certificates, fresh manifests).
var Epoch = time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)

// NewClock returns a clock frozen at Epoch.
func NewClock() *Clock { return &Clock{now: Epoch} }

// Now returns the current injected time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.advanced += d
}

// Advanced reports the total advancement since creation.
func (c *Clock) Advanced() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.advanced
}

// abort unwinds a scenario after Fatalf; the runner recovers it.
type abort struct{}

// Env is the per-scenario world handle: a context bounded by the wall
// budget, the injected clock, and the assertion collector. Scenarios build
// their world with NewWorld (TCP) or rely on in-process fetchers.
type Env struct {
	// Ctx is cancelled when the scenario's wall budget expires; pass it to
	// every Sync and fetch so a hung scenario tears down its I/O.
	Ctx context.Context
	// Clock is the scenario's injected clock.
	Clock *Clock

	mu        sync.Mutex
	failures  []string
	notes     []string
	health    string
	healthSet bool
	hub       *obs.Hub
	cleanups  []func()
}

// Failf records an assertion failure and keeps going.
func (e *Env) Failf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// Fatalf records an assertion failure and aborts the scenario.
func (e *Env) Fatalf(format string, args ...any) {
	e.Failf(format, args...)
	panic(abort{})
}

// Logf records a progress note carried into the verdict.
func (e *Env) Logf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// Cleanup registers fn to run (LIFO) when the scenario finishes or hangs.
func (e *Env) Cleanup(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cleanups = append(e.cleanups, fn)
}

// SetHub attaches the flight-recorder hub whose events the verdict reports.
// NewWorld calls it automatically.
func (e *Env) SetHub(h *obs.Hub) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hub = h
}

// AssertTerminal asserts the sync result's terminal health and records it
// as the scenario's terminal relying-party state. Every scenario must reach
// this at least once — a scenario that never asserts a terminal state fails.
func (e *Env) AssertTerminal(res *rp.Result, want obs.HealthState) {
	got := res.Health()
	e.mu.Lock()
	e.health = got.String()
	e.healthSet = true
	e.mu.Unlock()
	if got != want {
		e.Failf("terminal state = %s, want %s (diags: %v)", got, want, res.Diagnostics)
	}
}

// RequireEvent asserts the flight recorder captured at least one event of
// the given kind — the attack's footprint must be observable, not inferred.
func (e *Env) RequireEvent(kind obs.EventKind) {
	e.mu.Lock()
	hub := e.hub
	e.mu.Unlock()
	if hub == nil {
		e.Failf("RequireEvent(%s): scenario has no hub (call NewWorld or SetHub)", kind)
		return
	}
	for _, ev := range hub.Recorder().Snapshot() {
		if ev.Kind == kind {
			return
		}
	}
	e.Failf("flight recorder captured no %s event", kind)
}

// Counter reads one series off the scenario's /metrics: name is the series
// as exposed, labels included (`rpki_repo_requests_total{verb="list"}`). A
// series that is not there fails the scenario and reads 0.
func (e *Env) Counter(name string) float64 {
	e.mu.Lock()
	hub := e.hub
	e.mu.Unlock()
	got, ok := hub.Registry().Sample(name)
	if !ok {
		e.Failf("/metrics has no series %s", name)
	}
	return got
}

// RequireCounter asserts the series name on the scenario's /metrics reads at
// least min — the attack must be countable, not only survivable.
func (e *Env) RequireCounter(name string, min float64) {
	if got := e.Counter(name); got < min {
		e.Failf("%s = %v, want at least %v", name, got, min)
	}
}

// eventKinds returns the sorted distinct event-kind names recorded so far.
func (e *Env) eventKinds() []string {
	e.mu.Lock()
	hub := e.hub
	e.mu.Unlock()
	if hub == nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, ev := range hub.Recorder().Snapshot() {
		seen[ev.Kind.String()] = true
	}
	kinds := make([]string, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func (e *Env) runCleanups() {
	e.mu.Lock()
	cleanups := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
}

// Run executes one scenario under a wall-clock watchdog and returns its
// verdict. A scenario that outlives its budget is reported as a hang (its
// goroutine is abandoned — precisely the resource the real defenses refuse
// to leak, which is why hanging is a first-class failed outcome here).
func Run(parent context.Context, s Scenario) Verdict {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithTimeout(parent, s.budget())
	defer cancel()
	env := &Env{Ctx: ctx, Clock: NewClock()}

	start := time.Now()
	done := make(chan struct{})
	var panicked any
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				if _, isAbort := r.(abort); !isAbort {
					panicked = fmt.Sprintf("%v\n%s", r, debug.Stack())
				}
			}
		}()
		s.Run(env)
	}()

	hung := false
	select {
	case <-done:
	case <-time.After(s.budget()):
		hung = true
		cancel() // tear down the scenario's I/O...
		select { // ...and give it a moment to notice.
		case <-done:
			hung = false
		case <-time.After(2 * time.Second):
		}
	}
	if !hung {
		env.runCleanups()
	} else {
		// The scenario is wedged; run cleanups anyway so servers shut down,
		// but do it off to the side in case a cleanup blocks too.
		go env.runCleanups()
	}

	env.mu.Lock()
	v := Verdict{
		Name:            s.Name,
		Paper:           s.Paper,
		Layer:           s.Layer,
		Health:          env.health,
		Failures:        append([]string(nil), env.failures...),
		Notes:           append([]string(nil), env.notes...),
		WallMS:          time.Since(start).Milliseconds(),
		ClockAdvancedMS: env.Clock.Advanced().Milliseconds(),
	}
	healthSet := env.healthSet
	env.mu.Unlock()
	v.Events = env.eventKinds()

	switch {
	case hung:
		v.Outcome = OutcomeHang
		v.Failures = append(v.Failures, fmt.Sprintf("scenario exceeded its %v wall budget", s.budget()))
	case panicked != nil:
		v.Outcome = OutcomePanic
		v.Failures = append(v.Failures, fmt.Sprintf("panic: %v", panicked))
	default:
		if !healthSet {
			v.Failures = append(v.Failures, "scenario asserted no terminal relying-party state")
		}
		if adv := env.Clock.Advanced(); adv > s.clockBudget() {
			v.Failures = append(v.Failures, fmt.Sprintf("injected clock advanced %v, budget %v", adv, s.clockBudget()))
		}
		if len(v.Failures) > 0 {
			v.Outcome = OutcomeFail
		} else {
			v.Outcome = OutcomePass
		}
	}
	return v
}

// Scenarios returns the full registered campaign, ordered by name within
// each campaign group (stall games first, then exhaustion, then mutation,
// then the RTR, listing, coalescing and feed campaigns).
func Scenarios() []Scenario {
	var all []Scenario
	all = append(all, stallScenarios()...)
	all = append(all, exhaustScenarios()...)
	all = append(all, mutateScenarios()...)
	all = append(all, rtrScenarios()...)
	all = append(all, listingScenarios()...)
	all = append(all, coalesceScenarios()...)
	all = append(all, feedScenarios()...)
	return all
}
