package repo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCircuitOpen is returned (wrapped) when a request is refused because the
// publication point's circuit breaker is open: the point has failed enough
// consecutive requests that the client fails fast instead of burning a
// worker on a dead or slow-loris repository (the Stalloris downgrade
// pattern — a repository need not be down to hurt, merely slow).
var ErrCircuitOpen = errors.New("repo: circuit breaker open")

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState uint8

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests fail fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is allowed through; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// BreakerConfig tunes a BreakerSet. The zero value uses the defaults.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive request failures that
	// opens a point's breaker (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker refuses requests before allowing
	// a half-open probe (default 30s).
	Cooldown time.Duration
	// Clock supplies the time (default time.Now); injectable for tests.
	Clock func() time.Time
}

func (c BreakerConfig) threshold() int {
	if c.FailureThreshold <= 0 {
		return 5
	}
	return c.FailureThreshold
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return 30 * time.Second
	}
	return c.Cooldown
}

func (c BreakerConfig) now() time.Time {
	if c.Clock == nil {
		return time.Now()
	}
	return c.Clock()
}

// breaker is the per-publication-point state machine.
type breaker struct {
	state    BreakerState
	failures int // consecutive failures while closed
	openedAt time.Time
	probing  bool // half-open: a probe is in flight
	// probation: closed via a half-open probe, not yet confirmed by a second
	// success. A failure on probation re-opens immediately — a point that
	// serves probes and stalls everything else must not get a fresh
	// threshold's worth of workers every cooldown (the Stalloris probe
	// timing game).
	probation bool
}

// BreakerSet holds one circuit breaker per publication point (keyed by URI).
// It is safe for concurrent use and may be shared between Clients so that
// every fetcher in a process agrees on which points are dead. A nil
// *BreakerSet disables breaking: Allow always permits, Success/Failure are
// no-ops.
type BreakerSet struct {
	cfg    BreakerConfig
	mu     sync.Mutex
	points map[string]*breaker
	// onTransition/onFastFail observe state changes and refused requests
	// (nil: unobserved). Invoked under mu — observers must not call back
	// into the set. guarded by mu.
	onTransition func(key string, from, to BreakerState)
	onFastFail   func(key string)

	// trips and fastFails are lifetime counters, atomic so scrape-time
	// metric callbacks read them without the lock.
	trips     atomic.Int64
	fastFails atomic.Int64
}

// NewBreakerSet builds an empty breaker set.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg, points: make(map[string]*breaker)}
}

// Observe registers callbacks fired on every state transition and every
// fast-failed request (either may be nil). Callbacks run with the set's
// lock held and must not call back into it. Nil-safe.
func (b *BreakerSet) Observe(onTransition func(key string, from, to BreakerState), onFastFail func(key string)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.onTransition = onTransition
	b.onFastFail = onFastFail
	b.mu.Unlock()
}

// transitionLocked moves p to state next, notifying the observer. Callers
// hold b.mu.
func (b *BreakerSet) transitionLocked(key string, p *breaker, next BreakerState) {
	from := p.state
	p.state = next
	if b.onTransition != nil && from != next {
		b.onTransition(key, from, next)
	}
}

func (b *BreakerSet) point(key string) *breaker {
	p, ok := b.points[key]
	if !ok {
		p = &breaker{}
		b.points[key] = p
	}
	return p
}

// Allow reports whether a request to key may proceed. While open it fails
// fast with ErrCircuitOpen (wrapped); after the cooldown it admits exactly
// one half-open probe at a time.
func (b *BreakerSet) Allow(key string) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.point(key)
	switch p.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if remaining := b.cfg.cooldown() - b.cfg.now().Sub(p.openedAt); remaining > 0 {
			b.fastFailLocked(key)
			return fmt.Errorf("%w for %s (%v of cooldown remaining)", ErrCircuitOpen, key, remaining)
		}
		b.transitionLocked(key, p, BreakerHalfOpen)
		p.probing = true
		return nil
	default: // BreakerHalfOpen
		if p.probing {
			b.fastFailLocked(key)
			return fmt.Errorf("%w for %s (probe in flight)", ErrCircuitOpen, key)
		}
		p.probing = true
		return nil
	}
}

// Success records a completed exchange with key, closing its breaker.
func (b *BreakerSet) Success(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.point(key)
	p.probation = p.state == BreakerHalfOpen
	b.transitionLocked(key, p, BreakerClosed)
	p.failures = 0
	p.probing = false
}

// Failure records a transport-level failure against key. Crossing the
// threshold (or failing a half-open probe) opens the breaker and starts the
// cooldown.
func (b *BreakerSet) Failure(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.point(key)
	switch p.state {
	case BreakerClosed:
		p.failures++
		if p.probation || p.failures >= b.cfg.threshold() {
			b.transitionLocked(key, p, BreakerOpen)
			p.openedAt = b.cfg.now()
			p.failures = 0
			p.probation = false
			b.trips.Add(1)
		}
	case BreakerHalfOpen:
		b.transitionLocked(key, p, BreakerOpen)
		p.openedAt = b.cfg.now()
		p.probing = false
		b.trips.Add(1)
	case BreakerOpen:
		// Concurrent failures while already open change nothing.
	}
}

// fastFailLocked counts one refused request, notifying the observer.
// Callers hold b.mu.
func (b *BreakerSet) fastFailLocked(key string) {
	b.fastFails.Add(1)
	if b.onFastFail != nil {
		b.onFastFail(key)
	}
}

// States snapshots every known point's current state — the scrape-time
// source for per-point breaker gauges. Nil-safe.
func (b *BreakerSet) States() map[string]BreakerState {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]BreakerState, len(b.points))
	for key, p := range b.points {
		out[key] = p.state
	}
	return out
}

// State returns key's current state (Closed for unknown keys).
func (b *BreakerSet) State(key string) BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p, ok := b.points[key]; ok {
		return p.state
	}
	return BreakerClosed
}

// Trips counts closed→open (and half-open→open) transitions since creation.
func (b *BreakerSet) Trips() int64 {
	if b == nil {
		return 0
	}
	return b.trips.Load()
}

// FastFails counts requests refused while a breaker was open.
func (b *BreakerSet) FastFails() int64 {
	if b == nil {
		return 0
	}
	return b.fastFails.Load()
}

// forget drops key's breaker, whatever its state: the point has left the
// tree (Client.Forget). Counters are kept.
func (b *BreakerSet) forget(key string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.points, key)
}
