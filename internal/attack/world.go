package attack

import (
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rp"
)

// World is the standard attack surface: a two-point hierarchy (trust anchor
// → child CA with one ROA) served over a real rsynclite server on loopback,
// with an independent fault plan per publication point and the
// observability hub recording how the relying party degrades.
type World struct {
	Addr   string
	Server *repo.Server
	Anchor rp.TrustAnchor
	TA     *ca.Authority
	Child  *ca.Authority
	TAURI  repo.URI
	// ChildURI is the child's publication point — the usual attack target.
	ChildURI    repo.URI
	TAStore     *repo.Store
	ChildStore  *repo.Store
	TAFaults    *repo.Faults
	ChildFaults *repo.Faults
	Hub         *obs.Hub

	env *Env
}

// NewWorld builds the standard world on the scenario's injected clock and
// registers server shutdown with the Env. Construction failures abort the
// scenario.
func (e *Env) NewWorld() *World { return e.newWorld("") }

// newWorld is NewWorld with the child's publication point named by a host of
// its own ("" for the server's address, like the trust anchor's): a name the
// client's dialer must resolve, and may resolve differently over time.
func (e *Env) newWorld(childHost string) *World {
	srv := repo.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		e.Fatalf("world: listen: %v", err)
	}
	e.Cleanup(func() { _ = srv.Close() })

	cfg := ca.Config{Clock: e.Clock.Now}
	taStore := repo.NewStore()
	taURI := repo.URI{Host: addr, Module: "ta"}
	ta, err := ca.NewTrustAnchor("ta", ipres.MustParseSet("63.0.0.0/8"), taStore, taURI, cfg)
	if err != nil {
		e.Fatalf("world: trust anchor: %v", err)
	}
	childStore := repo.NewStore()
	childURI := repo.URI{Host: addr, Module: "child"}
	if childHost != "" {
		childURI.Host = childHost
	}
	child, err := ta.CreateChild("child", ipres.MustParseSet("63.160.0.0/12"), childStore, childURI)
	if err != nil {
		e.Fatalf("world: child: %v", err)
	}
	if _, err := child.IssueROA("r", 1239, roa.MustParsePrefix("63.160.0.0/12-13")); err != nil {
		e.Fatalf("world: roa: %v", err)
	}
	taFaults, childFaults := repo.NewFaults(), repo.NewFaults()
	srv.AddModule("ta", taStore, taFaults)
	srv.AddModule("child", childStore, childFaults)

	hub := obs.NewHub(e.Clock.Now)
	e.SetHub(hub)
	return &World{
		Addr:        addr,
		Server:      srv,
		Anchor:      rp.TrustAnchor{CertDER: ta.Cert.Raw, URI: taURI},
		TA:          ta,
		Child:       child,
		TAURI:       taURI,
		ChildURI:    childURI,
		TAStore:     taStore,
		ChildStore:  childStore,
		TAFaults:    taFaults,
		ChildFaults: childFaults,
		Hub:         hub,
		env:         e,
	}
}

// ClientOpts tunes a World client. Zero values pick attack-test defaults:
// a 2s request timeout, no retries, no breakers.
type ClientOpts struct {
	// Timeout is the per-request deadline (wall clock — it arms real
	// network deadlines). Default 2s.
	Timeout time.Duration
	// MaxRetries enables the retry policy with fast deterministic backoff.
	MaxRetries int
	// BreakerThreshold, when > 0, attaches per-point circuit breakers
	// driven by the scenario's injected clock.
	BreakerThreshold int
	// Cooldown is the breaker cooldown on the injected clock (default 1m).
	Cooldown time.Duration
}

// Client builds an instrumented repository client wired to the world's hub,
// so retries, breaker transitions and fast-fails land in the flight
// recorder the verdict reports.
func (w *World) Client(opts ClientOpts) *repo.Client {
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = time.Minute
	}
	c := &repo.Client{
		Timeout: opts.Timeout,
		Retry: repo.RetryPolicy{
			MaxRetries: opts.MaxRetries,
			BaseDelay:  time.Millisecond,
			MaxDelay:   4 * time.Millisecond,
			Jitter:     -1,
		},
	}
	if opts.BreakerThreshold > 0 {
		c.Breakers = repo.NewBreakerSet(repo.BreakerConfig{
			FailureThreshold: opts.BreakerThreshold,
			Cooldown:         opts.Cooldown,
			Clock:            w.env.Clock.Now,
		})
	}
	c.Instrument(w.Hub)
	return c
}

// NewRP builds a relying party over the world's anchor, defaulting the
// clock and observability hub to the scenario's.
func (w *World) NewRP(cfg rp.Config) *rp.RelyingParty {
	if cfg.Clock == nil {
		cfg.Clock = w.env.Clock.Now
	}
	if cfg.Obs == nil {
		cfg.Obs = w.Hub
	}
	return rp.New(cfg, w.Anchor)
}

// Sync runs one synchronization pass under the scenario context, aborting
// the scenario on a hard error (context cancellation aside, Sync reports
// trouble via diagnostics, not errors).
func (w *World) Sync(relying *rp.RelyingParty) *rp.Result {
	res, err := relying.Sync(w.env.Ctx)
	if err != nil {
		w.env.Fatalf("sync: %v", err)
	}
	return res
}
