// Command rpki-rp is the relying-party daemon: it bootstraps from a trust
// anchor locator, fetches and validates the RPKI over TCP, prints the
// validated cache (VRPs), and optionally serves it to routers over the
// RPKI-to-Router protocol.
//
// Usage:
//
//	rpki-rp -tal arin.tal -server 127.0.0.1:8873 [-poll 30s] [-rtr 127.0.0.1:8282] [-policy best-effort|drop-pubpoint] [-workers N]
//	        [-max-retries N] [-request-timeout D] [-stale-ttl D] [-breaker-threshold N] [-breaker-cooldown D]
//	        [-ops-listen 127.0.0.1:9090] [-cpuprofile cpu.out] [-memprofile mem.out]
//	        [-rtr-max-clients N] [-rtr-send-queue N] [-rtr-write-timeout D]
//	rpki-rp -rtr-replica-of primary:8282 -rtr 127.0.0.1:8282   (stateless RTR frontend, no TAL, no validation)
//
// With -poll the daemon re-syncs on the given interval. Steady-state polls
// are incremental: object snapshots are cached so unchanged objects are
// proven by the digests in the point's listing instead of re-downloaded, and publication points
// whose bytes are provably unchanged within their validity epoch reuse their
// previous validated outputs wholesale. When -rtr is set, each poll feeds
// the validated VRP set to the RTR cache, which computes a minimal delta and
// notifies routers only when something actually changed.
//
// The resilience flags tune how the daemon degrades under misbehaving
// repositories: transport failures retry with backoff (-max-retries), each
// request carries its own deadline (-request-timeout) so a slow-loris point
// cannot stall a sync, repeated failures trip a per-point circuit breaker
// (-breaker-threshold/-breaker-cooldown), and unreachable points are served
// from their last cleanly validated snapshot for up to -stale-ttl.
//
// The RTR fleet flags bound what routers can cost the daemon:
// -rtr-max-clients caps concurrent RTR connections, -rtr-send-queue bounds
// each connection's response queue, and -rtr-write-timeout is the stall
// deadline after which a slow consumer is evicted with a graceful Error
// PDU. With -rtr-replica-of the daemon is a stateless frontend: it skips
// the TAL and validation entirely, follows the primary's -rtr address as an
// RTR client, and serves RTR from a cache mirrored off it, byte-identical
// down to the session ID so routers can resume sessions against any
// frontend.
//
// With -ops-listen the daemon serves an operator HTTP surface: /metrics
// (Prometheus text format), /healthz, /readyz (200 once a clean or
// LKG-valid sync exists), /debug/flightrecorder (recent degraded events),
// /debug/lasttrace (the last sync's span tree), and /debug/pprof. Profiles:
// use /debug/pprof against a live daemon (sample exactly the window you
// care about, no restart); use -cpuprofile/-memprofile for one-shot runs
// that exit before you could attach — both go through the same
// internal/obs profiling helper.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	rpkirisk "repro"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rp"
	"repro/internal/rtr"
)

func main() {
	talPath := flag.String("tal", "arin.tal", "trust anchor locator path")
	server := flag.String("server", "127.0.0.1:8873", "rsynclite server address")
	rtrAddr := flag.String("rtr", "", "serve RTR on this address (empty: disabled)")
	policy := flag.String("policy", "best-effort", "missing-information policy: best-effort or drop-pubpoint")
	poll := flag.Duration("poll", 0, "steady-state poll interval (0: sync once and exit unless -rtr)")
	workers := flag.Int("workers", 0, "validation workers (0: GOMAXPROCS, 1: sequential)")
	maxRetries := flag.Int("max-retries", 3, "transport-failure retries per request (0: fail on first fault)")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline (one LIST or GET exchange)")
	staleTTL := flag.Duration("stale-ttl", time.Hour, "serve an unreachable point's last-known-good snapshot up to this age (0: disabled)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open a point's circuit breaker (must be >= 1)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker refuses requests before probing")
	opsListen := flag.String("ops-listen", "", "serve /metrics, /healthz, /readyz, /debug/* on this address (empty: disabled)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (one-shot runs; live daemons: /debug/pprof on -ops-listen)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit (one-shot runs; live daemons: /debug/pprof on -ops-listen)")
	rtrMaxClients := flag.Int("rtr-max-clients", 0, "max concurrent RTR connections; over-cap connections get an Error PDU (0: unlimited)")
	rtrSendQueue := flag.Int("rtr-send-queue", 32, "per-RTR-connection response-queue capacity; a client that fills it is evicted")
	rtrWriteTimeout := flag.Duration("rtr-write-timeout", 30*time.Second, "RTR write-stall deadline; a slow consumer exceeding it is evicted")
	rtrReplicaOf := flag.String("rtr-replica-of", "", "follow the primary's RTR server at this address and serve RTR from the mirrored cache (no TAL, no validation)")
	flag.Parse()
	// All flag validation happens up front, before the TAL is touched or
	// any socket is opened, so a misconfigured daemon dies with a usage
	// error instead of half-starting.
	if err := validateFlags(*maxRetries, *requestTimeout, *breakerThreshold, *breakerCooldown); err != nil {
		fatal(err)
	}
	if err := validateRTRFlags(*rtrAddr, *rtrMaxClients, *rtrSendQueue, *rtrWriteTimeout, *rtrReplicaOf); err != nil {
		fatal(err)
	}
	// File profiles and /debug/pprof share the helper in internal/obs; files
	// suit one-shot runs, the HTTP surface suits a long-lived daemon.
	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}()

	// Replica mode: no TAL, no validation — mirror a primary's cache and
	// serve routers from it.
	if *rtrReplicaOf != "" {
		runReplica(*rtrReplicaOf, *rtrAddr, *opsListen, *rtrMaxClients, *rtrSendQueue, *rtrWriteTimeout)
		return
	}

	anchor, err := rpkirisk.ReadTAL(*talPath)
	if err != nil {
		fatal(err)
	}
	var missing rp.MissingPolicy
	switch *policy {
	case "best-effort":
		missing = rp.BestEffort
	case "drop-pubpoint":
		missing = rp.DropPublicationPoint
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	client := rpkirisk.ClientFor(*server, *requestTimeout)
	client.Concurrency = *workers
	if client.Concurrency == 0 {
		client.Concurrency = runtime.GOMAXPROCS(0)
	}
	client.Retry = repo.RetryPolicy{MaxRetries: *maxRetries}
	if *breakerThreshold > 0 {
		client.Breakers = repo.NewBreakerSet(repo.BreakerConfig{
			FailureThreshold: *breakerThreshold,
			Cooldown:         *breakerCooldown,
		})
	}
	var hub *obs.Hub
	if *opsListen != "" {
		hub = obs.NewHub(nil)
		client.Instrument(hub)
		ops, err := hub.ServeOps(*opsListen)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = ops.Close() }()
		fmt.Printf("ops server on %s\n", ops.Addr())
	}
	relying := rp.New(rp.Config{
		Fetcher:        client,
		Policy:         missing,
		Workers:        *workers,
		StaleTTL:       *staleTTL,
		CacheSnapshots: true,
		Obs:            hub,
	}, anchor)

	var syncs uint64
	sync := func() *rp.Result {
		result, err := relying.Sync(context.Background())
		if err != nil {
			fatal(err)
		}
		syncs++
		state := result.Health()
		hub.SetHealth(obs.Health{
			// Ready = this sync produced servable output: every point
			// either validated cleanly or was covered by its last-known-good
			// snapshot. Sticky in the hub thereafter.
			Ready: state == obs.HealthClean || state == obs.HealthStale,
			State: state,
			Detail: fmt.Sprintf("%d VRPs, %d diagnostics, %d stale fallbacks",
				len(result.VRPs), len(result.Diagnostics), result.StaleFallbacks),
			LastSyncAt: time.Now(),
			Syncs:      syncs,
		})
		fmt.Printf("synced: %d CAs, %d ROAs, %d VRPs", result.CertsAccepted, result.ROAsAccepted, len(result.VRPs))
		if result.ModulesReused > 0 {
			fmt.Printf(" [%d modules reused, %d revalidated]", result.ModulesReused, result.ModulesRevalidated)
		}
		if result.Retries > 0 || result.BreakerTrips > 0 || result.StaleFallbacks > 0 || result.IncrementalFallbacks > 0 {
			fmt.Printf(" (retries %d, breaker trips %d, stale fallbacks %d, incremental fallbacks %d)",
				result.Retries, result.BreakerTrips, result.StaleFallbacks, result.IncrementalFallbacks)
		}
		if result.Incomplete() {
			fmt.Printf(" — CACHE INCOMPLETE (%d diagnostics)\n", len(result.Diagnostics))
			for _, d := range result.Diagnostics {
				fmt.Printf("  %v\n", d)
			}
		} else {
			fmt.Println(" — cache complete")
		}
		for _, v := range result.VRPs {
			fmt.Printf("  vrp %v\n", v)
		}
		return result
	}

	result := sync()
	if *rtrAddr == "" && *poll == 0 {
		return
	}

	var updateCache func(*rp.Result)
	if *rtrAddr != "" {
		cache := rtr.NewCache(uint16(os.Getpid())) //nolint:gosec // session id only
		cache.SetVRPs(result.VRPs)
		cache.Instrument(hub)
		srv := rtr.NewServer(cache)
		srv.MaxClients = *rtrMaxClients
		srv.SendQueue = *rtrSendQueue
		srv.WriteTimeout = *rtrWriteTimeout
		bound, err := srv.Listen(*rtrAddr)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("RTR server on %s (serial %d)\n", bound, cache.Serial())
		updateCache = func(r *rp.Result) { cache.SetVRPs(r.VRPs) }
	}

	if *poll == 0 {
		*poll = 30 * time.Second
	}
	tick := time.NewTicker(*poll)
	defer tick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-tick.C:
			r := sync()
			if updateCache != nil {
				updateCache(r)
			}
		case <-sig:
			fmt.Println("shutting down")
			return
		}
	}
}

// validateFlags rejects nonsensical resilience tunings at startup, before
// any TAL or network work. A negative retry count, a non-positive request
// deadline, or a breaker threshold below one would each silently disable a
// rung of the degradation ladder — the operator asked for protection the
// daemon could not deliver.
func validateFlags(maxRetries int, requestTimeout time.Duration, breakerThreshold int, breakerCooldown time.Duration) error {
	if maxRetries < 0 {
		return fmt.Errorf("-max-retries must be >= 0, got %d", maxRetries)
	}
	if requestTimeout <= 0 {
		return fmt.Errorf("-request-timeout must be positive, got %v", requestTimeout)
	}
	if breakerThreshold < 1 {
		return fmt.Errorf("-breaker-threshold must be >= 1, got %d", breakerThreshold)
	}
	if breakerCooldown <= 0 {
		return fmt.Errorf("-breaker-cooldown must be positive, got %v", breakerCooldown)
	}
	return nil
}

// validateRTRFlags rejects nonsensical RTR fleet tunings at startup, before
// the TAL is touched. A negative client cap, an empty send queue, or a
// non-positive write timeout would each disable a slow-consumer defense the
// operator asked for; a replica with no RTR listener would follow a primary
// to no purpose.
func validateRTRFlags(rtrAddr string, maxClients, sendQueue int, writeTimeout time.Duration, replicaOf string) error {
	if maxClients < 0 {
		return fmt.Errorf("-rtr-max-clients must be >= 0, got %d", maxClients)
	}
	if sendQueue < 1 {
		return fmt.Errorf("-rtr-send-queue must be >= 1, got %d", sendQueue)
	}
	if writeTimeout <= 0 {
		return fmt.Errorf("-rtr-write-timeout must be positive, got %v", writeTimeout)
	}
	if replicaOf != "" && rtrAddr == "" {
		return fmt.Errorf("-rtr-replica-of requires -rtr: a replica exists to serve routers")
	}
	return nil
}

// runReplica is the stateless-frontend main loop: mirror the primary's
// cache as an RTR client of its -rtr address and serve RTR from it,
// reconnecting (and resuming from the mirrored serial) until interrupted.
func runReplica(primary, rtrAddr, opsListen string, maxClients, sendQueue int, writeTimeout time.Duration) {
	cache := rtr.NewCache(0) // the first snapshot adopts the primary's session
	rep := rtr.NewReplica(primary, cache)
	if opsListen != "" {
		hub := obs.NewHub(nil)
		cache.Instrument(hub)
		rep.Instrument(hub)
		ops, err := hub.ServeOps(opsListen)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = ops.Close() }()
		fmt.Printf("ops server on %s\n", ops.Addr())
	}
	srv := rtr.NewServer(cache)
	srv.MaxClients = maxClients
	srv.SendQueue = sendQueue
	srv.WriteTimeout = writeTimeout
	bound, err := srv.Listen(rtrAddr)
	if err != nil {
		fatal(err)
	}
	defer func() { _ = srv.Close() }()
	fmt.Printf("replica RTR frontend on %s, following %s\n", bound, primary)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := rep.Run(ctx); err != nil && ctx.Err() == nil {
		fatal(err)
	}
	fmt.Println("shutting down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
