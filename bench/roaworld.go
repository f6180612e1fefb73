package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rov"
	"repro/internal/rp"
)

// Load shape shared by the ROA-world workloads: rpki-rp's wiring at the
// box's core count.
const (
	rpWorkers        = 2
	fetchConcurrency = 2
	convergeTimeout  = 2 * time.Second
	// benchASN is the origin of every ROA the benchmark toggles: below
	// unusedASN, and used by no generated world.
	benchASN ipres.ASN = 4_100_000_000
)

// stalled_point: the victim answers after stallDelay, the client gives up
// after stallTimeout, and the breaker clock advances one second per sync,
// so with a 10 s cooldown exactly every 10th sync is a half-open probe.
const (
	stallDelay    = time.Second
	stallTimeout  = 200 * time.Millisecond
	stallCooldown = 10 * time.Second
)

// roaRig is a served ROA world with a relying party and routers behind it:
// steady_churn, cold_bootstrap and stalled_point.
type roaRig struct {
	name  string
	world *modelgen.World
	srv   *repo.Server
	addr  string
	tr    *tracer
	rng   *rand.Rand
	rtr   *rtrRig
	// relying is the long-lived relying party; cold_bootstrap replaces it
	// with a fresh one (and a fresh client) on every change.
	relying *rp.RelyingParty
	routes  routeSet
	// want is the ground truth: the VRP set CA state implies, recomputed
	// after every publish.
	want []rov.VRP

	targets []*ca.Authority // healthy authorities a change is published at
	region  []*ca.Authority // the targets under one parent: the slow op of steady_churn
	issued  map[string]bool // authority name -> its bench ROA is published
	next    int             // round-robin cursor into targets

	victim   string // stalled_point: the stalled module ("" elsewhere)
	breakers *repo.BreakerSet
	clock    atomic.Int64 // injected breaker clock, seconds

	syncs []syncRec
	// worldBuild is how long generating the world took.
	worldBuild time.Duration
}

// syncRec is what one Sync reported, kept for the per-layer counts that
// both the traced and the untraced run can see.
type syncRec struct {
	kind            string
	res             rp.Result // VRPs and Diagnostics dropped
	diagnostics     int
	allocs, allocKB float64 // traced syncs only
	traced          bool
}

func newWorld(seed int64, small bool) (*modelgen.World, error) {
	if small {
		return modelgen.Figure2(nil, false)
	}
	return modelgen.Synthetic(modelgen.ProductionSized(seed))
}

func depth(a *ca.Authority) int {
	d := 0
	for ; a.Parent != nil; a = a.Parent {
		d++
	}
	return d
}

// setupROA builds the world, serves it, runs the first cold sync and
// connects the routers. baseline is called once the inputs exist and
// before any of the system under test does.
func setupROA(name string, cfg runConfig, tr *tracer, baseline func()) (rig, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &roaRig{name: name, tr: tr, rng: rng, issued: make(map[string]bool)}
	t0 := time.Now()
	world, err := newWorld(cfg.Seed, cfg.Small)
	if err != nil {
		return nil, err
	}
	r.world, r.worldBuild = world, time.Since(t0)

	// Change targets: the ISP tier (depth 2) where the world has one,
	// every non-anchor authority otherwise (the Figure 2 model).
	var names []string
	for n, a := range world.Authorities {
		if a.Parent != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var tier []*ca.Authority
	for _, n := range names {
		if a := world.Authorities[n]; depth(a) == 2 {
			tier = append(tier, a)
		}
	}
	if len(tier) < 2 {
		tier = tier[:0]
		for _, n := range names {
			tier = append(tier, world.Authorities[n])
		}
	}
	pick := tier[rng.Intn(len(tier))]
	if name == "stalled_point" {
		r.victim = pick.Name
	}
	for _, a := range tier {
		if a.Name == r.victim {
			continue
		}
		r.targets = append(r.targets, a)
		if a.Parent == pick.Parent {
			r.region = append(r.region, a)
		}
	}
	r.want = r.truth()
	r.routes = makeRoutes(rng, r.want, cfg.routes())
	baseline()

	r.srv = repo.NewServer()
	var faults *repo.Faults
	for module, store := range world.Stores {
		var f *repo.Faults
		if module == r.victim {
			faults = repo.NewFaults()
			f = faults
		}
		r.srv.AddModule(module, store, f)
	}
	if r.addr, err = r.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	r.relying = r.freshRP()
	res, err := r.sync(opChange, r.relying, 0)
	if err == nil {
		err = r.expectClean(res)
	}
	if err == nil {
		r.rtr, err = newRTRRig(res.VRPs, tr)
	}
	if err == nil {
		err = r.rtr.checkRouters(digest(r.want))
	}
	if err == nil && r.victim != "" {
		// The clean sync above filled the last-known-good store. Stall the
		// victim and let one sync run into it: two timeouts trip the
		// breaker, so every timed sync starts from an open breaker and the
		// only dials of the victim are the half-open probes.
		faults.SetDelay(stallDelay)
		if res, err = r.sync(opSlow, r.relying, 0); err == nil {
			err = r.expectHealth(res)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.syncs = nil
	return r, nil
}

// freshRP wires a relying party the way cmd/rpki-rp does, over a new
// client: retries, breakers and concurrency on the client; snapshot cache,
// last-known-good store and worker pool on the relying party.
func (r *roaRig) freshRP() *rp.RelyingParty {
	client := &repo.Client{
		Dial:        dialer(r.addr, r.tr),
		Concurrency: fetchConcurrency,
		Retry:       repo.RetryPolicy{MaxRetries: 3},
		Breakers:    repo.NewBreakerSet(repo.BreakerConfig{}),
	}
	if r.victim != "" {
		client.Timeout = stallTimeout
		client.Retry = repo.RetryPolicy{MaxRetries: 1, Jitter: -1}
		epoch := time.Unix(0, 0)
		client.Breakers = repo.NewBreakerSet(repo.BreakerConfig{
			FailureThreshold: 2,
			Cooldown:         stallCooldown,
			Clock:            func() time.Time { return epoch.Add(time.Duration(r.clock.Load()) * time.Second) },
		})
	}
	var fetcher rp.Fetcher = client
	if r.tr != nil {
		fetcher = &tracedFetcher{inner: client, tr: r.tr}
	}
	return rp.New(rp.Config{
		Fetcher:        fetcher,
		Clock:          r.world.Clock,
		Workers:        rpWorkers,
		CacheSnapshots: true,
		StaleTTL:       time.Hour,
	}, r.world.Anchor())
}

// sync runs one Sync under an rp.sync span and records what it reported.
func (r *roaRig) sync(kind string, relying *rp.RelyingParty, parent int) (*rp.Result, error) {
	r.clock.Add(1)
	rec := syncRec{kind: kind, traced: r.tr.active()}
	var before, after runtime.MemStats
	if rec.traced {
		runtime.ReadMemStats(&before)
	}
	id := r.tr.begin("rp.sync", parent)
	if r.tr != nil {
		r.tr.cur.Store(int64(id))
	}
	res, err := relying.Sync(context.Background())
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	if rec.traced {
		runtime.ReadMemStats(&after)
		rec.allocs = float64(after.Mallocs - before.Mallocs)
		rec.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	}
	rec.res, rec.diagnostics = *res, len(res.Diagnostics)
	rec.res.VRPs, rec.res.Diagnostics = nil, nil
	r.syncs = append(r.syncs, rec)
	return res, nil
}

func (r *roaRig) expectClean(res *rp.Result) error {
	if h := res.Health(); h != obs.HealthClean {
		return fmt.Errorf("health %v with %d diagnostics (first: %v), want clean", h, len(res.Diagnostics), res.Diagnostics[0])
	}
	return nil
}

// expectHealth checks a sync's health against the workload's expectation:
// clean, or under a stalled point stale with only the victim degraded.
func (r *roaRig) expectHealth(res *rp.Result) error {
	if r.victim == "" {
		return r.expectClean(res)
	}
	if h := res.Health(); h != obs.HealthStale {
		return fmt.Errorf("health %v, want stale", h)
	}
	for _, d := range res.Diagnostics {
		if d.Module != r.victim {
			return fmt.Errorf("diagnostic outside the stalled point %s: %v", r.victim, d)
		}
	}
	return nil
}

// truth computes the VRP set the routers must hold from CA state alone —
// never from what the relying party reported.
func (r *roaRig) truth() []rov.VRP {
	var vrps []rov.VRP
	for _, a := range r.world.Authorities {
		for _, name := range a.ROAs() {
			if ro, ok := a.ROA(name); ok {
				vrps = append(vrps, rov.FromROA(ro)...)
			}
		}
	}
	return canonical(vrps)
}

// toggle publishes or withdraws the authority's bench ROA: one prefix of at
// most a /20 out of its own resources, from an origin nothing else uses.
func (r *roaRig) toggle(a *ca.Authority) error {
	name := a.Name + "-bench"
	if r.issued[a.Name] {
		r.issued[a.Name] = false
		return a.DeleteROA(name)
	}
	p := a.Resources().Prefixes()[0]
	if p.Bits() < 20 && p.Family() == ipres.IPv4 {
		// The last /20 of the block: the generated worlds fill blocks
		// from the bottom.
		b := p.Addr().As4()
		last := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		last |= (uint32(1)<<(32-p.Bits()) - 1) &^ 0xFFF
		p = ipres.MustPrefixFrom(ipres.AddrFromUint32(last), 20)
	}
	r.issued[a.Name] = true
	_, err := a.IssueROA(name, benchASN, roa.Prefix{Prefix: p, MaxLength: p.Bits()})
	return err
}

// publish makes the CA-side change of an op.
func (r *roaRig) publish(kind string, parent int) error {
	id := r.tr.begin("ca.publish", parent)
	defer r.tr.end(id)
	if kind == opSlow && r.name == "steady_churn" {
		for _, a := range r.region {
			if err := r.toggle(a); err != nil {
				return err
			}
		}
		return nil
	}
	a := r.targets[r.next%len(r.targets)]
	r.next++
	return r.toggle(a)
}

func (r *roaRig) run(kind string, tm *timer) error {
	switch kind {
	case opChange, opSlow:
		return r.change(kind, tm)
	case opPoll:
		tm.start()
		res, err := r.sync(kind, r.relying, tm.root)
		if err == nil {
			err = r.rtr.push(res.VRPs, false, tm.root, convergeTimeout)
		}
		tm.stop()
		if err == nil {
			err = r.expectHealth(res)
		}
		if err == nil {
			err = r.rtr.checkRouters(digest(r.want))
		}
		return err
	case opBoot:
		tm.start()
		err := r.rtr.connect(convergeTimeout)
		tm.stop()
		if err == nil {
			err = r.rtr.checkRouters(digest(r.want))
		}
		return err
	default:
		r.rtr.traceSort(r.rng, r.want)
		tm.start()
		err := r.rtr.revalidate(r.routes, tm.root)
		tm.stop()
		return err
	}
}

// change publishes at the CA, syncs, feeds the cache and waits for the
// routers: the publication-to-router path.
func (r *roaRig) change(kind string, tm *timer) error {
	prev := r.want
	restart := kind == opSlow && r.name == "cold_bootstrap"
	var replaced *rtrRig
	tm.start()
	err := r.publish(kind, tm.root)
	var res *rp.Result
	if err == nil {
		if r.name == "cold_bootstrap" {
			r.relying = r.freshRP()
		}
		res, err = r.sync(kind, r.relying, tm.root)
	}
	switch {
	case err != nil:
	case restart:
		// Whole-stack restart: the RTR cache, its server and both routers
		// start empty too.
		id := r.tr.begin("rtr.restart", tm.root)
		var fresh *rtrRig
		if fresh, err = newRTRRig(res.VRPs, r.tr); err == nil {
			replaced, r.rtr = r.rtr, fresh
		}
		r.tr.end(id)
	default:
		err = r.rtr.push(res.VRPs, true, tm.root, convergeTimeout)
	}
	tm.stop()
	r.want = r.truth()
	if replaced != nil {
		r.rtr.closed, r.rtr.corrupt = replaced.close(), replaced.corrupt
	}
	if err != nil {
		return err
	}
	if err := r.expectHealth(res); err != nil {
		return err
	}
	if kind == opSlow && r.victim != "" && res.BreakerTrips == 0 {
		return fmt.Errorf("slow op was not a half-open probe of %s (retries %d, fast-fails %d)", r.victim, res.Retries, res.BreakerFastFails)
	}
	if r.tr.active() {
		id := r.tr.begin("rov.diff", 0)
		rov.DiffVRPs(prev, r.want)
		r.tr.end(id)
	}
	return r.rtr.checkRouters(digest(r.want))
}

func (r *roaRig) routers() *rtrRig { return r.rtr }

func (r *roaRig) close() {
	if r.rtr != nil {
		r.rtr.close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
}
