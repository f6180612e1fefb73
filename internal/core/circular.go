package core

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/ipres"
	"repro/internal/repo"
	"repro/internal/rov"
	"repro/internal/rp"
)

// RepoSite places a publication point inside the routed Internet: the
// module is served at Addr, which sits inside RoutePrefix originated by
// OriginAS. Retrieving the module's objects requires a usable BGP route for
// that prefix — the root of the paper's Side Effect 7 circularity when the
// ROA authorizing the route is itself stored in the module.
type RepoSite struct {
	Module      string
	Addr        ipres.Addr
	RoutePrefix ipres.Prefix
	OriginAS    ipres.ASN
}

// Route returns the BGP route whose validity gates access to the site.
func (s RepoSite) Route() rov.Route {
	return rov.Route{Prefix: s.RoutePrefix, Origin: s.OriginAS}
}

// DependencyEdge records that validating module From's availability
// depends on an object published in module To.
type DependencyEdge struct {
	From, To string
}

// FindCircularDependencies detects publication points whose route validity
// depends on ROAs stored in themselves or in a cycle of repositories. The
// vrpsByModule map gives, for each module, the VRPs of ROAs *stored* there.
// Returned cycles are lists of module names; a single-element cycle is the
// paper's exact example (a repository hosting the ROA for its own route).
func FindCircularDependencies(sites map[string]RepoSite, vrpsByModule map[string][]rov.VRP) [][]string {
	// Build edges: From needs To if some VRP stored in To matches From's
	// route (it is a matching ROA that keeps the route valid).
	adj := make(map[string][]string)
	for from, site := range sites {
		route := site.Route()
		for to, vrps := range vrpsByModule {
			for _, v := range vrps {
				if v.Matches(route) {
					adj[from] = append(adj[from], to)
					break
				}
			}
		}
	}
	// Find elementary cycles with a bounded DFS (graphs here are tiny).
	var cycles [][]string
	seenCycle := make(map[string]bool)
	modules := make([]string, 0, len(sites))
	for m := range sites {
		modules = append(modules, m)
	}
	sort.Strings(modules)
	for _, start := range modules {
		var path []string
		onPath := make(map[string]bool)
		var dfs func(cur string)
		dfs = func(cur string) {
			path = append(path, cur)
			onPath[cur] = true
			for _, next := range adj[cur] {
				if next == start {
					cycle := append([]string(nil), path...)
					key := canonicalCycleKey(cycle)
					if !seenCycle[key] {
						seenCycle[key] = true
						cycles = append(cycles, cycle)
					}
					continue
				}
				if !onPath[next] && next > start { // canonical start = smallest
					dfs(next)
				}
			}
			path = path[:len(path)-1]
			delete(onPath, cur)
		}
		dfs(start)
	}
	return cycles
}

func canonicalCycleKey(cycle []string) string {
	// Rotate so the smallest element is first.
	min := 0
	for i, m := range cycle {
		if m < cycle[min] {
			min = i
		}
	}
	key := ""
	for i := range cycle {
		key += cycle[(min+i)%len(cycle)] + "→"
	}
	return key
}

// CircularSim couples a relying party, the repositories it fetches, and a
// BGP data plane whose validation state gates those very fetches — the
// full Figure 1 loop. The repositories are served over TCP by one loopback
// repo.Server and fetched with a repo.Client, so a delivery fault and a
// missing route both reach the relying party as they would in deployment:
// through the client's failure path. Each Step performs one relying-party
// sync against the network state left by the previous step.
type CircularSim struct {
	// Anchors seed validation.
	Anchors []rp.TrustAnchor
	// Stores holds the publication points the sim serves, by module.
	Stores rp.StoreFetcher
	// Sites places each module in the network.
	Sites map[string]RepoSite
	// Network is the BGP topology (must already contain the originations
	// for every site's RoutePrefix).
	Network *bgp.Network
	// RPAS is the AS where the relying party (and its router) sits.
	RPAS ipres.ASN
	// Clock supplies validation time.
	Clock func() time.Time
	// Policy is the RP's missing-information policy.
	Policy rp.MissingPolicy
	// PostSync, if set, transforms the validated cache after each sync
	// before it takes effect — the hook for fail-safe layers such as
	// internal/suspenders.
	PostSync func(vrps []rov.VRP) []rov.VRP
	// StaleTTL, when positive, enables the relying party's last-known-good
	// fallback across steps: a publication point gated off by its own route
	// (the Side Effect 7 circularity) is served from its last cleanly
	// validated snapshot for at most StaleTTL, so a transient fault no
	// longer latches permanently. 0 keeps the brittle paper behavior.
	StaleTTL time.Duration

	// server serves Stores from the first Step until Close; faults holds
	// each module's fault plan, which the route gate also drives.
	server *repo.Server
	faults map[string]*repo.Faults
	// relying is the persistent relying party driving every step (created on
	// the first Step). Persistence is what lets the LKG store survive from
	// one sync to the next.
	relying *rp.RelyingParty

	// lastVRPs is the validated cache from the previous step; it
	// determines reachability during the CURRENT step.
	lastVRPs []rov.VRP
	// started flips after the first sync; the bootstrap sync is ungated
	// (an RP with an empty cache treats every route as unknown).
	started bool
	// overrides lists modules manually whitelisted by the operator (the
	// paper notes recovery "can be fixed manually, but there are no
	// recommended procedures").
	overrides map[string]bool
}

// StepReport summarizes one sync round.
type StepReport struct {
	// Unreachable lists modules whose fetch was blocked by route validity.
	Unreachable []string
	// VRPCount is the size of the validated cache after the step.
	VRPCount int
	// StaleFallbacks counts publication points served from the relying
	// party's last-known-good store this step (always 0 with StaleTTL 0).
	StaleFallbacks int
	// Diagnostics carries the RP's diagnostics.
	Diagnostics []rp.Diagnostic
}

// ManualOverride whitelists a module, modeling out-of-band operator
// intervention (e.g. a static route or manual rsync).
func (s *CircularSim) ManualOverride(module string, on bool) {
	if s.overrides == nil {
		s.overrides = make(map[string]bool)
	}
	s.overrides[module] = on
}

// VRPs returns the current validated cache.
func (s *CircularSim) VRPs() []rov.VRP { return s.lastVRPs }

// Faults returns the fault plan the served module is delivered through:
// Corrupt or Drop an object to inject a transient fault, Restore("") to fix
// it. The route gate owns the plan's Refuse switch for every site.
func (s *CircularSim) Faults(module string) *repo.Faults {
	if s.faults == nil {
		s.faults = make(map[string]*repo.Faults)
	}
	f := s.faults[module]
	if f == nil {
		f = repo.NewFaults()
		s.faults[module] = f
	}
	return f
}

// Close stops the repository server. The sim cannot Step after Close.
func (s *CircularSim) Close() error {
	if s.server == nil {
		return nil
	}
	return s.server.Close()
}

// serve starts the repository server and the relying party that fetches
// from it: every module behind one loopback listener, dialed whatever host
// the certificates name. The relying party persists across steps — required
// for the last-known-good store (and the verification cache) to carry state
// from one sync to the next.
func (s *CircularSim) serve() error {
	srv := repo.NewServer()
	for module, store := range s.Stores {
		srv.AddModule(module, store, s.Faults(module))
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.server = srv
	client := &repo.Client{
		Dial: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	}
	s.relying = rp.New(rp.Config{
		Fetcher:  client,
		Clock:    s.Clock,
		Policy:   s.Policy,
		StaleTTL: s.StaleTTL,
	}, s.Anchors...)
	return nil
}

// gate refuses every site the relying party's router has no usable route
// to, returning the refused modules. The bootstrap step and manually
// overridden sites are never refused. The network does not change during a
// sync, so the gate set here is the one every fetch of the sync meets.
func (s *CircularSim) gate() (map[string]bool, error) {
	refused := make(map[string]bool)
	for module, site := range s.Sites {
		reachable := !s.started || s.overrides[module]
		if !reachable {
			ok, err := s.Network.CanReach(s.RPAS, site.Addr, site.OriginAS)
			if err != nil {
				return nil, err
			}
			reachable = ok
		}
		s.Faults(module).Refuse(!reachable)
		if !reachable {
			refused[module] = true
		}
	}
	return refused, nil
}

// Step runs one relying-party sync with reachability gated on the previous
// step's validated cache, then installs the new cache into the network.
// The first Step bootstraps ungated (a fresh relying party with an empty
// cache treats every route as unknown, hence usable).
func (s *CircularSim) Step(ctx context.Context) (*StepReport, error) {
	if s.relying == nil {
		if err := s.serve(); err != nil {
			return nil, err
		}
	}
	// Install the previous cache into the network so reachability during
	// this step reflects the router's current validation state.
	s.Network.SetSharedIndex(rov.NewIndex(s.lastVRPs...))
	if err := s.Network.Converge(); err != nil {
		return nil, err
	}
	refused, err := s.gate()
	if err != nil {
		return nil, err
	}
	result, err := s.relying.Sync(ctx)
	if err != nil {
		return nil, err
	}
	s.started = true
	vrps := result.VRPs
	if s.PostSync != nil {
		vrps = s.PostSync(vrps)
	}
	s.lastVRPs = vrps
	report := &StepReport{
		Unreachable:    unreachable(refused, result.Diagnostics),
		VRPCount:       len(s.lastVRPs),
		StaleFallbacks: result.StaleFallbacks,
		Diagnostics:    result.Diagnostics,
	}
	// The new cache takes effect for the data plane going forward.
	s.Network.SetSharedIndex(rov.NewIndex(s.lastVRPs...))
	if err := s.Network.Converge(); err != nil {
		return nil, err
	}
	return report, nil
}

// unreachable lists, once each and sorted, the refused modules the sync
// reported it could not fetch: a refused site the walk never reached (its
// parent dropped out) was not blocked by its route.
func unreachable(refused map[string]bool, diags []rp.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		point := d.Object == "" && (d.Kind == rp.DiagFetchFailure || d.Kind == rp.DiagPointUnreachable)
		if point && refused[d.Module] {
			out = append(out, d.Module)
			delete(refused, d.Module)
		}
	}
	sort.Strings(out)
	return out
}

// RouteState reports the current validation state of a site's route under
// the simulator's cache.
func (s *CircularSim) RouteState(module string) (rov.State, error) {
	site, ok := s.Sites[module]
	if !ok {
		return rov.Unknown, fmt.Errorf("core: unknown module %q", module)
	}
	ix := rov.NewIndex(s.lastVRPs...)
	return ix.State(site.Route()), nil
}
