// Package rpkirisk is a library for studying the risks of misbehaving RPKI
// authorities, reproducing Cooper, Heilman, Brogle, Reyzin and Goldberg,
// "On the Risk of Misbehaving RPKI Authorities" (HotNets 2013).
//
// The package is a facade over the implementation in internal/: it builds
// complete RPKI deployments with real DER-encoded certificates, ROAs,
// manifests and CRLs; serves them over a TCP publication protocol;
// validates them with a relying party into route-origin-validation state;
// feeds routers over the RPKI-to-Router protocol; propagates routes through
// a BGP simulator; and — the paper's contribution — plans, executes,
// measures and detects the attacks available to the authorities themselves.
//
// # Quick start
//
//	world, _ := rpkirisk.NewModelWorld(false)
//	result, _ := rpkirisk.Validate(context.Background(), world)
//	ix := result.Index()
//	state := ix.State(rov.Route{Prefix: ipres.MustParsePrefix("63.174.16.0/20"), Origin: 17054})
//
// # Whacking a ROA
//
//	planner := &rpkirisk.Planner{Manipulator: world.MustAuthority("sprint")}
//	plan, _ := planner.Plan(rpkirisk.Target{Holder: world.MustAuthority("continental"), Name: "cont-20"})
//	_ = planner.Execute(plan)
//
// See the examples/ directory for runnable programs and internal/experiments
// for the harness that regenerates every table and figure of the paper.
package rpkirisk

import (
	"context"
	"encoding/base64"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/ca"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/monitor"
	"repro/internal/repo"
	"repro/internal/rov"
	"repro/internal/rp"
	"repro/internal/rtr"
)

// Re-exported core types: the public API surface of the library.
type (
	// World is a complete RPKI deployment (authorities + repositories).
	World = modelgen.World
	// Authority is an RPKI certificate authority.
	Authority = ca.Authority
	// Planner computes and executes whack plans.
	Planner = core.Planner
	// Plan is an analyzed whack plan.
	Plan = core.Plan
	// Target identifies a ROA to whack.
	Target = core.Target
	// CircularSim couples relying-party fetching with BGP reachability.
	CircularSim = core.CircularSim
	// RepoSite places a publication point in the routed network.
	RepoSite = core.RepoSite
	// Watcher is the repository-abuse monitor.
	Watcher = monitor.Watcher
	// Network is the BGP simulator.
	Network = bgp.Network
	// Result is a relying-party sync outcome.
	Result = rp.Result
	// Experiment reproduces one paper artifact.
	Experiment = experiments.Experiment
)

// NewModelWorld builds the paper's Figure 2 model RPKI. withSprintCover
// additionally issues the covering ROA of Figure 5 (right).
func NewModelWorld(withSprintCover bool) (*World, error) {
	return modelgen.Figure2(experiments.Clock, withSprintCover)
}

// NewSyntheticWorld builds a production-sized synthetic deployment
// (≈1300 ROAs, the paper's footnote 4) with the given seed.
func NewSyntheticWorld(seed int64) (*World, error) {
	return modelgen.Synthetic(modelgen.ProductionSized(seed))
}

// NewLiveModelWorld is NewModelWorld with certificate validity anchored at
// the current wall clock instead of the fixed 2013 experiment epoch — for
// interactive use of the binaries, where relying parties validate at
// time.Now.
func NewLiveModelWorld(withSprintCover bool) (*World, error) {
	return modelgen.Figure2(time.Now, withSprintCover)
}

// NewLiveSyntheticWorld is NewSyntheticWorld anchored at the wall clock.
func NewLiveSyntheticWorld(seed int64) (*World, error) {
	cfg := modelgen.ProductionSized(seed)
	cfg.Clock = time.Now
	return modelgen.Synthetic(cfg)
}

// Validate syncs a relying party over the world's repositories in-process
// and returns the validated cache. Validation parallelizes across
// runtime.GOMAXPROCS workers.
func Validate(ctx context.Context, w *World) (*rp.Result, error) {
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock}, w.Anchor())
	return relying.Sync(ctx)
}

// Experiments returns the harness regenerating every table and figure of
// the paper.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment runs one experiment by ID ("all" for everything).
func RunExperiment(id string) ([]*experiments.Result, error) { return experiments.Run(id) }

// Table4 returns the paper's Table 4 rows.
func Table4() []geo.Holding { return geo.Table4() }

// Serve publishes every repository of the world on one TCP server bound to
// addr ("127.0.0.1:0" for ephemeral). It returns the bound address and a
// shutdown function.
func Serve(w *World, addr string) (string, func() error, error) {
	srv := repo.NewServer()
	for module, store := range w.Stores {
		srv.AddModule(module, store, nil)
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv.Close, nil
}

// ClientFor returns a repository client that dials every publication point
// at the given address, regardless of the host named in certificate SIAs.
// Use it with Serve to run a full TCP relying-party sync against a world
// whose certificates reference symbolic hosts.
func ClientFor(addr string, timeout time.Duration) *repo.Client {
	return &repo.Client{
		Timeout: timeout,
		Dial: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, network, addr)
		},
	}
}

// ValidateTCP syncs a relying party against a served world over real TCP.
func ValidateTCP(ctx context.Context, w *World, addr string) (*rp.Result, error) {
	relying := rp.New(rp.Config{
		Fetcher: ClientFor(addr, 10*time.Second),
		Clock:   w.Clock,
	}, w.Anchor())
	return relying.Sync(ctx)
}

// ServeRTR exposes a validated cache over the RPKI-to-Router protocol,
// returning the bound address, the live cache handle (update it with
// SetVRPs) and a shutdown function.
func ServeRTR(addr string, vrps []rov.VRP) (string, *rtr.Cache, func() error, error) {
	cache := rtr.NewCache(uint16(os.Getpid())) //nolint:gosec // session id only
	cache.SetVRPs(vrps)
	srv := rtr.NewServer(cache)
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", nil, nil, err
	}
	return bound, cache, srv.Close, nil
}

// WriteTAL writes a trust anchor locator for the world's anchor: the
// publication URI on the first line and the base64 DER certificate after
// it.
func WriteTAL(w *World, path string) error {
	anchor := w.Anchor()
	content := anchor.URI.String() + "\n" + base64.StdEncoding.EncodeToString(anchor.CertDER) + "\n"
	return os.WriteFile(path, []byte(content), 0o644)
}

// ReadTAL parses a trust anchor locator written by WriteTAL.
func ReadTAL(path string) (rp.TrustAnchor, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return rp.TrustAnchor{}, err
	}
	lines := strings.SplitN(strings.TrimSpace(string(content)), "\n", 2)
	if len(lines) != 2 {
		return rp.TrustAnchor{}, fmt.Errorf("rpkirisk: malformed TAL %q", path)
	}
	uri, _, err := repo.ParseURI(strings.TrimSpace(lines[0]))
	if err != nil {
		return rp.TrustAnchor{}, err
	}
	der, err := base64.StdEncoding.DecodeString(strings.TrimSpace(lines[1]))
	if err != nil {
		return rp.TrustAnchor{}, fmt.Errorf("rpkirisk: bad TAL base64: %w", err)
	}
	return rp.TrustAnchor{CertDER: der, URI: uri}, nil
}

// MustParsePrefix re-exports prefix parsing for example programs.
func MustParsePrefix(s string) ipres.Prefix { return ipres.MustParsePrefix(s) }

// MustParseAddr re-exports address parsing for example programs.
func MustParseAddr(s string) ipres.Addr { return ipres.MustParseAddr(s) }
