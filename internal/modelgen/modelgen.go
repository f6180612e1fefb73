// Package modelgen constructs RPKI deployments: the paper's exact model
// hierarchy (Figure 2) and measurement-driven synthetic deployments sized
// like the production RPKI of 2013 (≈1200–1400 ROAs, the paper's footnote 4)
// or larger.
package modelgen

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rp"
)

// World is a complete RPKI deployment: authorities, their publication
// points, and the trust anchor.
type World struct {
	// TA is the trust anchor.
	TA *ca.Authority
	// Authorities maps name → authority (including the TA).
	Authorities map[string]*ca.Authority
	// Stores maps module name → publication point, ready to serve or to
	// use as an in-process rp.Fetcher.
	Stores rp.StoreFetcher
	// Clock is the time source shared by all authorities.
	Clock func() time.Time
}

// Anchor returns the trust-anchor seed for a relying party.
func (w *World) Anchor() rp.TrustAnchor {
	return rp.TrustAnchor{CertDER: w.TA.Cert.Raw, URI: w.TA.URI}
}

// Authority returns a named authority.
func (w *World) Authority(name string) (*ca.Authority, error) {
	a, ok := w.Authorities[name]
	if !ok {
		return nil, fmt.Errorf("modelgen: no authority %q", name)
	}
	return a, nil
}

// MustAuthority is Authority that panics on error.
func (w *World) MustAuthority(name string) *ca.Authority {
	a, err := w.Authority(name)
	if err != nil {
		panic(err)
	}
	return a
}

// builder accumulates a world under construction.
type builder struct {
	w   *World
	cfg ca.Config
}

func newBuilder(clock func() time.Time) *builder {
	if clock == nil {
		epoch := time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)
		clock = func() time.Time { return epoch }
	}
	return &builder{
		w: &World{
			Authorities: make(map[string]*ca.Authority),
			Stores:      rp.StoreFetcher{},
			Clock:       clock,
		},
		cfg: ca.Config{Clock: clock},
	}
}

func (b *builder) trustAnchor(name string, resources string) (*ca.Authority, error) {
	store := repo.NewStore()
	b.w.Stores[name] = store
	ta, err := ca.NewTrustAnchor(name, ipres.MustParseSet(resources), store,
		repo.URI{Host: name + ".example:8873", Module: name}, b.cfg)
	if err != nil {
		return nil, err
	}
	b.w.TA = ta
	b.w.Authorities[name] = ta
	return ta, nil
}

func (b *builder) child(parent *ca.Authority, name, resources string) (*ca.Authority, error) {
	store := repo.NewStore()
	b.w.Stores[name] = store
	child, err := parent.CreateChild(name, ipres.MustParseSet(resources), store,
		repo.URI{Host: name + ".example:8873", Module: name})
	if err != nil {
		return nil, err
	}
	b.w.Authorities[name] = child
	return child, nil
}

// Figure2 builds the paper's model RPKI excerpt:
//
//	ARIN (trust anchor, 63.0.0.0/8)
//	└── Sprint (63.160.0.0/12)
//	    ├── ROA (63.168.0.0/16-24, AS1239)     — "subprefixes up to 24"
//	    ├── ROA (63.170.0.0/16-24, AS1239)     — "subprefixes up to 24"
//	    ├── ETB S.A. ESP. (63.161.0.0/16)
//	    │   └── ROA (63.161.0.0/16, AS19429)
//	    └── Continental Broadband (63.174.16.0/20)
//	        ├── ROA (63.174.16.0/20, AS17054)  — Section 3.1's first target
//	        ├── ROA (63.174.16.0/22, AS7341)   — Figure 3's target
//	        ├── ROA (63.174.20.0/22-24, AS26821)
//	        ├── ROA (63.174.25.0/24, AS17054)
//	        └── ROA (63.174.26.0/23, AS17054)
//
// withSprintCover additionally issues Sprint's (63.160.0.0/12-13, AS1239)
// ROA — the new ROA of Figure 5 (right) / Side Effect 5.
func Figure2(clock func() time.Time, withSprintCover bool) (*World, error) {
	b := newBuilder(clock)
	arin, err := b.trustAnchor("arin", "63.0.0.0/8")
	if err != nil {
		return nil, err
	}
	sprint, err := b.child(arin, "sprint", "63.160.0.0/12")
	if err != nil {
		return nil, err
	}
	etb, err := b.child(sprint, "etb", "63.161.0.0/16")
	if err != nil {
		return nil, err
	}
	continental, err := b.child(sprint, "continental", "63.174.16.0/20")
	if err != nil {
		return nil, err
	}
	issue := func(a *ca.Authority, name string, asn ipres.ASN, prefix string) error {
		_, err := a.IssueROA(name, asn, roa.MustParsePrefix(prefix))
		return err
	}
	steps := []error{
		issue(sprint, "sprint-168", 1239, "63.168.0.0/16-24"),
		issue(sprint, "sprint-170", 1239, "63.170.0.0/16-24"),
		issue(etb, "etb", 19429, "63.161.0.0/16"),
		issue(continental, "cont-20", 17054, "63.174.16.0/20"),
		issue(continental, "cont-22", 7341, "63.174.16.0/22"),
		issue(continental, "cont-20-24", 26821, "63.174.20.0/22-24"),
		issue(continental, "cont-25", 17054, "63.174.25.0/24"),
		issue(continental, "cont-26", 17054, "63.174.26.0/23"),
	}
	if withSprintCover {
		steps = append(steps, issue(sprint, "sprint-cover", 1239, "63.160.0.0/12-13"))
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	return b.w, nil
}

// SyntheticConfig sizes a synthetic deployment.
type SyntheticConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// RIRs is the number of top-level registries (default 5).
	RIRs int
	// ISPsPerRIR is the number of mid-level authorities per RIR.
	ISPsPerRIR int
	// ROAsPerISP is the number of ROAs each ISP issues directly.
	ROAsPerISP int
	// CustomersPerISP adds third-level authorities with one ROA each,
	// exercising deeper hierarchies.
	CustomersPerISP int
	// Clock is the shared time source (default: HotNets '13 epoch).
	Clock func() time.Time
}

// ProductionSized returns the configuration matching the paper's
// footnote 4: "today's production RPKI deployment ... about 1200-1400
// ROAs". 5 RIRs × 13 ISPs × (10 ROAs + 10 customers × 1 ROA) = 1300 ROAs.
func ProductionSized(seed int64) SyntheticConfig {
	return SyntheticConfig{
		Seed:            seed,
		RIRs:            5,
		ISPsPerRIR:      13,
		ROAsPerISP:      10,
		CustomersPerISP: 10,
	}
}

// Synthetic builds a randomized deployment of the given size. Address
// space is carved deterministically: RIR r gets (8+r).0.0.0/8, each ISP a
// /16 within it, each customer a /24 within its ISP. Generation uses the
// authorities' bulk mode so manifests and CRLs are signed once per
// publication point rather than once per object.
func Synthetic(cfg SyntheticConfig) (*World, error) {
	if cfg.RIRs == 0 {
		cfg.RIRs = 5
	}
	if cfg.ISPsPerRIR == 0 {
		cfg.ISPsPerRIR = 4
	}
	if cfg.ROAsPerISP == 0 {
		cfg.ROAsPerISP = 4
	}
	if cfg.RIRs > 60 {
		return nil, fmt.Errorf("modelgen: too many RIRs (%d)", cfg.RIRs)
	}
	// Bounds follow the deterministic address-carving scheme below: ISPs
	// occupy the second octet, ROA blocks the third (16 per ISP), and
	// customers the 160..250 range of the third octet.
	if cfg.ISPsPerRIR > 250 || cfg.CustomersPerISP > 90 || cfg.ROAsPerISP > 10 {
		return nil, fmt.Errorf("modelgen: per-level fanout too large")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := newBuilder(cfg.Clock)
	ta, err := b.trustAnchor("iana", "0.0.0.0/0")
	if err != nil {
		return nil, err
	}
	asnCounter := ipres.ASN(64496)
	nextASN := func() ipres.ASN {
		asnCounter++
		return asnCounter
	}
	ta.BeginBulk()
	for r := 0; r < cfg.RIRs; r++ {
		rirName := fmt.Sprintf("rir-%d", r)
		rirPrefix := fmt.Sprintf("%d.0.0.0/8", 8+r)
		rir, err := b.child(ta, rirName, rirPrefix)
		if err != nil {
			return nil, err
		}
		rir.BeginBulk()
		for i := 0; i < cfg.ISPsPerRIR; i++ {
			ispName := fmt.Sprintf("%s-isp-%d", rirName, i)
			ispPrefix := fmt.Sprintf("%d.%d.0.0/16", 8+r, i)
			isp, err := b.child(rir, ispName, ispPrefix)
			if err != nil {
				return nil, err
			}
			isp.BeginBulk()
			ispASN := nextASN()
			for k := 0; k < cfg.ROAsPerISP; k++ {
				// Each ROA authorizes a /20 slice; some with maxLength 24
				// (the "up to 24" pattern), some exact.
				block := fmt.Sprintf("%d.%d.%d.0/20", 8+r, i, k*16)
				maxLen := ""
				if rng.Intn(2) == 0 {
					maxLen = "-24"
				}
				name := fmt.Sprintf("%s-roa-%d", ispName, k)
				if _, err := isp.IssueROA(name, ispASN, roa.MustParsePrefix(block+maxLen)); err != nil {
					return nil, err
				}
			}
			for c := 0; c < cfg.CustomersPerISP; c++ {
				custName := fmt.Sprintf("%s-cust-%d", ispName, c)
				custPrefix := fmt.Sprintf("%d.%d.%d.0/24", 8+r, i, 160+c)
				cust, err := b.child(isp, custName, custPrefix)
				if err != nil {
					return nil, err
				}
				if _, err := cust.IssueROA(custName+"-roa", nextASN(), roa.MustParsePrefix(custPrefix)); err != nil {
					return nil, err
				}
			}
			if err := isp.EndBulk(); err != nil {
				return nil, err
			}
		}
		if err := rir.EndBulk(); err != nil {
			return nil, err
		}
	}
	if err := ta.EndBulk(); err != nil {
		return nil, err
	}
	return b.w, nil
}

// CountROAs returns the number of ROAs across the world's authorities.
func (w *World) CountROAs() int {
	n := 0
	for _, a := range w.Authorities {
		n += len(a.ROAs())
	}
	return n
}
