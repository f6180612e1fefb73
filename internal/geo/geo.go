// Package geo implements the paper's Section 3.2 jurisdiction analysis:
// which resource certificates cover address space used in countries outside
// the legal jurisdiction of the issuing RIR, so that a whack crosses an
// international border and the target has no local recourse.
//
// The paper's measurement used BGP data, RIR allocation files, and CAIDA's
// AS-to-organization mapping. Those inputs are not redistributable here, so
// this package carries (a) the paper's Table 4 rows verbatim as a seeded
// dataset, and (b) a deterministic synthetic allocation model calibrated to
// the paper's qualitative finding that "cross-country certification is not
// uncommon", for rate measurements at production scale.
package geo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ipres"
)

// Country is an ISO 3166-1 alpha-2 code (plus the RIR stats conventions
// "EU" and "AP" for multi-country registrations).
type Country string

// RIR identifies a regional internet registry.
type RIR string

// The five RIRs.
const (
	ARIN    RIR = "ARIN"
	RIPE    RIR = "RIPE"
	APNIC   RIR = "APNIC"
	LACNIC  RIR = "LACNIC"
	AFRINIC RIR = "AFRINIC"
)

// rirMembers maps each RIR to its service-region countries (abridged to
// the countries appearing in the analysis; a country absent from a region
// list is treated as outside that region).
var rirMembers = map[RIR]map[Country]bool{
	// Note: Guam (GU), American Samoa (AS) and the Marshall Islands (MH)
	// are in APNIC's service region despite their US affiliation — which
	// is why the paper's Table 4 counts them outside ARIN's jurisdiction.
	ARIN:    set("US", "CA", "PR", "VI", "UM"),
	RIPE:    set("GB", "FR", "NL", "DE", "SE", "RU", "IT", "ES", "EU", "YE", "AE", "TR", "NO", "FI", "DK", "CH", "AT", "BE", "PL", "CZ", "GR", "PT", "IE", "SA", "IL"),
	APNIC:   set("CN", "TW", "JP", "AU", "IN", "HK", "PH", "SG", "KR", "NZ", "MY", "TH", "VN", "ID", "PK", "BD", "MH", "AP", "GU", "AS"),
	LACNIC:  set("MX", "BR", "AR", "CO", "CL", "PE", "EC", "BO", "VE", "GT", "NI", "HN", "CR", "PA", "AN", "UY", "PY"),
	AFRINIC: set("ZA", "NG", "EG", "KE", "ZW", "TN", "MA", "GH", "TZ"),
}

func set(codes ...Country) map[Country]bool {
	m := make(map[Country]bool, len(codes))
	for _, c := range codes {
		m[c] = true
	}
	return m
}

// InRegion reports whether country is inside the RIR's service region.
func InRegion(r RIR, c Country) bool { return rirMembers[r][c] }

// Holding is one resource certificate with the countries in which its
// covered address space is used (derived from suballocations and BGP
// origination in the paper's methodology).
type Holding struct {
	// Holder is the organization holding the RC.
	Holder string
	// RC is the certified resource (one prefix in Table 4).
	RC ipres.Prefix
	// ParentRIR is the RIR that (transitively) certified the holding.
	ParentRIR RIR
	// Countries are where the covered space is used.
	Countries []Country
}

// OutsideJurisdiction returns the covered countries outside the parent
// RIR's service region — the ROAs the RIR could whack while being
// "accountable only to their member countries".
func (h Holding) OutsideJurisdiction() []Country {
	var out []Country
	for _, c := range h.Countries {
		if !InRegion(h.ParentRIR, c) {
			out = append(out, c)
		}
	}
	return out
}

// Table4 returns the paper's nine salient examples verbatim: RCs and the
// countries they cover that are outside the jurisdiction of their parent
// RIR.
func Table4() []Holding {
	mk := func(holder, rc string, rir RIR, countries ...Country) Holding {
		return Holding{Holder: holder, RC: ipres.MustParsePrefix(rc), ParentRIR: rir, Countries: countries}
	}
	return []Holding{
		mk("Level3", "8.0.0.0/8", ARIN, "RU", "FR", "NL", "CN", "TW", "JP", "GU", "AU", "GB", "MX"),
		mk("Cogent", "38.0.0.0/8", ARIN, "GU", "GT", "HK", "GB", "IN", "PH", "MX"),
		mk("Verizon", "65.192.0.0/11", ARIN, "CO", "IT", "AN", "AS", "GB", "EU", "SG"),
		mk("Sprint", "208.0.0.0/11", ARIN, "AS", "BO", "CO", "ES", "EC"),
		mk("Sprint", "63.160.0.0/12", ARIN, "FR", "CO", "YE", "AN", "HN"),
		mk("Tata Comm.", "64.86.0.0/16", ARIN, "GU", "CO", "MH", "HN", "PH", "ZW"),
		mk("Columbus", "63.245.0.0/17", ARIN, "NI", "GT", "CO", "AN", "HN", "MX"),
		mk("Servcorp", "61.28.192.0/19", APNIC, "FR", "AE", "CA", "US", "GB"),
		mk("Resilans", "192.71.0.0/16", RIPE, "US", "IN"),
	}
}

// FormatTable renders holdings as the paper's Table 4: holder, RC, and the
// covered countries *outside* the parent RIR's jurisdiction.
func FormatTable(holdings []Holding) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-18s %s\n", "Holder", "RC", "Countries (outside parent RIR)")
	for _, h := range holdings {
		outside := h.OutsideJurisdiction()
		codes := make([]string, len(outside))
		for i, c := range outside {
			codes[i] = string(c)
		}
		fmt.Fprintf(&sb, "%-12s %-18s %s\n", h.Holder, h.RC, strings.Join(codes, ","))
	}
	return sb.String()
}

// SyntheticConfig sizes a synthetic allocation model for rate measurement.
type SyntheticConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Holdings is the number of RCs to generate.
	Holdings int
	// CrossBorderProb is the per-suballocation probability that the space
	// is used outside the issuing RIR's region. The paper found
	// cross-country certification "not uncommon" in 2013 allocation data;
	// legacy IPv4 blocks were suballocated "with little regard for
	// questions of international jurisdiction".
	CrossBorderProb float64
	// SubAllocationsPerHolding is how many country-labeled suballocations
	// each RC has.
	SubAllocationsPerHolding int
}

var allCountries = func() []Country {
	var out []Country
	for _, members := range rirMembers {
		for c := range members {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}()

var allRIRs = []RIR{ARIN, RIPE, APNIC, LACNIC, AFRINIC}

// Synthetic generates a deterministic synthetic holding set.
func Synthetic(cfg SyntheticConfig) []Holding {
	if cfg.Holdings == 0 {
		cfg.Holdings = 100
	}
	if cfg.SubAllocationsPerHolding == 0 {
		cfg.SubAllocationsPerHolding = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	holdings := make([]Holding, 0, cfg.Holdings)
	for i := 0; i < cfg.Holdings; i++ {
		rir := allRIRs[rng.Intn(len(allRIRs))]
		inRegion := membersOf(rir)
		h := Holding{
			Holder:    fmt.Sprintf("org-%03d", i),
			RC:        ipres.MustPrefixFrom(ipres.AddrFromUint32(uint32(i)<<16), 16),
			ParentRIR: rir,
		}
		for j := 0; j < cfg.SubAllocationsPerHolding; j++ {
			if rng.Float64() < cfg.CrossBorderProb {
				// Pick a country outside the region.
				for {
					c := allCountries[rng.Intn(len(allCountries))]
					if !InRegion(rir, c) {
						h.Countries = append(h.Countries, c)
						break
					}
				}
			} else if len(inRegion) > 0 {
				h.Countries = append(h.Countries, inRegion[rng.Intn(len(inRegion))])
			}
		}
		holdings = append(holdings, h)
	}
	return holdings
}

func membersOf(r RIR) []Country {
	var out []Country
	for c := range rirMembers[r] {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a holding set's cross-border exposure.
type Stats struct {
	// Holdings is the total number of RCs.
	Holdings int
	// CrossBorder is how many RCs cover at least one out-of-region country.
	CrossBorder int
	// Countries is the total number of distinct out-of-region countries
	// covered.
	Countries int
}

// Rate returns the fraction of RCs with cross-border coverage.
func (s Stats) Rate() float64 {
	if s.Holdings == 0 {
		return 0
	}
	return float64(s.CrossBorder) / float64(s.Holdings)
}

// Analyze computes cross-border statistics over holdings.
func Analyze(holdings []Holding) Stats {
	s := Stats{Holdings: len(holdings)}
	distinct := make(map[Country]bool)
	for _, h := range holdings {
		outside := h.OutsideJurisdiction()
		if len(outside) > 0 {
			s.CrossBorder++
		}
		for _, c := range outside {
			distinct[c] = true
		}
	}
	s.Countries = len(distinct)
	return s
}
