package geo

import (
	"fmt"
	"math/rand"

	"repro/internal/ipres"
)

// Streaming generation and analysis: at Internet scale (a holding per
// certified RC, millions at full deployment) the jurisdiction analysis must
// not materialize the holding set. SyntheticStream yields holdings one at a
// time and StreamAnalyzer folds them into Stats with O(countries) state, so
// the measurement runs in constant memory at any scale. The slice-based
// Synthetic and Analyze are retained as thin wrappers — both paths draw from
// the rng in the same order, so they produce identical holdings for a seed.

func (cfg SyntheticConfig) normalized() SyntheticConfig {
	if cfg.Holdings == 0 {
		cfg.Holdings = 100
	}
	if cfg.SubAllocationsPerHolding == 0 {
		cfg.SubAllocationsPerHolding = 5
	}
	return cfg
}

// SyntheticStream generates the same deterministic holding set as Synthetic,
// calling yield once per holding instead of accumulating a slice. Generation
// stops early if yield returns false. Memory use is constant in
// cfg.Holdings.
func SyntheticStream(cfg SyntheticConfig, yield func(Holding) bool) {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
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
		if !yield(h) {
			return
		}
	}
}

// StreamAnalyzer folds holdings into cross-border Stats one at a time.
type StreamAnalyzer struct {
	stats    Stats
	distinct map[Country]bool
}

// NewStreamAnalyzer returns an empty analyzer.
func NewStreamAnalyzer() *StreamAnalyzer {
	return &StreamAnalyzer{distinct: make(map[Country]bool)}
}

// Add folds one holding into the statistics.
func (a *StreamAnalyzer) Add(h Holding) {
	a.stats.Holdings++
	outside := h.OutsideJurisdiction()
	if len(outside) > 0 {
		a.stats.CrossBorder++
	}
	for _, c := range outside {
		a.distinct[c] = true
	}
}

// Stats returns the statistics accumulated so far.
func (a *StreamAnalyzer) Stats() Stats {
	s := a.stats
	s.Countries = len(a.distinct)
	return s
}
