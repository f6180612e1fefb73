package main

import (
	"math/rand"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
)

const (
	bulkVRPs      = 200_000
	bulkVRPsSmall = 2_000
	// smallDelta VRPs are flipped by a change op; the pool they are drawn
	// from is spread over the whole set.
	smallDelta = 10
	poolSize   = 1_000
	// bulkOctet is the /8 whose VRPs the slow op withdraws and restores at
	// once: a tenth of the set, a whacked RIR-sized subtree.
	bulkOctet       = 100
	bulkTimeout     = 5 * time.Second
	checkEveryDelta = 20
)

// bulkRig is rtr_bulk: no RPKI objects, a seeded VRP set of live-RPKI size
// fed straight to the RTR cache.
type bulkRig struct {
	tr  *tracer
	rng *rand.Rand
	rtr *rtrRig

	stable  []rov.VRP // never withdrawn; routes derive from these
	pool    []rov.VRP // flipped smallDelta at a time
	present []bool    // pool[i] is announced
	subtree []rov.VRP // withdrawn and restored whole
	whacked bool      // subtree is withdrawn
	current []rov.VRP // what the cache was last given, canonical

	routes  routeSet
	changes int
}

// genVRPs makes n distinct-prefix VRPs: 80 % IPv4 /16–/24, 20 % IPv6
// /32–/48, a tenth of the total inside bulkOctet/8. All three slices are
// canonical.
func genVRPs(rng *rand.Rand, n int) (stable, pool, subtree []rov.VRP) {
	seen := make(map[ipres.Prefix]bool, n)
	gen := func(v6, inSubtree bool) rov.VRP {
		for {
			var p ipres.Prefix
			var cap int
			if v6 {
				var b [16]byte
				b[0], b[1] = 0x20, 0x01
				rng.Read(b[2:6])
				p, cap = ipres.MustPrefixFrom(ipres.AddrFrom16(b), 32+rng.Intn(17)), 48
			} else {
				octet := uint32(bulkOctet)
				for !inSubtree && octet == bulkOctet {
					octet = 1 + uint32(rng.Intn(199))
				}
				p, cap = ipres.MustPrefixFrom(ipres.AddrFromUint32(octet<<24|rng.Uint32()>>8), 16+rng.Intn(9)), 24
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			return rov.VRP{Prefix: p, MaxLength: p.Bits() + rng.Intn(cap-p.Bits()+1), ASN: ipres.ASN(1 + rng.Intn(400_000))}
		}
	}
	for i := 0; i < n; i++ {
		switch {
		case i%10 == 0:
			subtree = append(subtree, gen(false, true))
		case i%5 == 1:
			stable = append(stable, gen(true, false))
		default:
			stable = append(stable, gen(false, false))
		}
	}
	// Draw the small-delta pool out of the stable set, seeded.
	rng.Shuffle(len(stable), func(i, j int) { stable[i], stable[j] = stable[j], stable[i] })
	k := poolSize
	if k > len(stable)/2 {
		k = len(stable) / 2
	}
	pool, stable = stable[:k:k], stable[k:]
	return canonical(stable), canonical(pool), canonical(subtree)
}

func setupBulk(_ string, cfg runConfig, tr *tracer, baseline func()) (rig, error) {
	b := &bulkRig{tr: tr, rng: rand.New(rand.NewSource(cfg.Seed))}
	n := bulkVRPs
	if cfg.Small {
		n = bulkVRPsSmall
	}
	b.stable, b.pool, b.subtree = genVRPs(b.rng, n)
	b.present = make([]bool, len(b.pool))
	for i := range b.present {
		b.present[i] = true
	}
	b.routes = makeRoutes(b.rng, b.stable, cfg.routes())
	b.current = b.build()
	baseline()
	var err error
	if b.rtr, err = newRTRRig(b.current, tr); err != nil {
		return nil, err
	}
	if err := b.rtr.checkRouters(digest(b.current)); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// build merges the announced parts into one canonical set.
func (b *bulkRig) build() []rov.VRP {
	announced := make([]rov.VRP, 0, len(b.pool))
	for i, v := range b.pool {
		if b.present[i] {
			announced = append(announced, v)
		}
	}
	out := merge(b.stable, announced)
	if !b.whacked {
		out = merge(out, b.subtree)
	}
	return out
}

// merge joins two canonical, disjoint sets.
func merge(a, b []rov.VRP) []rov.VRP {
	out := make([]rov.VRP, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].Compare(b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

func (b *bulkRig) run(kind string, tm *timer) error {
	switch kind {
	case opChange:
		for _, i := range b.rng.Perm(len(b.pool))[:smallDelta] {
			b.present[i] = !b.present[i]
		}
		b.changes++
		return b.push(tm, convergeTimeout, b.changes%checkEveryDelta == 0)
	case opSlow:
		b.whacked = !b.whacked
		return b.push(tm, bulkTimeout, true)
	case opPoll:
		tm.start()
		err := b.rtr.push(b.current, false, tm.root, convergeTimeout)
		tm.stop()
		return err
	case opBoot:
		tm.start()
		err := b.rtr.connect(bulkTimeout)
		tm.stop()
		if err == nil {
			err = b.rtr.checkRouters(digest(b.current))
		}
		return err
	default:
		b.rtr.traceSort(b.rng, b.current)
		tm.start()
		err := b.rtr.revalidate(b.routes, tm.root)
		tm.stop()
		return err
	}
}

// push hands the rebuilt set to the cache and waits for the routers; the
// routers' digest is checked outside the timed interval.
func (b *bulkRig) push(tm *timer, timeout time.Duration, check bool) error {
	prev, next := b.current, b.build()
	tm.start()
	err := b.rtr.push(next, true, tm.root, timeout)
	tm.stop()
	b.current = next
	if err != nil {
		return err
	}
	if b.tr.active() {
		id := b.tr.begin("rov.diff", 0)
		rov.DiffVRPs(prev, next)
		b.tr.end(id)
	}
	if check {
		return b.rtr.checkRouters(digest(next))
	}
	return nil
}

func (b *bulkRig) routers() *rtrRig { return b.rtr }

func (b *bulkRig) close() { b.rtr.close() }
