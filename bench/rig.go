package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipres"
	"repro/internal/rov"
	"repro/internal/rtr"
)

// routerCount is the number of router connections every workload keeps: the
// load generator never holds more connections than the box has cores.
const routerCount = 2

// router is one rtr.Client with a doorbell on its serial. WaitSerial in the
// rtr package sleep-polls at 5 ms, which would turn a 0.3 ms fan-out into
// 5 ms; here the client's OnSerial callback rings a channel instead.
type router struct {
	client *rtr.Client
	serial atomic.Uint32
	synced atomic.Bool
	bell   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}
}

func startRouter(addr string) *router {
	ctx, cancel := context.WithCancel(context.Background())
	r := &router{client: rtr.NewClient(addr), bell: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
	r.client.OnSerial(func(s uint32) {
		r.serial.Store(s)
		r.synced.Store(true)
		select {
		case r.bell <- struct{}{}:
		default:
		}
	})
	go func() {
		defer close(r.done)
		_ = r.client.Run(ctx) // ends with ctx.Err() at stop; a lost session shows as a wait timeout
	}()
	return r
}

func (r *router) stop() {
	r.cancel()
	<-r.done
}

// wait blocks until the router has completed an update at serial or later.
func (r *router) wait(serial uint32, deadline time.Time) error {
	for {
		if r.synced.Load() && r.serial.Load() >= serial {
			return nil
		}
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("router at serial %d, want %d", r.serial.Load(), serial)
		}
		timer := time.NewTimer(left)
		select {
		case <-r.bell:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// rtrRig is the router-facing half of every workload: one cache, one
// server, routerCount routers.
type rtrRig struct {
	cache   *rtr.Cache
	server  *rtr.Server
	addr    string
	routers []*router
	tr      *tracer
	// closed sums the counters of the servers this one replaced
	// (cold_bootstrap restarts the server in its slow op).
	closed rtrCounts
	// corrupt falsifies the expected digest (runConfig.Corrupt).
	corrupt bool
}

// rtrCounts are the rtr.Server counters that must stay 0: a router the
// benchmark keeps current is never reset, resumed or evicted.
type rtrCounts struct{ resets, resumptions, evictions uint64 }

// counts reads the server's counters on top of its predecessors'.
func (g *rtrRig) counts() rtrCounts {
	return rtrCounts{
		resets:      g.closed.resets + g.server.CacheResets(),
		resumptions: g.closed.resumptions + g.server.Resumptions(),
		evictions:   g.closed.evictions + g.server.Evictions(),
	}
}

func newRTRRig(vrps []rov.VRP, tr *tracer) (*rtrRig, error) {
	g := &rtrRig{cache: rtr.NewCache(1), tr: tr}
	g.cache.SetVRPs(vrps)
	g.server = rtr.NewServer(g.cache)
	addr, err := g.server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.addr = addr
	if err := g.connect(5 * time.Second); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// connect replaces the routers with fresh ones and waits until each holds
// the cache's current serial: the router-bootstrap op.
func (g *rtrRig) connect(timeout time.Duration) error {
	fresh := make([]*router, routerCount)
	for i := range fresh {
		fresh[i] = startRouter(g.addr)
	}
	err := waitAll(fresh, g.cache.Serial(), timeout)
	old := g.routers
	g.routers = fresh
	for _, r := range old {
		r.stop()
	}
	return err
}

func waitAll(routers []*router, serial uint32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, r := range routers {
		if err := r.wait(serial, deadline); err != nil {
			return err
		}
	}
	return nil
}

// push feeds vrps to the cache and waits for every router, returning the
// serial the routers ended on. wantBump says whether the set is expected to
// differ from the cache's: an unexpected bump, or none where one was due,
// is an error.
func (g *rtrRig) push(vrps []rov.VRP, wantBump bool, parent int, timeout time.Duration) error {
	before := g.cache.Serial()
	id := g.tr.begin("rtr.setvrps", parent)
	g.cache.SetVRPs(vrps)
	g.tr.end(id)
	after := g.cache.Serial()
	switch {
	case wantBump && after != before+1:
		return fmt.Errorf("rtr serial %d after a change, want %d", after, before+1)
	case !wantBump && after != before:
		return fmt.Errorf("rtr serial moved %d -> %d on an unchanged set", before, after)
	}
	id = g.tr.begin("rtr.fanout", parent)
	err := waitAll(g.routers, after, timeout)
	g.tr.end(id)
	return err
}

// checkRouters compares every router's VRP set with the expected digest.
// The routers are read side by side: Client.VRPs sorts its whole set, which
// at 200,000 VRPs costs more than most of the ops the check follows.
func (g *rtrRig) checkRouters(want [32]byte) error {
	if g.corrupt {
		want[0] ^= 1
	}
	errs := make([]error, len(g.routers))
	var wg sync.WaitGroup
	for i, r := range g.routers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := digest(r.client.VRPs()); got != want {
				errs[i] = fmt.Errorf("router %d: VRP digest %x, ground truth %x", i, got[:6], want[:6])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops the routers and the server and returns the final counters.
func (g *rtrRig) close() rtrCounts {
	for _, r := range g.routers {
		r.stop()
	}
	g.routers = nil
	_ = g.server.Close()
	return g.counts()
}

// snapshotBytes is the size of the prefix PDUs a reset query is answered
// with: 20 bytes per IPv4 VRP, 32 per IPv6 (RFC 6810).
func snapshotBytes(vrps []rov.VRP) float64 {
	n := 0
	for _, v := range vrps {
		if v.Prefix.Family() == ipres.IPv4 {
			n += 20
		} else {
			n += 32
		}
	}
	return float64(n)
}

// digest hashes a canonically sorted VRP set. The records are gathered into
// one buffer and hashed at once: 400,000 small writes into the hash cost
// more than the op the check follows.
func digest(vrps []rov.VRP) [32]byte {
	buf := make([]byte, 0, 22*len(vrps))
	for _, v := range vrps {
		buf = append(buf, v.Prefix.Addr().Bytes()...) // 4 or 16 bytes: the length tells the family
		buf = append(buf, byte(v.Prefix.Bits()), byte(v.MaxLength))
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.ASN))
	}
	return sha256.Sum256(buf)
}

// canonical sorts vrps and drops duplicates, the form routers hold.
func canonical(vrps []rov.VRP) []rov.VRP {
	rov.SortVRPs(vrps)
	out := vrps[:0]
	for i, v := range vrps {
		if i == 0 || v != vrps[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// routeSet is a seeded set of routes with the classification each must get.
type routeSet struct {
	routes                  []rov.Route
	valid, invalid, unknown int
}

// unusedASN is an origin no generated VRP names, so a route announced from
// it is never valid.
const unusedASN ipres.ASN = 4_200_000_000

// makeRoutes derives n routes from stable, VRPs the workload never
// withdraws: 70 % announced as authorised (valid), 20 % from an origin no
// VRP names (invalid), 10 % in 240.0.0.0/4, which no VRP covers (unknown).
// Volatile VRPs use origins below unusedASN and never cover 240/4, so the
// expectation holds whatever the workload has toggled.
func makeRoutes(rng *rand.Rand, stable []rov.VRP, n int) routeSet {
	rs := routeSet{routes: make([]rov.Route, 0, n)}
	for i := 0; i < n; i++ {
		v := stable[rng.Intn(len(stable))]
		switch k := i % 10; {
		case k < 7:
			rs.routes = append(rs.routes, rov.Route{Prefix: subPrefix(rng, v), Origin: v.ASN})
			rs.valid++
		case k < 9:
			rs.routes = append(rs.routes, rov.Route{Prefix: subPrefix(rng, v), Origin: unusedASN})
			rs.invalid++
		default:
			addr := ipres.AddrFromUint32(0xF0000000 | rng.Uint32()>>4&^0xFF)
			rs.routes = append(rs.routes, rov.Route{Prefix: ipres.MustPrefixFrom(addr, 24), Origin: v.ASN})
			rs.unknown++
		}
	}
	return rs
}

// subPrefix picks a prefix the VRP authorises: its own, or for IPv4 a
// random more-specific within maxLength.
func subPrefix(rng *rand.Rand, v rov.VRP) ipres.Prefix {
	extra := v.MaxLength - v.Prefix.Bits()
	if extra <= 0 || v.Prefix.Family() != ipres.IPv4 {
		return v.Prefix
	}
	bits := v.Prefix.Bits() + rng.Intn(extra+1)
	a := v.Prefix.Addr().As4()
	base := binary.BigEndian.Uint32(a[:])
	span := uint32(1)<<(32-v.Prefix.Bits()) - 1
	host := rng.Uint32() & span &^ (uint32(1)<<(32-bits) - 1)
	return ipres.MustPrefixFrom(ipres.AddrFromUint32(base|host), bits)
}

// traceSort times a canonical sort of vrps from a seeded shuffle, in traced
// cycles only: the sort every hand-off of a VRP set pays.
func (g *rtrRig) traceSort(rng *rand.Rand, vrps []rov.VRP) {
	if !g.tr.active() {
		return
	}
	shuffled := append([]rov.VRP(nil), vrps...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	id := g.tr.begin("rov.sort", 0)
	rov.SortVRPs(shuffled)
	g.tr.end(id)
}

// revalidate is the route-revalidation op: copy the router's VRPs, build an
// index, classify every route, and compare the counts with the expectation.
func (g *rtrRig) revalidate(rs routeSet, parent int) error {
	id := g.tr.begin("router.vrps", parent)
	vrps := g.routers[0].client.VRPs()
	g.tr.end(id)
	id = g.tr.begin("rov.index", parent)
	ix := rov.NewIndex(vrps...)
	g.tr.end(id)
	id = g.tr.begin("rov.classify", parent)
	var counts [3]int
	for _, r := range rs.routes {
		switch ix.State(r) {
		case rov.Valid:
			counts[0]++
		case rov.Invalid:
			counts[1]++
		default:
			counts[2]++
		}
	}
	g.tr.end(id)
	if counts != [3]int{rs.valid, rs.invalid, rs.unknown} {
		return fmt.Errorf("route states valid/invalid/unknown %v, want [%d %d %d]", counts, rs.valid, rs.invalid, rs.unknown)
	}
	return nil
}
