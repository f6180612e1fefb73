package attack

// The RTR distribution plane under a Stalloris-style slow consumer: the
// paper's availability argument (§4) extends past the relying party — a
// router that accepts the snapshot and then drains it one byte per second
// would, without bounded queues and eviction, pin server memory and
// backpressure the fan-out exactly like a slow-loris publication point
// stalls the fetch plane. The scenario runs the full pipeline (world → RP
// sync → RTR cache) and asserts the defense: the stalled client is evicted,
// heap growth stays bounded, and healthy routers keep tracking churn
// undisturbed.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"

	"repro/internal/ipres"
	"repro/internal/obs"
	"repro/internal/rov"
	"repro/internal/rp"
	"repro/internal/rtr"
)

func rtrScenarios() []Scenario {
	return []Scenario{
		{
			Name:  "rtr/slow-consumer",
			Paper: "arXiv:2205.06064 (Stalloris), applied to the RTR plane; §4",
			Layer: "rtr send queue, write deadline, slow-consumer eviction",
			Doc: "a router requests the snapshot then reads 1 B/s through a churn storm; " +
				"the server must evict it, keep heap growth bounded, and leave healthy routers' delta propagation intact",
			Budget: 60 * time.Second,
			Run:    runRTRSlowConsumer,
		},
	}
}

// rtrChurnSet builds a synthetic VRP set large enough that one snapshot
// overflows the server's bounded kernel write buffer (round varies the set
// so every SetVRPs is a real delta).
func rtrChurnSet(base []rov.VRP, round int) []rov.VRP {
	out := make([]rov.VRP, 0, len(base)+2048+1)
	out = append(out, base...)
	for i := 0; i < 2048; i++ {
		p := ipres.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		out = append(out, rov.VRP{Prefix: p, MaxLength: 24, ASN: ipres.ASN(64500 + i)})
	}
	out = append(out, rov.VRP{
		Prefix: ipres.MustParsePrefix("192.168.0.0/24"), MaxLength: 24, ASN: ipres.ASN(65000 + round)})
	return out
}

// dialSmallWindow connects with SO_RCVBUF set before the handshake. The
// receive window is advertised at connect (tcp_rmem's default, 128 KiB on
// Linux 6.x) and SetReadBuffer on the connected socket does not take it
// back, so only a pre-connect setting keeps the snapshot from draining into
// the attacker's kernel buffer whatever the host's defaults are.
func dialSmallWindow(addr string, rcvbuf int) (net.Conn, error) {
	d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvbuf)
		}); err != nil {
			return err
		}
		return serr
	}}
	return d.Dial("tcp", addr)
}

func runRTRSlowConsumer(e *Env) {
	// Full pipeline: the cache serves real relying-party output, so the
	// scenario's terminal state is the RP's.
	w := e.NewWorld()
	res := w.Sync(w.NewRP(rp.Config{Fetcher: w.Client(ClientOpts{})}))
	e.AssertTerminal(res, obs.HealthClean)

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	cache := rtr.NewCache(42)
	cache.SetVRPs(rtrChurnSet(res.VRPs, 0))
	srv := rtr.NewServer(cache)
	srv.WriteTimeout = 500 * time.Millisecond
	srv.WriteBuffer = 4 << 10 // a stalled router cannot hide behind kernel buffering
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		e.Fatalf("rtr listen: %v", err)
	}
	e.Cleanup(func() { _ = srv.Close() })

	// Healthy routers, synced and following.
	ctx, cancel := context.WithCancel(e.Ctx)
	e.Cleanup(cancel)
	const healthyN = 8
	healthy := make([]*rtr.Client, healthyN)
	for i := range healthy {
		healthy[i] = rtr.NewClient(addr)
		c := healthy[i]
		go func() { _ = c.Run(ctx) }()
	}
	for i, c := range healthy {
		if !c.WaitSerial(1, 10*time.Second) {
			e.Fatalf("healthy client %d never synced", i)
		}
	}

	// The attacker: request the snapshot, then read one byte per second.
	stalled, err := dialSmallWindow(addr, 2<<10)
	if err != nil {
		e.Fatalf("attacker dial: %v", err)
	}
	e.Cleanup(func() { _ = stalled.Close() })
	if err := stalled.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		e.Fatalf("attacker write deadline: %v", err)
	}
	if err := rtr.WritePDU(stalled, &rtr.PDU{Type: rtr.TypeResetQuery}); err != nil {
		e.Fatalf("attacker reset query: %v", err)
	}
	go func() {
		buf := make([]byte, 1)
		for {
			// Even the attacker's trickle reads are deadline-bounded: the
			// goroutine must die with the scenario, not outlive it.
			if stalled.SetReadDeadline(time.Now().Add(2*time.Minute)) != nil {
				return
			}
			if _, err := stalled.Read(buf); err != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Second):
			}
		}
	}()

	// Churn storm while the attacker trickles.
	const rounds = 10
	churnStart := time.Now()
	for round := 1; round <= rounds; round++ {
		cache.SetVRPs(rtrChurnSet(res.VRPs, round))
	}
	finalSerial := cache.Serial()

	// Defense 1: the stalled client is evicted, not buffered for.
	evictDeadline := time.Now().Add(20 * time.Second)
	for srv.Evictions() == 0 && time.Now().Before(evictDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if srv.Evictions() == 0 {
		e.Failf("stalled client was never evicted")
	} else {
		e.Logf("stalled client evicted (%d evictions)", srv.Evictions())
	}

	// Defense 2: healthy routers keep tracking churn undisturbed — full
	// convergence well inside the write timeout regime, with state
	// byte-identical to the cache.
	healthyDeadline := 10 * time.Second
	for i, c := range healthy {
		if !c.WaitSerial(finalSerial, healthyDeadline) {
			e.Failf("healthy client %d stuck at serial %d, cache at %d — eviction did not protect the fan-out",
				i, c.Serial(), finalSerial)
		}
	}
	e.Logf("%d healthy clients converged to serial %d in %v under churn",
		healthyN, finalSerial, time.Since(churnStart).Round(time.Millisecond))
	want := rtrChurnSet(res.VRPs, rounds)
	rov.SortVRPs(want)
	for i, c := range healthy {
		got := c.VRPs()
		if len(got) != len(want) {
			e.Failf("healthy client %d has %d VRPs, cache has %d", i, len(got), len(want))
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				e.Failf("healthy client %d VRP %d diverged: %v != %v", i, j, got[j], want[j])
				break
			}
		}
	}

	// Defense 3: heap growth stays bounded — the stalled client's backlog
	// must not have accumulated (bounded send queue + coalesced notifies).
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const heapBudget = 64 << 20
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > heapBudget {
		e.Failf("heap grew %d bytes during the attack, budget %d", growth, int64(heapBudget))
	} else {
		e.Logf("heap growth %d KiB (budget %d KiB)", growth/1024, heapBudget/1024)
	}
}
