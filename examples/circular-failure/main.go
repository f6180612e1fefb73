// Circular failure: the paper's Side Effect 7. Continental Broadband hosts
// its own RPKI repository at 63.174.23.0 inside the very prefix its ROA
// authorizes. A one-time delivery fault makes the ROA unusable, the route
// invalid, the repository unreachable — and the failure persists after the
// fault is fixed, until an operator intervenes manually.
package main

import (
	"context"
	"fmt"
	"log"

	rpkirisk "repro"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ipres"
	"repro/internal/rp"
)

func main() {
	world, err := rpkirisk.NewModelWorld(true) // with Sprint's covering ROA
	if err != nil {
		log.Fatal(err)
	}

	// A small Internet: a provider connecting the relying party's AS and
	// Continental's AS. Routers drop invalid routes.
	network := bgp.NewNetwork()
	for _, asn := range []ipres.ASN{64999, 3356, 17054} {
		network.AddAS(asn, bgp.PolicyDropInvalid)
	}
	check(network.ProviderOf(3356, 64999))
	check(network.ProviderOf(3356, 17054))
	check(network.Originate(17054, rpkirisk.MustParsePrefix("63.174.16.0/20")))

	// The sim serves every publication point over TCP and fetches it with a
	// real repository client; the repository's fault plan and the route gate
	// both act on that connection.
	sim := &core.CircularSim{
		Anchors: []rp.TrustAnchor{world.Anchor()},
		Stores:  world.Stores,
		Sites: map[string]core.RepoSite{
			"continental": {
				Module:      "continental",
				Addr:        rpkirisk.MustParseAddr("63.174.23.0"),
				RoutePrefix: rpkirisk.MustParsePrefix("63.174.16.0/20"),
				OriginAS:    17054,
			},
		},
		Network: network,
		RPAS:    64999,
		Clock:   experiments.Clock,
	}
	defer sim.Close()

	step := func(label string) {
		rep, err := sim.Step(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		state, _ := sim.RouteState("continental")
		fmt.Printf("%-26s route=%-8v unreachable=%-15v vrps=%d\n", label, state, rep.Unreachable, rep.VRPCount)
	}

	step("t0: bootstrap")
	sim.Faults("continental").Corrupt("cont-20.roa")
	step("t1: transient corruption")
	sim.Faults("continental").Restore("")
	step("t2: fault FIXED")
	step("t3: ...still broken")
	step("t4: ...still broken")
	fmt.Println("\nthe repository recovered at t2, but the relying party cannot reach it:")
	fmt.Println("fetching the ROA requires the route; validating the route requires the ROA.")
	sim.ManualOverride("continental", true)
	step("t5: manual intervention")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
