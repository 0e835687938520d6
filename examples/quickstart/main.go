// Quickstart: build a small Concilium deployment, break things, and
// watch the diagnosis.
//
// It constructs a simulated IP topology with a secure Pastry overlay on
// top, starts collaborative tomographic probing, then demonstrates the
// two failure modes the paper distinguishes: a message dropped by a
// failed IP link (the network is blamed) and a message dropped by a
// misbehaving forwarder (the forwarder is blamed, with a self-verifying
// accusation chain).
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)

	// 1. Build the deployment: IP topology, CA, overlay. Tomography
	// trees are derived on first use.
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(2026, 7))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay of %d nodes atop %d routers / %d links\n",
		sys.Size(), sys.Topo.NumRouters(), sys.Topo.NumLinks())

	// 2. Start collaborative probing and let the archive warm up.
	if err := sys.StartProbing(); err != nil {
		log.Fatal(err)
	}
	sys.Run(5 * time.Minute)
	fmt.Printf("after 5 virtual minutes: %d disseminated probe records\n\n", sys.Archive.Size())

	// Find a multi-hop route to play with.
	src, dst, route := findRoute(sys)
	fmt.Printf("route: %s\n\n", routeString(route))

	// 3. Scenario A — the network drops the message.
	first, _ := sys.Overlay.IndexOf(route[0])
	path, err := sys.PathToPeer(first, route[1])
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Net.SetLinkDown(path[0], true); err != nil {
		log.Fatal(err)
	}
	sys.Run(3 * time.Minute) // probes observe the outage
	rep, err := sys.SendMessage(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario A: IP link %d failed\n", path[0])
	fmt.Printf("  delivered: %v, network blamed: %v (correct: the overlay peers are innocent)\n\n",
		rep.Delivered, rep.NetworkBlamed)
	if err := sys.Net.SetLinkDown(path[0], false); err != nil {
		log.Fatal(err)
	}
	sys.Run(3 * time.Minute) // probes observe the repair

	// 4. Scenario B — a forwarder drops the message.
	dropper := route[1]
	if err := sys.SetBehavior(dropper, core.Behavior{DropsMessages: true}); err != nil {
		log.Fatal(err)
	}
	rep, err = sys.SendMessage(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario B: forwarder %s silently drops\n", dropper.Short())
	fmt.Printf("  delivered: %v, culprit: %s (ground truth: %s)\n",
		rep.Delivered, rep.Culprit.Short(), dropper.Short())
	if rep.Chain != nil {
		err := rep.Chain.Verify(sys.KeyDir(), cfg.Blame.GuiltyThreshold)
		fmt.Printf("  accusation chain of %d link(s) verifies independently: %v\n",
			len(rep.Chain.Links), err == nil)
	}
}

func findRoute(sys *core.CompactSystem) (src, dst id.ID, route []id.ID) {
	members := sys.AliveIDs()
	for _, a := range members {
		for _, b := range members {
			if a == b {
				continue
			}
			rep, err := sys.SendMessage(a, b)
			if err != nil || len(rep.Route) < 3 {
				continue
			}
			return a, b, rep.Route
		}
	}
	panic("no multi-hop route in this overlay; try another seed")
}

func routeString(route []id.ID) string {
	s := ""
	for i, hop := range route {
		if i > 0 {
			s += " -> "
		}
		s += hop.Short()
	}
	return s
}
