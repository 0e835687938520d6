// Recursive blame: the paper's §3.5 walkthrough, end to end.
//
// D drops A's message along the route A → B → C → D → Z while every IP
// link on the route is healthy. Naive next-hop blame would pin B. With
// recursive stewardship, B and C also awaited Z's acknowledgment: each
// produced its own verdict against its next hop, and pushing those
// verdicts upstream amends A's accusation until it lands on D — with B
// and C exonerated, and the whole chain independently verifiable by
// third parties, then published to the accusation DHT. SendMessage runs
// every step; this program picks the route, plants the dropper and
// reads the report.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"strings"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)

	// Twenty hosts per stub router give an overlay of about two
	// thousand nodes, enough for routes of four overlay hops.
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.Topology.HostsPerStubRouter = 20
	cfg.OverlayFraction = 1
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(11, 13))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	route := fourHopRoute(sys)
	a, d, z := route[0], route[3], route[len(route)-1]
	fmt.Printf("overlay of %d nodes; route: %s\n", sys.Size(), hops(route))
	fmt.Printf("D (%s) silently drops the message; every IP link is healthy\n\n", d.Short())

	if err := sys.StartProbing(); err != nil {
		log.Fatal(err)
	}
	sys.Run(5 * time.Minute)
	if err := sys.SetBehavior(d, core.Behavior{DropsMessages: true}); err != nil {
		log.Fatal(err)
	}
	rep, err := sys.SendMessage(a, z)
	if err != nil {
		log.Fatal(err)
	}

	// Z never acknowledges, so each steward that saw the message judges
	// its next hop over the IP links the message needed after leaving
	// it.
	fmt.Println("per-steward verdicts:")
	for k, v := range rep.Verdicts {
		fmt.Printf("  %s judges %s: blame %.2f -> %s\n",
			route[k].Short(), v.Judged.Short(), v.Blame, verdictWord(v.Guilty))
	}
	if rep.Chain == nil {
		log.Fatalf("no amended accusation (delivered %v, network blamed %v)", rep.Delivered, rep.NetworkBlamed)
	}

	// Revision: C pushed its verdict against D to B, and B to A, so A's
	// accusation against B arrives amended into one chain.
	chain := rep.Chain
	fmt.Printf("\nA's original accusation blamed: %s\n", chain.Links[0].Accused.Short())
	fmt.Printf("final culprit: %s (ground truth D: %v)\n", chain.Culprit().Short(), chain.Culprit() == d)
	for _, l := range chain.Links[:len(chain.Links)-1] {
		fmt.Printf("exonerated: %s\n", l.Accused.Short())
	}
	err = chain.Verify(sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	fmt.Printf("third-party verification of the amended accusation: %v\n", err == nil)

	// Publish into the accusation DHT; any peer considering D fetches it.
	store, err := dht.New(sys.Overlay.Ring(), dht.DefaultReplicas)
	if err != nil {
		log.Fatal(err)
	}
	repo, err := dht.NewAccusationRepo(store, sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		log.Fatal(err)
	}
	if err := repo.Publish(chain); err != nil {
		log.Fatal(err)
	}
	n, err := repo.Count(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accusations on record against %s in the DHT: %d\n", d.Short(), n)
}

// fourHopRoute returns the first overlay route, in member order, that
// takes at least four hops.
func fourHopRoute(sys *core.CompactSystem) []id.ID {
	n := uint32(sys.Size())
	for i := uint32(0); i < n; i++ {
		for j := uint32(0); j < n; j++ {
			if i == j {
				continue
			}
			idx, err := sys.Overlay.AppendRouteSecure(i, sys.NodeID(j), 0, nil)
			if err != nil || len(idx) < 5 {
				continue
			}
			route := make([]id.ID, len(idx))
			for k, x := range idx {
				route[k] = sys.NodeID(x)
			}
			return route
		}
	}
	log.Fatal("no route of four hops in this overlay; try another seed")
	return nil
}

func hops(route []id.ID) string {
	names := make([]string, len(route))
	for k, x := range route {
		names[k] = x.Short()
	}
	return strings.Join(names, " -> ")
}

func verdictWord(guilty bool) string {
	if guilty {
		return "GUILTY"
	}
	return "innocent"
}
