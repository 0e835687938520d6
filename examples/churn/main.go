// Churn: diagnosis keeps working while the overlay population moves.
//
// The paper's evaluation freezes membership to isolate the inference
// algorithm (§4.2); a deployment cannot. This example fails and joins
// nodes mid-run and shows three things surviving: every survivor's
// secure routing state stays exactly what a from-scratch fill would
// build, the accusation DHT re-homes its records onto the new replica
// sets, and a dropper is still correctly blamed after the shuffle.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)

	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(91, 97))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		log.Fatal(err)
	}
	sys.Run(5 * time.Minute)
	fmt.Printf("overlay: %d nodes; archive: %d probe records\n", sys.Size(), sys.Archive.Size())

	// An accusation published before the churn.
	store, err := dht.New(sys.Overlay.Ring(), dht.DefaultReplicas)
	if err != nil {
		log.Fatal(err)
	}
	repo, err := dht.NewAccusationRepo(store, sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		log.Fatal(err)
	}
	src, dst, route := findRoute(sys)
	dropper := route[1]
	if err := sys.SetBehavior(dropper, core.Behavior{DropsMessages: true}); err != nil {
		log.Fatal(err)
	}
	rep, err := sys.SendMessage(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Chain == nil {
		log.Fatal("expected an accusation chain")
	}
	if err := repo.Publish(rep.Chain); err != nil {
		log.Fatal(err)
	}
	n, _ := repo.Count(dropper)
	fmt.Printf("dropper %s accused; DHT holds %d record(s)\n\n", dropper.Short(), n)

	// Churn: fail three nodes (never the parties above), join two.
	failed := 0
	for _, nid := range sys.AliveIDs() {
		if failed == 3 {
			break
		}
		if nid == src || nid == dst || nid == dropper {
			continue
		}
		if err := sys.FailNode(nid); err != nil {
			log.Fatal(err)
		}
		failed++
	}
	joined := 0
	used := map[topology.RouterID]bool{}
	for i := 0; i < sys.Size(); i++ {
		used[sys.Router(uint32(i))] = true
	}
	for _, h := range sys.Topo.EndHosts() {
		if joined == 2 {
			break
		}
		if used[h] {
			continue
		}
		if _, err := sys.JoinNode(h); err != nil {
			log.Fatal(err)
		}
		joined++
	}
	fmt.Printf("churn: %d failed, %d joined -> %d nodes\n", failed, joined, sys.Size())

	// The DHT re-homes onto the new membership.
	if err := store.Rebalance(sys.Overlay.Ring()); err != nil {
		log.Fatal(err)
	}
	n, err = repo.Count(dropper)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accusations surviving rebalance: %d\n", n)

	// Diagnosis still lands on the dropper after the shuffle.
	sys.Run(3 * time.Minute) // fresh probes over rebuilt trees
	rep, err = sys.SendMessage(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Delivered {
		fmt.Println("note: the new route avoids the dropper entirely")
	} else {
		fmt.Printf("post-churn culprit: %s (ground truth %s, correct: %v)\n",
			rep.Culprit.Short(), dropper.Short(), rep.Culprit == dropper)
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
	panic("no multi-hop route; try another seed")
}
