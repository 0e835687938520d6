// Sanctioning: what happens after diagnosis (§3.6–§3.7).
//
// Concilium identifies faults; the network chooses the response. This
// example exercises the whole response surface: a forwarder that racks
// up verified accusations moves from good standing to local distrust to
// universal blacklist under the rate policy — while the paper's
// consistency rule keeps it in leaf sets until the blacklist is global.
// A second peer refuses to issue forwarding commitments, which no
// tomographic evidence can prove, so honest hosts fall back to
// Credence-style votes of no confidence.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/reputation"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)

	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(71, 73))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		log.Fatal(err)
	}
	sys.Run(5 * time.Minute)

	// Accusation repository in the DHT, feeding the sanction policy.
	store, err := dht.New(sys.Overlay.Ring(), dht.DefaultReplicas)
	if err != nil {
		log.Fatal(err)
	}
	repo, err := dht.NewAccusationRepo(store, sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		log.Fatal(err)
	}
	feed := func(peer id.ID) ([]netsim.Time, error) {
		chains, err := repo.Fetch(peer)
		if err != nil {
			return nil, err
		}
		times := make([]netsim.Time, 0, len(chains))
		for _, c := range chains {
			times = append(times, c.Links[len(c.Links)-1].At)
		}
		return times, nil
	}
	policy, err := core.NewPolicy(core.DefaultPolicyConfig(), feed)
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: a dropper accumulates accusations and the sanction
	// escalates.
	src, dst, route := findRoute(sys)
	dropper := route[1]
	if err := sys.SetBehavior(dropper, core.Behavior{DropsMessages: true}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("part 1: %s starts dropping messages\n", dropper.Short())
	for round := 1; round <= 3; round++ {
		rep, err := sys.SendMessage(src, dst)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Chain != nil {
			if err := repo.Publish(rep.Chain); err != nil {
				log.Fatal(err)
			}
		}
		sys.Run(time.Minute)
		sanction, err := policy.Evaluate(dropper, sys.Sim.Now())
		if err != nil {
			log.Fatal(err)
		}
		n, err := repo.Count(dropper)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after drop %d: %d accusation(s) on record -> sanction: %s"+
			" (evict from leaf sets: %v, carry sensitive traffic: %v)\n",
			round, n, sanction, core.MayEvictFromLeafSet(sanction),
			core.MayForwardSensitive(sanction))
	}

	// Part 2: commitment refusal falls back to reputation votes.
	refuser := route[2]
	fmt.Printf("\npart 2: %s refuses to issue forwarding commitments\n", refuser.Short())
	fmt.Println("  no tomographic evidence can prove refusal (§3.6), so honest")
	fmt.Println("  hosts cast signed votes of no confidence instead:")
	board := reputation.NewBoard()
	voters := 0
	for _, nid := range sys.AliveIDs() {
		i, _ := sys.Overlay.IndexOf(nid)
		if nid == refuser || !sys.Behavior(i).Honest() {
			continue
		}
		keys := sys.Keys(i)
		v := reputation.NewVote(keys, nid, refuser, sys.Sim.Now())
		if err := board.Record(v, keys.Public); err != nil {
			log.Fatal(err)
		}
		voters++
		if voters == 5 {
			break
		}
	}
	trusted := func(x id.ID) bool {
		i, ok := sys.Overlay.IndexOf(x)
		return ok && sys.Behavior(i).Honest()
	}
	fmt.Printf("  trusted no-confidence votes: %d\n", board.NoConfidence(refuser, trusted))
	fmt.Printf("  poor peer at quorum 3: %v\n", board.PoorPeer(refuser, trusted, 3))

	// Votes from a detected colluder do not count.
	colluder := dropper
	ci, _ := sys.Overlay.IndexOf(colluder)
	v := reputation.NewVote(sys.Keys(ci), colluder, refuser, sys.Sim.Now())
	if err := board.Record(v, sys.Keys(ci).Public); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  after a detected dropper votes too: still %d trusted votes\n",
		board.NoConfidence(refuser, trusted))
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
