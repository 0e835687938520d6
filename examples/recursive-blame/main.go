// Recursive blame: the paper's §3.5 walkthrough, end to end.
//
// D drops A's message along the forwarding chain A → B → C → D → Z while
// every IP link on the chain is healthy. Naive next-hop blame would pin
// B. With recursive stewardship, B and C also awaited Z's
// acknowledgment: each produced its own verdict against its next hop,
// and pushing those verdicts upstream amends A's accusation until it
// lands on D — with B and C exonerated, and the whole chain
// independently verifiable by third parties, then published to the
// accusation DHT.
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
	rng := rand.New(rand.NewPCG(11, 13))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		log.Fatal(err)
	}
	sys.Run(5 * time.Minute)
	now := sys.Sim.Now()

	// Build the forwarding chain A → B → C → D from routing-peer
	// relationships, plus a destination Z past D.
	chainIDs := buildChain(sys, 5) // A, B, C, D, Z
	a, b, c, d, z := chainIDs[0], chainIDs[1], chainIDs[2], chainIDs[3], chainIDs[4]
	fmt.Printf("forwarding chain: %s -> %s -> %s -> %s -> %s\n",
		a.Short(), b.Short(), c.Short(), d.Short(), z.Short())
	fmt.Printf("D (%s) silently drops the message; all chain links healthy\n\n", d.Short())

	// Every steward holds the next hop's signed forwarding commitment
	// (§3.6), batched onto availability-probe responses.
	at := func(x id.ID) uint32 {
		i, ok := sys.Overlay.IndexOf(x)
		if !ok {
			log.Fatalf("%s is not a member", x.Short())
		}
		return i
	}
	msgID := sys.NextMsgID(at(a))
	commit := func(from, via id.ID) core.Commitment {
		return core.NewCommitment(sys.Keys(at(via)), from, via, z, msgID, now)
	}

	// Z never acknowledges, so A, B, and C each judge their next hop
	// over the IP links the message needed after leaving them.
	stewards := []id.ID{a, b, c}
	nexts := []id.ID{b, c, d}
	var accusations []core.Accusation
	fmt.Println("per-steward verdicts:")
	for i, steward := range stewards {
		span, err := sys.PathToPeer(at(steward), nexts[i])
		if err != nil {
			log.Fatal(err)
		}
		if i+1 < len(nexts) {
			onward, err := sys.PathToPeer(at(nexts[i]), nexts[i+1])
			if err != nil {
				log.Fatal(err)
			}
			span = append(append([]topology.LinkID(nil), span...), onward...)
		}
		res, err := sys.Engine.Blame(nexts[i], span, now)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s judges %s: blame %.2f -> %s\n",
			steward.Short(), nexts[i].Short(), res.Blame, verdictWord(res.Guilty))
		if !res.Guilty {
			log.Fatalf("unexpected innocent verdict; a chain link was probably probed down")
		}
		acc, err := core.NewAccusation(sys.Keys(at(steward)), steward, res, msgID, span,
			commit(steward, nexts[i]))
		if err != nil {
			log.Fatal(err)
		}
		accusations = append(accusations, acc)
	}

	// Revision: C pushes its verdict against D to B; B amends and pushes
	// to A. Mechanically, the verdicts chain into one amended accusation.
	chain, err := core.NewRevisionChain(accusations[:1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nA's original accusation blames: %s\n", chain.Culprit().Short())
	for _, downstream := range accusations[1:] {
		chain, err = chain.Extend(downstream)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  amended with %s's verdict -> blames %s\n",
			downstream.Accuser.Short(), chain.Culprit().Short())
	}
	fmt.Printf("\nfinal culprit: %s (ground truth D: %v)\n", chain.Culprit().Short(), chain.Culprit() == d)
	for _, ex := range chain.Exonerated() {
		fmt.Printf("exonerated: %s\n", ex.Short())
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

// buildChain walks routing-peer edges to assemble a chain of distinct
// nodes of the requested length.
func buildChain(sys *core.CompactSystem, length int) []id.ID {
	var walk func(chain []id.ID) []id.ID
	walk = func(chain []id.ID) []id.ID {
		if len(chain) == length {
			return chain
		}
		cur, _ := sys.Overlay.IndexOf(chain[len(chain)-1])
		tree, err := sys.Tree(cur)
		if err != nil {
			log.Fatal(err)
		}
		for _, leaf := range tree.Leaves {
			dup := false
			for _, seen := range chain {
				if seen == leaf.Node {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if out := walk(append(chain, leaf.Node)); out != nil {
				return out
			}
		}
		return nil
	}
	for _, start := range sys.AliveIDs() {
		if out := walk([]id.ID{start}); out != nil {
			return out
		}
	}
	log.Fatal("no forwarding chain of required length")
	return nil
}

func verdictWord(guilty bool) string {
	if guilty {
		return "GUILTY"
	}
	return "innocent"
}
