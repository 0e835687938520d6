package core_test

import (
	"crypto/ed25519"
	"fmt"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// probers names the examples' probers: handle h is probers[h-1]. A
// deployment's CompactSystem plays this part, its handles being slabs.
type probers []id.ID

func (p probers) ProberHandle(nid id.ID) tomography.ProberHandle {
	for i, x := range p {
		if x == nid {
			return tomography.ProberHandle(i + 1)
		}
	}
	return 0
}

func (p probers) ProberID(h tomography.ProberHandle) id.ID {
	if h == 0 || int(h) > len(p) {
		return id.ID{}
	}
	return p[h-1]
}

// ExampleBlameEngine_Blame reproduces the paper's §3.4 worked example:
// two probes saw the link down, one saw it up, probe accuracy is 0.8 —
// so the confidence the link was bad is 0.6 and the forwarder's blame
// is 0.4.
func ExampleBlameEngine_Blame() {
	archive := tomography.NewArchive(8)
	q := id.MustParse("00000000000000000000000000000001")
	r := id.MustParse("00000000000000000000000000000002")
	s := id.MustParse("00000000000000000000000000000003")
	judged := id.MustParse("000000000000000000000000000000ff")

	names := probers{q, r, s, judged}

	link := topology.LinkID(7)
	_ = archive.Record(names.ProberHandle(q), 0, []tomography.LinkObservation{{Link: link, Up: false}})
	_ = archive.Record(names.ProberHandle(r), 0, []tomography.LinkObservation{{Link: link, Up: false}})
	_ = archive.Record(names.ProberHandle(s), 0, []tomography.LinkObservation{{Link: link, Up: true}})

	engine, err := core.NewBlameEngine(archive, names, core.BlameConfig{
		ProbeAccuracy:   0.8,
		Delta:           time.Minute,
		GuiltyThreshold: 0.4,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := engine.Blame(judged, []topology.LinkID{link}, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("confidence link was bad: %.1f\n", res.WorstLink.Confidence)
	fmt.Printf("blame on the forwarder: %.1f\n", res.Blame)
	// Output:
	// confidence link was bad: 0.6
	// blame on the forwarder: 0.4
}

// ExampleRevisionChain shows §3.5's recursive revision: A's accusation
// against B is amended with B's verdict against C, exonerating B.
func ExampleRevisionChain() {
	rng := rand.New(rand.NewPCG(1, 2))
	ids := make([]id.ID, 4) // A, B, C, Z
	keys := make([]sigcrypto.KeyPair, 4)
	for i := range ids {
		ids[i] = id.Random(rng)
		keys[i] = sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(rng))
	}
	engine, err := core.NewBlameEngine(tomography.NewArchive(0), probers(ids), core.DefaultBlameConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	const msgID = 7
	accuse := func(accuser, accused int) core.Accusation {
		res, err := engine.Blame(ids[accused], []topology.LinkID{1}, 0)
		if err != nil {
			fmt.Println(err)
		}
		commit := core.NewCommitment(keys[accused], ids[accuser], ids[accused], ids[3], msgID, 0)
		acc, err := core.NewAccusation(keys[accuser], ids[accuser], res, msgID, nil, commit)
		if err != nil {
			fmt.Println(err)
		}
		return acc
	}
	// B's verdict against C amends A's accusation against B.
	chain, err := core.NewRevisionChain([]core.Accusation{accuse(0, 1), accuse(1, 2)})
	if err != nil {
		fmt.Println(err)
		return
	}
	keyDir := func(x id.ID) (ed25519.PublicKey, bool) {
		for i := range ids {
			if ids[i] == x {
				return keys[i].Public, true
			}
		}
		return nil, false
	}
	fmt.Println("A's accusation blamed B:", chain.Links[0].Accused == ids[1])
	fmt.Println("culprit after revision is C:", chain.Culprit() == ids[2])
	fmt.Println("third parties verify it:", chain.Verify(keyDir, core.DefaultBlameConfig().GuiltyThreshold) == nil)
	// Output:
	// A's accusation blamed B: true
	// culprit after revision is C: true
	// third parties verify it: true
}

// ExampleExpectedOccupancy shows the §3.1 occupancy analytics behind
// the density test: the expected routing-table size of a 100,000-node
// overlay matches the paper's 77 entries (μφ + 16 leaves).
func ExampleExpectedOccupancy() {
	mu, err := core.ExpectedOccupancy(100000)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("expected routing entries at N=100k: %.0f\n", mu+16)
	// Output:
	// expected routing entries at N=100k: 78
}

// ExampleAccusationErrorRates reproduces Figure 6's headline: with
// w=100 and the paper's measured per-drop probabilities, m=6 drives
// both formal-accusation error rates below 1%.
func ExampleAccusationErrorRates() {
	fp, fn, err := core.AccusationErrorRates(core.WindowConfig{W: 100, M: 6}, 0.018, 0.938)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("false positives below 1%%: %v\n", fp < 0.01)
	fmt.Printf("false negatives below 1%%: %v\n", fn < 0.01)
	// Output:
	// false positives below 1%: true
	// false negatives below 1%: true
}
