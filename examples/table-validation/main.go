// Table validation: catching fraudulent routing adverts (§3.1, §4.1).
//
// Concilium only works if peers cannot lie about their routing state.
// This example exercises each defense in turn: the jump-table density
// test against a suppression-style sparse advert, the freshness
// timestamps against an inflation attack that reuses a departed peer's
// identity, the signature check against outright forgery, and finally
// the analytic error-rate machinery that picks the test's γ.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/topology"
)

func main() {
	log.SetFlags(0)

	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	rng := rand.New(rand.NewPCG(51, 61))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	now := netsim.Time(0).Add(10 * time.Minute)
	sys.Run(10 * time.Minute)

	members := sys.AliveIDs()
	verifier, _ := sys.Overlay.IndexOf(members[0])
	advertiser, _ := sys.Overlay.IndexOf(members[1])
	advertiserID, advertiserKeys := sys.NodeID(advertiser), sys.Keys(advertiser)
	localOcc := sys.Overlay.SecureOccupancy(verifier)
	localSpacing, err := sys.Overlay.LeafMeanSpacing(verifier)
	if err != nil {
		log.Fatal(err)
	}

	gamma := 1.15
	test, err := core.NewDensityTest(gamma)
	if err != nil {
		log.Fatal(err)
	}
	validator := &core.SnapshotValidator{
		Keys:             sys.KeyDir(),
		MaxEntryAge:      3 * time.Minute,
		JumpTest:         test,
		LocalOccupancy:   localOcc,
		LeafGamma:        2.0,
		LocalLeafSpacing: localSpacing,
	}
	fmt.Printf("verifier %s: %d occupied jump-table slots, gamma=%.2f\n\n",
		sys.NodeID(verifier).Short(), localOcc, gamma)

	// 1. Honest advert passes every check.
	entries := sys.BuildAdvert(advertiser, int64(now))
	snap := &core.Snapshot{Prober: advertiserID, At: now, Entries: entries, LeafSpacing: localSpacing}
	snap.Sign(advertiserKeys)
	fmt.Printf("1. honest advert (%d entries): %s\n", len(entries), outcome(validator.Validate(snap)))

	// 2. Suppression-style sparse advert: hide most peers.
	sparse := &core.Snapshot{Prober: advertiserID, At: now, Entries: entries[:len(entries)/3], LeafSpacing: localSpacing}
	sparse.Sign(advertiserKeys)
	err = validator.Validate(sparse)
	fmt.Printf("2. sparse advert (%d entries): %s (want density failure: %v)\n",
		len(sparse.Entries), outcome(err), errors.Is(err, core.ErrTableTooSparse))

	// 3. Inflation attack: pad the table with a stale timestamp from a
	// long-departed peer.
	ghost := members[2]
	ghostAt, _ := sys.Overlay.IndexOf(ghost)
	staleTS := sigcrypto.NewTimestamp(sys.Keys(ghostAt), ghost, int64(now.Add(-2*time.Hour)))
	inflated := &core.Snapshot{
		Prober:      advertiserID,
		At:          now,
		Entries:     append(append([]core.AdvertEntry(nil), entries...), core.AdvertEntry{Peer: ghost, Freshness: staleTS}),
		LeafSpacing: localSpacing,
	}
	inflated.Sign(advertiserKeys)
	err = validator.Validate(inflated)
	fmt.Printf("3. inflation with stale timestamp: %s (want staleness failure: %v)\n",
		outcome(err), errors.Is(err, core.ErrStaleEntry))

	// 4. Forged freshness: the advertiser signs the ghost's timestamp
	// itself, lacking the ghost's private key.
	forgedTS := sigcrypto.NewTimestamp(advertiserKeys, ghost, int64(now.Add(-time.Minute)))
	forged := &core.Snapshot{
		Prober:      advertiserID,
		At:          now,
		Entries:     append(append([]core.AdvertEntry(nil), entries...), core.AdvertEntry{Peer: ghost, Freshness: forgedTS}),
		LeafSpacing: localSpacing,
	}
	forged.Sign(advertiserKeys)
	err = validator.Validate(forged)
	fmt.Printf("4. forged freshness signature: %s (want signature failure: %v)\n",
		outcome(err), errors.Is(err, core.ErrBadEntrySignature))

	// 5. Leaf-set suppression: advertise implausibly wide leaf spacing.
	wide := &core.Snapshot{Prober: advertiserID, At: now, Entries: entries, LeafSpacing: 5 * localSpacing}
	wide.Sign(advertiserKeys)
	err = validator.Validate(wide)
	fmt.Printf("5. sparse leaf set: %s (want leaf density failure: %v)\n\n",
		outcome(err), errors.Is(err, core.ErrLeafSetTooSparse))

	// 6. The analytics behind choosing gamma (Figure 2/3 machinery).
	for _, c := range []float64{0.2, 0.3} {
		plain, err := core.OptimalGamma(core.DensityScenario{N: 1131, Collusion: c}, 1.001, 2.5, 120)
		if err != nil {
			log.Fatal(err)
		}
		sup, err := core.OptimalGamma(core.DensityScenario{N: 1131, Collusion: c, Suppression: true}, 1.001, 2.5, 120)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("6. c=%.0f%%: optimal gamma %.2f -> FP %.1f%%, FN %.1f%%; under suppression FP %.1f%%, FN %.1f%%\n",
			100*c, plain.Gamma, 100*plain.FalsePositive, 100*plain.FalseNegative,
			100*sup.FalsePositive, 100*sup.FalseNegative)
	}
}

func outcome(err error) string {
	if err == nil {
		return "ACCEPTED"
	}
	return "REJECTED"
}
