package concilium_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/topology"
)

// TestFullPipeline drives the complete Concilium stack in one scenario:
// deployment construction, failure injection, collaborative probing,
// stewarded traffic, blame attribution against ground truth, accusation
// publication into the replicated DHT, and the verified record each
// node's standing is read from.
func TestFullPipeline(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	rng := rand.New(rand.NewPCG(601, 607))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		t.Fatal(err)
	}
	sys.Run(6 * time.Minute)
	if sys.Archive.Size() == 0 {
		t.Fatal("no probe records after warmup")
	}

	// Accusation repository.
	store, err := dht.New(sys.Overlay.Ring(), dht.DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := dht.NewAccusationRepo(store, sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		t.Fatal(err)
	}
	// Mark one node a dropper and run traffic until three verified
	// chains against it are on record.
	var dropper id.ID
	var nodeDrops, linkDrops, misattributed int
	members := sys.AliveIDs()
	for _, src := range members {
		for _, dst := range members {
			if src == dst {
				continue
			}
			rep, err := sys.SendMessage(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Route) < 3 {
				continue
			}
			if dropper == (id.ID{}) {
				dropper = rep.Route[1]
				if err := sys.SetBehavior(dropper, core.Behavior{DropsMessages: true}); err != nil {
					t.Fatal(err)
				}
			}
			rep, err = sys.SendMessage(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			switch rep.Kind {
			case core.DropByNode:
				nodeDrops++
				if rep.Culprit != rep.DroppedBy {
					misattributed++
				}
				if rep.Chain != nil {
					if err := repo.Publish(rep.Chain); err != nil {
						t.Fatalf("publish: %v", err)
					}
				}
			case core.DropByLink, core.DropAckByLink:
				linkDrops++
			}
			sys.Run(5 * time.Second)
		}
		if n, _ := repo.Count(dropper); n >= 3 {
			break
		}
	}
	if nodeDrops == 0 {
		t.Skip("no node drops materialized in this seed")
	}
	t.Logf("node drops %d (misattributed %d), link drops %d", nodeDrops, misattributed, linkDrops)
	if misattributed > nodeDrops/2 {
		t.Errorf("too many misattributions: %d of %d", misattributed, nodeDrops)
	}

	// The dropper has a verified chain on record; an honest node has
	// none.
	n, err := repo.Count(dropper)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dropper has %d verified chains", n)
	if n < 1 {
		t.Errorf("no verified chain on record against the dropper")
	}
	var honest id.ID
	for i := uint32(0); i < uint32(sys.Size()); i++ {
		if nid := sys.NodeID(i); nid != dropper && sys.Behavior(i).Honest() {
			honest = nid
			break
		}
	}
	if n, err := repo.Count(honest); err != nil {
		t.Fatal(err)
	} else if n != 0 {
		t.Errorf("honest node %s has %d verified chains on record", honest.Short(), n)
	}
}

// TestDiagnosisUnderChurnedFailures runs traffic while the failure
// injector churns links, checking the network/node attribution split
// stays sane over a long run.
func TestDiagnosisUnderChurnedFailures(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 4 * time.Minute
	// Faster failure churn than default to exercise repair cycles.
	cfg.Failures.MeanDowntime = 4 * time.Minute
	cfg.Failures.StdDowntime = time.Minute
	cfg.Failures.MinDowntime = time.Minute
	rng := rand.New(rand.NewPCG(701, 709))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		t.Fatal(err)
	}
	sys.Run(6 * time.Minute)

	var networkRight, networkWrong int
	members := sys.AliveIDs()
	for round := 0; round < 120; round++ {
		src := members[rng.IntN(len(members))]
		dst := members[rng.IntN(len(members))]
		if src == dst {
			continue
		}
		rep, err := sys.SendMessage(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind == core.DropByLink || rep.Kind == core.DropAckByLink {
			if rep.NetworkBlamed {
				networkRight++
			} else {
				networkWrong++
			}
		}
		sys.Run(30 * time.Second)
	}
	total := networkRight + networkWrong
	if total == 0 {
		t.Skip("no network drops in this seed")
	}
	t.Logf("network drops: %d correctly attributed, %d misattributed", networkRight, networkWrong)
	// Probe accuracy is 0.9 and coverage imperfect, so some error is
	// expected; gross misattribution would mean the pipeline is broken.
	if float64(networkWrong) > 0.35*float64(total) {
		t.Errorf("network misattribution rate %d/%d too high", networkWrong, total)
	}
}

// TestWholeStackDeterminism: two systems built and driven identically
// from the same seed must produce identical delivery reports — the
// property every experiment's reproducibility rests on.
func TestWholeStackDeterminism(t *testing.T) {
	t.Parallel()
	runOnce := func() []string {
		cfg := core.DefaultSystemConfig()
		cfg.Topology = topology.TestConfig()
		cfg.OverlayFraction = 0.5
		cfg.ArchiveRetention = 4 * time.Minute
		cfg.MaliciousFraction = 0.1
		rng := rand.New(rand.NewPCG(901, 902))
		sys, err := core.BuildCompactSystem(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.StartFailures(); err != nil {
			t.Fatal(err)
		}
		if err := sys.StartProbing(); err != nil {
			t.Fatal(err)
		}
		sys.Run(5 * time.Minute)
		var log []string
		members := sys.AliveIDs()
		for i := 0; i < 40; i++ {
			src := members[rng.IntN(len(members))]
			dst := members[rng.IntN(len(members))]
			if src == dst {
				continue
			}
			rep, err := sys.SendMessage(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("%v|%v|%d|%x|%v",
				rep.Delivered, rep.Kind, len(rep.Verdicts), rep.Culprit, rep.NetworkBlamed))
			sys.Run(10 * time.Second)
		}
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("different log lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at message %d:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestTwoVirtualHourSoak runs the paper's full evaluation duration (two
// virtual hours) with failures churning and periodic traffic, checking
// the system's long-run aggregates: attribution stays sane, the archive
// stays bounded, and the verdict windows never accuse an honest node.
// Skipped under -short.
func TestTwoVirtualHourSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	t.Parallel()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	cfg.MaliciousFraction = 0.1
	rng := rand.New(rand.NewPCG(1001, 1009))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * time.Minute)
	archiveAfterWarmup := sys.Archive.Size()

	honest := map[id.ID]bool{}
	for i := uint32(0); i < uint32(sys.Size()); i++ {
		honest[sys.NodeID(i)] = sys.Behavior(i).Honest()
	}
	members := sys.AliveIDs()
	var sent, delivered int
	var nodeDrops, nodeDropsCorrect int // ground truth: a forwarder dropped
	var netDrops, netDropsMisblamed int // ground truth: a link ate it
	formally := map[id.ID]bool{}
	// ~110 virtual minutes of traffic, one message per virtual minute.
	for minute := 0; minute < 110; minute++ {
		src := members[rng.IntN(len(members))]
		dst := members[rng.IntN(len(members))]
		if src != dst {
			rep, err := sys.SendMessage(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			sent++
			switch rep.Kind {
			case core.DropNone:
				delivered++
			case core.DropByNode:
				nodeDrops++
				if rep.Culprit == rep.DroppedBy {
					nodeDropsCorrect++
				}
			case core.DropByLink, core.DropAckByLink:
				netDrops++
				if !rep.NetworkBlamed {
					netDropsMisblamed++
				}
			}
			for _, v := range rep.Verdicts {
				if v.Guilty && sys.GuiltyCount(v.Judged) >= cfg.Window.M {
					formally[v.Judged] = true
				}
			}
		}
		sys.Run(time.Minute)
	}
	t.Logf("soak: sent %d, delivered %d; node drops %d (correct %d); network drops %d (misblamed %d)",
		sent, delivered, nodeDrops, nodeDropsCorrect, netDrops, netDropsMisblamed)

	// Archive retention held memory roughly steady across two hours.
	if sz := sys.Archive.Size(); sz > 3*archiveAfterWarmup {
		t.Errorf("archive grew from %d to %d despite retention", archiveAfterWarmup, sz)
	}
	// Genuine node drops mostly land on the dropper.
	if nodeDrops > 2 && nodeDropsCorrect*2 < nodeDrops {
		t.Errorf("node-drop culprit accuracy %d/%d too low", nodeDropsCorrect, nodeDrops)
	}
	// Network drops are only occasionally misattributed to a node; the
	// per-verdict false-guilty rate is a few percent (§4.3), so allow a
	// modest share but not gross misattribution.
	if netDrops > 10 && float64(netDropsMisblamed) > 0.25*float64(netDrops) {
		t.Errorf("network misblame rate %d/%d too high", netDropsMisblamed, netDrops)
	}
	// A node formally accused during the soak should not be honest —
	// with w=100 and m=6, ~2 guilty verdicts per honest node across two
	// hours cannot trip the threshold.
	for nid, isHonest := range honest {
		if isHonest && formally[nid] {
			t.Errorf("honest node %s formally accused during soak", nid.Short())
		}
	}
}

// TestDepartedAccuserChainStillVerifies holds the system's one key
// directory to its departure rule: slab rows outlive departures, so a
// chain published before its accusers left still verifies through
// sys.KeyDir() and is still served by an AccusationRepo built on it,
// while an identifier the system never admitted stays unknown.
func TestDepartedAccuserChainStillVerifies(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	rng := rand.New(rand.NewPCG(601, 607))
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartProbing(); err != nil {
		t.Fatal(err)
	}
	sys.Run(6 * time.Minute)
	store, err := dht.New(sys.Overlay.Ring(), dht.DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := dht.NewAccusationRepo(store, sys.KeyDir(), cfg.Blame.GuiltyThreshold)
	if err != nil {
		t.Fatal(err)
	}

	// Make the middle hop of the first multi-hop route a dropper and
	// resend until its stewards publish a chain against it.
	var chain *core.RevisionChain
	members := sys.AliveIDs()
	for _, dst := range members[1:] {
		rep, err := sys.SendMessage(members[0], dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Route) < 3 {
			continue
		}
		if err := sys.SetBehavior(rep.Route[1], core.Behavior{DropsMessages: true}); err != nil {
			t.Fatal(err)
		}
		for try := 0; try < 10 && chain == nil; try++ {
			sys.Run(5 * time.Second)
			if rep, err = sys.SendMessage(members[0], dst); err != nil {
				t.Fatal(err)
			}
			chain = rep.Chain
		}
		break
	}
	if chain == nil {
		t.Fatal("no accusation chain formed against the dropper")
	}
	if err := repo.Publish(chain); err != nil {
		t.Fatalf("publish: %v", err)
	}

	keys := sys.KeyDir()
	before := make(map[id.ID][]byte)
	for _, l := range chain.Links {
		pub, _ := keys(l.Accuser)
		before[l.Accuser] = pub
		if _, ok := sys.Overlay.IndexOf(l.Accuser); ok {
			if err := sys.FailNode(l.Accuser); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := store.Rebalance(sys.Overlay.Ring()); err != nil {
		t.Fatal(err)
	}
	for accuser, want := range before {
		if _, member := sys.Overlay.IndexOf(accuser); member {
			t.Fatalf("accuser %s did not depart", accuser.Short())
		}
		if pub, ok := keys(accuser); !ok || !bytes.Equal(pub, want) {
			t.Errorf("departed accuser %s resolves to %x, %v; held %x", accuser.Short(), pub, ok, want)
		}
	}
	if err := chain.Verify(keys, cfg.Blame.GuiltyThreshold); err != nil {
		t.Errorf("chain of departed accusers no longer verifies: %v", err)
	}
	got, err := repo.Fetch(chain.Culprit())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("repository serves %d chains against %s after its accusers departed, want 1", len(got), chain.Culprit().Short())
	}
	for _, stranger := range []id.ID{id.Zero, id.Random(rng)} {
		if _, ok := keys(stranger); ok {
			t.Errorf("key directory resolves %s, which was never admitted", stranger.Short())
		}
	}
}
