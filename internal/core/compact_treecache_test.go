package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/overlay"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// The tree cache's contract is one sentence — whatever treeOfSlab
// returns equals a fresh TreeOf — and churn is what can break it: a
// changed routing-peer sequence the overlay failed to report leaves a
// wrong tree marked current, and a patch that keeps a path it should not
// produces a wrong tree outright. TreeOf (full BFS, BuildTreeBFS) shares
// no code with the patch path, so it is the oracle.

// treeCacheWatch counts what the tree cache did between two calls of
// observe, read off the cache itself: a slot that went from nil to set
// was built, a pointer that changed was patched, and a slot cs.treeStale
// newly flags, or flags again after a patch, was marked stale. A consult
// that leaves a current tree's pointer unchanged is a hit;
// requireCoherentTrees counts those.
type treeCacheWatch struct {
	cs    *CompactSystem
	trees []*tomography.Tree
	stale []bool

	built, patched, markedStale uint64
}

func newTreeCacheWatch(cs *CompactSystem) *treeCacheWatch {
	w := &treeCacheWatch{cs: cs}
	w.observe()
	return w
}

// observe adds what changed since the last observation to the counts.
// A slot patched twice in between counts once, so callers observe after
// every event that can mark or patch.
func (w *treeCacheWatch) observe() {
	for p, tree := range w.cs.trees {
		var prev *tomography.Tree
		var wasStale bool
		if p < len(w.trees) {
			prev, wasStale = w.trees[p], w.stale[p]
		}
		switch {
		case tree == nil || tree == prev:
		case prev == nil:
			w.built++
		default:
			w.patched++
		}
		// A changed pointer was patched, which clears the flag, so a
		// flag on it is a new mark too. A departed slab's dropped tree
		// keeps whatever flag it had.
		if tree != nil && w.cs.treeStale[p] && (!wasStale || tree != prev) {
			w.markedStale++
		}
	}
	w.trees = append(w.trees[:0], w.cs.trees...)
	w.stale = append(w.stale[:0], w.cs.treeStale...)
}

// requireCoherentTrees consults every live slab's cached tree and
// compares it with a fresh build. A tree replaced by the consult must
// leave its predecessor untouched and share no path storage with it:
// messages in flight and the failure injector still read the old paths.
// A current tree must come back as it was; the count of those hits is
// returned.
func requireCoherentTrees(t *testing.T, cs *CompactSystem, scratch *topology.BFSScratch, step int) (hits uint64) {
	t.Helper()
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		i := cs.Overlay.Pos(uint32(p))
		if i == overlay.NoIndex {
			continue
		}
		old := cs.trees[p]
		var oldCopy *tomography.Tree
		if old != nil && cs.treeStale[p] {
			c := *old
			c.Leaves = make([]tomography.Leaf, len(old.Leaves))
			for l, leaf := range old.Leaves {
				leaf.Path = append([]topology.LinkID{}, leaf.Path...)
				c.Leaves[l] = leaf
			}
			oldCopy = &c
		}
		current := old != nil && !cs.treeStale[p]
		got, err := cs.treeOfSlab(uint32(p))
		if err != nil {
			t.Fatalf("step %d slab %d: %v", step, p, err)
		}
		if current {
			if got != old {
				t.Fatalf("step %d slab %d: current tree rebuilt", step, p)
			}
			hits++
		}
		want, err := cs.TreeOf(i, scratch)
		if err != nil {
			t.Fatalf("step %d slab %d: fresh build: %v", step, p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d slab %d (%s): cached tree differs from a fresh build\ncached %d leaves %d links\nfresh  %d leaves %d links",
				step, p, cs.Overlay.ID(i).Short(), len(got.Leaves), len(got.Links()), len(want.Leaves), len(want.Links()))
		}
		if oldCopy == nil {
			continue
		}
		if got == old {
			t.Fatalf("step %d slab %d: stale tree returned as current", step, p)
		}
		for l := range old.Leaves {
			if !reflect.DeepEqual(old.Leaves[l], oldCopy.Leaves[l]) {
				t.Fatalf("step %d slab %d: patch modified the old tree's leaf %d", step, p, l)
			}
			kept, ok := got.PathTo(old.Leaves[l].Node)
			if ok && len(kept) > 0 && &kept[0] == &old.Leaves[l].Path[0] {
				t.Fatalf("step %d slab %d: patched tree aliases the old tree's path storage", step, p)
			}
		}
	}
	return hits
}

// randomChurnEvent fails a random member, joins one at a random host,
// or joins one at a chosen identifier just clockwise of a random member
// (the eclipse placement).
func randomChurnEvent(t *testing.T, cs *CompactSystem, hosts []topology.RouterID, pick *rand.Rand) {
	t.Helper()
	switch pick.IntN(3) {
	case 0:
		if cs.Size() > 16 {
			alive := cs.AliveIDs()
			if err := cs.FailNode(alive[pick.IntN(len(alive))]); err != nil {
				t.Fatal(err)
			}
			return
		}
	case 1:
		var delta id.ID
		delta[id.Bytes-1] = byte(1 + pick.IntN(255))
		nid := id.Add(cs.NodeID(uint32(pick.IntN(cs.Size()))), delta)
		if _, err := cs.JoinNodeAt(hosts[pick.IntN(len(hosts))], nid); err != nil {
			t.Fatal(err)
		}
		return
	}
	if _, err := cs.JoinNode(hosts[pick.IntN(len(hosts))]); err != nil {
		t.Fatal(err)
	}
}

// TestTreeCacheCoherentUnderChurn runs randomized op sequences — one to
// three churn events (departures, joins, and joins at chosen
// identifiers), then a few sends that consult (and so patch) only
// the trees on their routes, one of them with a FailNode firing while
// the message is in flight, then probing time — and checks every live
// slab against the oracle after every step. Seeds come from the test's
// own generator so the property is not tuned to the suite's usual three.
func TestTreeCacheCoherentUnderChurn(t *testing.T) {
	t.Parallel()
	seeds := rand.New(rand.NewPCG(0x7265655f636f6865, 0x72656e6365))
	for run := 0; run < 8; run++ {
		seed, medium := seeds.Uint64(), run%2 == 1
		steps := 24
		if medium {
			steps = 10
		}
		t.Run(fmt.Sprintf("seed-%016x", seed), func(t *testing.T) {
			t.Parallel()
			cs, err := BuildCompactSystem(equivSystemConfig(medium), rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)))
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.StartProbing(); err != nil {
				t.Fatal(err)
			}
			pick := rand.New(rand.NewPCG(seed, 3))
			hosts := cs.Topo.EndHosts()
			var scratch topology.BFSScratch
			var midFlightErr error
			watch := newTreeCacheWatch(cs)
			requireCoherentTrees(t, cs, &scratch, -1)
			watch.observe()
			for step := 0; step < steps; step++ {
				for events := 1 + pick.IntN(3); events > 0; events-- {
					randomChurnEvent(t, cs, hosts, pick)
					watch.observe()
				}
				for sends := 0; sends < 3; sends++ {
					alive := cs.AliveIDs()
					src, dst := alive[pick.IntN(len(alive))], alive[pick.IntN(len(alive))]
					if sends == 1 {
						// Never the endpoints: SendMessage rejects unknown
						// ones before the event could fire.
						victim := alive[pick.IntN(len(alive))]
						if victim != src && victim != dst && cs.Size() > 16 {
							err := cs.Sim.ScheduleAfter(time.Millisecond, func() {
								if err := cs.FailNode(victim); err != nil {
									midFlightErr = err
								}
								watch.observe()
							})
							if err != nil {
								t.Fatal(err)
							}
						}
					}
					if _, err := cs.SendMessage(src, dst); err != nil {
						t.Fatalf("step %d: send: %v", step, err)
					}
					watch.observe()
				}
				cs.Run(time.Duration(pick.IntN(20)) * time.Second)
				watch.observe()
				if midFlightErr != nil {
					t.Fatalf("step %d: mid-flight FailNode: %v", step, midFlightErr)
				}
				requireCoherentTrees(t, cs, &scratch, step)
				watch.observe()
			}
			if watch.patched == 0 || watch.markedStale < watch.patched {
				t.Errorf("cache patched %d trees, marked %d stale: churn patched nothing, or patched more than it marked", watch.patched, watch.markedStale)
			}
		})
	}
}

// TestTreeCacheInvalidatesSelectively pins what the change is for: one
// churn event outdates the trees of the few members whose routing peers
// changed, and everything else keeps answering from the cache.
func TestTreeCacheInvalidatesSelectively(t *testing.T) {
	t.Parallel()
	cs, err := BuildCompactSystem(equivSystemConfig(true), rand.New(rand.NewPCG(0x73656c65, 0x63746976)))
	if err != nil {
		t.Fatal(err)
	}
	var scratch topology.BFSScratch
	watch := newTreeCacheWatch(cs)
	hits := requireCoherentTrees(t, cs, &scratch, -1)
	watch.observe()
	live := uint64(cs.Size())
	if watch.built != live || watch.patched != 0 || hits != 0 || watch.markedStale != 0 {
		t.Fatalf("after first consult of %d slabs: built %d, patched %d, hits %d, marked stale %d",
			live, watch.built, watch.patched, hits, watch.markedStale)
	}
	hosts := cs.Topo.EndHosts()
	events := []func() error{
		func() error { return cs.FailNode(cs.Overlay.ID(uint32(cs.Size() / 3))) },
		func() error { _, err := cs.JoinNode(hosts[len(hosts)/2]); return err },
	}
	for e, event := range events {
		before := *watch
		if err := event(); err != nil {
			t.Fatal(err)
		}
		watch.observe()
		hits := requireCoherentTrees(t, cs, &scratch, e)
		watch.observe()
		rebuilt := watch.patched + watch.built - before.patched - before.built
		marked := watch.markedStale - before.markedStale
		if rebuilt == 0 || rebuilt > live/4 {
			t.Errorf("event %d: rebuilt %d of %d trees, want a small non-zero share", e, rebuilt, live)
		}
		// A join adds one never-built tree to the stale ones.
		if built := watch.built - before.built; rebuilt != marked+built || built > 1 {
			t.Errorf("event %d: rebuilt %d, marked stale %d, built from nothing %d", e, rebuilt, marked, built)
		}
		if hits+rebuilt != uint64(cs.Size()) {
			t.Errorf("event %d: %d hits + %d rebuilt != %d live slabs", e, hits, rebuilt, cs.Size())
		}
	}
}

// benchScaleConfig is the bench/ workloads' deployment at about n
// overlay nodes: a fixed transit core whose stub count grows so that
// about 2n end hosts exist, half of them in the overlay, one worker.
func benchScaleConfig(n int) SystemConfig {
	const hostsPerSPT = 4 * 10 * 6
	cfg := DefaultSystemConfig()
	cfg.Topology = topology.Config{
		TransitDomains:          4,
		RoutersPerTransitDomain: 10,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   (2*n + hostsPerSPT - 1) / hostsPerSPT,
		MeanRoutersPerStub:      6,
		StubChordFraction:       0.2,
		StubMultihomeFraction:   0.1,
		HostsPerStubRouter:      1.0,
	}
	cfg.OverlayFraction = 0.5
	cfg.Workers = 1
	return cfg
}

// BenchmarkCompactChurn times one departure and one join at N≈10k, the
// churn-n10k benchmark workload's event pair, without traffic. What is
// left is overlay repair — the ring, row and ring↔slab splices plus the
// slots the event changed — and, for a join, the newcomer's FillNode
// and key generation.
func BenchmarkCompactChurn(b *testing.B) {
	cs, err := BuildCompactSystem(benchScaleConfig(10000), rand.New(rand.NewPCG(20070625, 11)))
	if err != nil {
		b.Fatal(err)
	}
	hosts := cs.Topo.EndHosts()
	pick := rand.New(rand.NewPCG(5, 7))
	var fail, join time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := cs.Overlay.ID(uint32(pick.IntN(cs.Size())))
		start := time.Now()
		if err := cs.FailNode(victim); err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		if _, err := cs.JoinNode(hosts[pick.IntN(len(hosts))]); err != nil {
			b.Fatal(err)
		}
		join += time.Since(mid)
		fail += mid.Sub(start)
	}
	b.ReportMetric(float64(fail.Microseconds())/float64(b.N), "fail_us")
	b.ReportMetric(float64(join.Microseconds())/float64(b.N), "join_us")
}
