package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// TestChurnTreeReuseMatchesFromScratch drives churn across the chaos
// campaign seeds and verifies the tree cache — selective invalidation
// plus PatchTree — leaves every node's tomography tree identical to a
// from-scratch BuildTree over the same peers: same leaf order, same link
// sets, and identical PathTo results link for link. BuildTree runs its
// own BFS, so it shares no code with the patch path.
func TestChurnTreeReuseMatchesFromScratch(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultSystemConfig()
			cfg.Topology = topology.TestConfig()
			cfg.OverlayFraction = 0.5
			s, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed+1)))
			if err != nil {
				t.Fatal(err)
			}
			verifyTreesMatchScratch(t, s) // every tree cached before churn
			churn := rand.New(rand.NewPCG(seed+2, seed+3))
			hosts := s.Topo.EndHosts()
			for round := 0; round < 4; round++ {
				if s.Size() > 6 {
					members := s.AliveIDs()
					victim := members[churn.IntN(len(members))]
					if err := s.FailNode(victim); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.JoinNode(hosts[churn.IntN(len(hosts))]); err != nil {
					t.Fatal(err)
				}
				verifyTreesMatchScratch(t, s)
			}
		})
	}
}

// verifyTreesMatchScratch compares every node's cached tree against a
// from-scratch BuildTree over the node's current routing peers.
func verifyTreesMatchScratch(t *testing.T, s *CompactSystem) {
	t.Helper()
	for i := uint32(0); i < uint32(s.Size()); i++ {
		nid := s.NodeID(i)
		var leaves []tomography.Leaf
		for _, j := range s.Overlay.AppendRoutingPeers(i, nil) {
			leaves = append(leaves, tomography.Leaf{Node: s.NodeID(j), Router: s.Router(j)})
		}
		fresh, err := tomography.BuildTree(s.Topo, nid, s.Router(i), leaves)
		if err != nil {
			t.Fatal(err)
		}
		live, err := s.Tree(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Leaves) != len(fresh.Leaves) {
			t.Fatalf("node %s: %d leaves live, %d from scratch", nid.Short(), len(live.Leaves), len(fresh.Leaves))
		}
		for i := range fresh.Leaves {
			if live.Leaves[i].Node != fresh.Leaves[i].Node || live.Leaves[i].Router != fresh.Leaves[i].Router {
				t.Fatalf("node %s leaf %d: %s live, %s from scratch",
					nid.Short(), i, live.Leaves[i].Node.Short(), fresh.Leaves[i].Node.Short())
			}
			wantPath, ok := fresh.PathTo(fresh.Leaves[i].Node)
			if !ok {
				t.Fatalf("scratch tree lost leaf %s", fresh.Leaves[i].Node.Short())
			}
			gotPath, ok := live.PathTo(fresh.Leaves[i].Node)
			if !ok {
				t.Fatalf("live tree lost leaf %s", fresh.Leaves[i].Node.Short())
			}
			if len(gotPath) != len(wantPath) {
				t.Fatalf("node %s → %s: path length %d live, %d from scratch",
					nid.Short(), fresh.Leaves[i].Node.Short(), len(gotPath), len(wantPath))
			}
			for k := range wantPath {
				if gotPath[k] != wantPath[k] {
					t.Fatalf("node %s → %s: link %d is %d live, %d from scratch",
						nid.Short(), fresh.Leaves[i].Node.Short(), k, gotPath[k], wantPath[k])
				}
			}
		}
		liveLinks, freshLinks := live.Links(), fresh.Links()
		if len(liveLinks) != len(freshLinks) {
			t.Fatalf("node %s: %d links live, %d from scratch", nid.Short(), len(liveLinks), len(freshLinks))
		}
		for k := range freshLinks {
			if liveLinks[k] != freshLinks[k] {
				t.Fatalf("node %s: link[%d] = %d live, %d from scratch", nid.Short(), k, liveLinks[k], freshLinks[k])
			}
		}
	}
}
