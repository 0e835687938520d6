package tomography

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// randomTreeFixture generates a random connected graph, picks a root
// and leaf routers, and builds a tomography tree.
func randomTreeFixture(r *rand.Rand, routers, leaves int) (*topology.Graph, *Tree, error) {
	g, err := topology.NewGraph(routers)
	if err != nil {
		return nil, nil, err
	}
	// Random spanning tree plus a few chords.
	for i := 1; i < routers; i++ {
		if _, err := g.AddLink(topology.RouterID(i), topology.RouterID(r.IntN(i))); err != nil {
			return nil, nil, err
		}
	}
	for c := 0; c < routers/4; c++ {
		a, b := r.IntN(routers), r.IntN(routers)
		if a == b {
			continue
		}
		if _, err := g.AddLink(topology.RouterID(a), topology.RouterID(b)); err != nil {
			return nil, nil, err
		}
	}
	root := topology.RouterID(r.IntN(routers))
	var peerLeaves []Leaf
	used := map[topology.RouterID]bool{root: true}
	for len(peerLeaves) < leaves {
		router := topology.RouterID(r.IntN(routers))
		if used[router] {
			continue
		}
		used[router] = true
		peerLeaves = append(peerLeaves, Leaf{Node: id.Random(r), Router: router})
	}
	tree, err := BuildTree(g, id.Random(r), root, peerLeaves)
	return g, tree, err
}

// TestPropBranchTreeInvariants checks, over many random trees, that the
// branch-tree reduction preserves structure: parents precede children,
// segments concatenate back to the original leaf paths, and every leaf
// maps to a node whose root-path matches its link path.
func TestPropBranchTreeInvariants(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(901, 907))
	for trial := 0; trial < 60; trial++ {
		routers := 5 + r.IntN(40)
		leaves := 1 + r.IntN(min(routers-1, 8))
		_, tree, err := randomTreeFixture(r, routers, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Leaves) == 0 {
			continue
		}
		bt, err := buildBranchTree(tree.Leaves)
		if err != nil {
			t.Fatal(err)
		}
		// Parents precede children (topological order).
		for i, p := range bt.parent {
			if p >= i {
				t.Fatalf("trial %d: node %d has parent %d (not topological)", trial, i, p)
			}
			if i == 0 && p != -1 {
				t.Fatalf("trial %d: root parent = %d", trial, p)
			}
		}
		// Reconstruct each leaf's path by walking segments root-ward.
		for li := range tree.Leaves {
			node := bt.leafOf[li]
			var segs [][]topology.LinkID
			for at := node; at != -1; at = bt.parent[at] {
				segs = append(segs, bt.segLinks[at])
			}
			var rebuilt []topology.LinkID
			for i := len(segs) - 1; i >= 0; i-- {
				rebuilt = append(rebuilt, segs[i]...)
			}
			want := tree.Leaves[li].Path
			if len(rebuilt) != len(want) {
				t.Fatalf("trial %d leaf %d: rebuilt %d links, want %d",
					trial, li, len(rebuilt), len(want))
			}
			for i := range want {
				if rebuilt[i] != want[i] {
					t.Fatalf("trial %d leaf %d: link %d = %d, want %d",
						trial, li, i, rebuilt[i], want[i])
				}
			}
		}
		// LCA sanity: meet of a leaf with itself is its own node; meets
		// are symmetric.
		depth := bt.depths()
		for i := range tree.Leaves {
			for j := range tree.Leaves {
				mij := bt.lca(bt.leafOf[i], bt.leafOf[j], depth)
				mji := bt.lca(bt.leafOf[j], bt.leafOf[i], depth)
				if mij != mji {
					t.Fatalf("trial %d: lca not symmetric", trial)
				}
				if i == j && mij != bt.leafOf[i] {
					t.Fatalf("trial %d: self-lca wrong", trial)
				}
			}
		}
	}
}

// TestPropHeavyweightEstimatesBounded: on random trees with random loss
// assignments, the MLE must return loss rates in [0, 1] for every
// segment and marginals consistent with observation counts.
func TestPropHeavyweightEstimatesBounded(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(911, 913))
	for trial := 0; trial < 25; trial++ {
		routers := 6 + r.IntN(25)
		leaves := 2 + r.IntN(5)
		g, tree, err := randomTreeFixture(r, routers, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Leaves) < 2 {
			continue
		}
		net, err := netsim.NewNetwork(g, netsim.NewSimulator(),
			netsim.WithLossModel(netsim.LossModel{BaseLoss: 0.02, DownLoss: 0.6}))
		if err != nil {
			t.Fatal(err)
		}
		// Fail a random subset of tree links.
		for _, l := range tree.Links() {
			if r.Float64() < 0.15 {
				if err := net.SetLinkDown(l, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		p, err := NewProber(tree, net, r)
		if err != nil {
			t.Fatal(err)
		}
		est, err := p.HeavyweightProbe(HeavyweightConfig{StripesPerPair: 60, PacketsPerStripe: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range est.Segments {
			if seg.Loss < 0 || seg.Loss > 1 {
				t.Fatalf("trial %d: segment loss %v out of range", trial, seg.Loss)
			}
			if len(seg.Links) == 0 {
				t.Fatalf("trial %d: empty segment", trial)
			}
		}
		for i, m := range est.Marginals {
			if m < 0 || m > 1 {
				t.Fatalf("trial %d: marginal[%d] = %v", trial, i, m)
			}
		}
		if est.Packets <= 0 || est.Stripes <= 0 {
			t.Fatalf("trial %d: accounting empty", trial)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
