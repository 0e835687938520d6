// Package tomography implements Concilium's collaborative network
// measurement layer (§3.2–§3.3): the IP trees connecting each host to
// its routing peers, lightweight and heavyweight striped unicast probing
// in the style of Duffield et al., maximum-likelihood per-link loss
// inference, signed tomographic snapshots, the shared probe archive that
// blame calculations read, and the feedback-verification checks that
// catch leaves lying about probe receipt.
package tomography

import (
	"fmt"
	"slices"
	"sort"

	"concilium/internal/id"
	"concilium/internal/topology"
)

// Leaf is one routing peer at the edge of a tomography tree, with the IP
// link path from the tree's root to that peer's attachment router.
type Leaf struct {
	Node   id.ID
	Router topology.RouterID
	Path   []topology.LinkID
}

// Tree is T_H: the IP communication tree induced by host H's routing
// peers. Its root is H's attachment router and its leaves are the peers.
// Paths come from a single shortest-path tree, so they branch like a
// physical multicast tree.
type Tree struct {
	Root       id.ID
	RootRouter topology.RouterID
	Leaves     []Leaf

	links []topology.LinkID // distinct, ascending
}

// BuildTree derives T_H from the topology: one search from the root
// router (topology.Graph.BFS, which labels the graph's 2-core), then
// path extraction per peer. Peers whose router is unreachable are
// skipped (they cannot be probed at all).
func BuildTree(g *topology.Graph, root id.ID, rootRouter topology.RouterID, peers []Leaf) (*Tree, error) {
	if g == nil {
		return nil, fmt.Errorf("tomography: nil graph")
	}
	bfs, err := g.BFS(rootRouter)
	if err != nil {
		return nil, fmt.Errorf("tomography: tree root: %w", err)
	}
	return BuildTreeBFS(bfs, root, rootRouter, peers)
}

// BuildTreeBFS derives T_H from a shortest-path tree the caller already
// searched, so a caller that sweeps many nodes reuses one BFSScratch
// (CompactSystem.TreeOf). No caller keeps a RouteTree per root: a
// search is cheap next to the tree it feeds, and the churn path
// patches trees instead (PatchTree). bfs must be rooted at rootRouter
// over the current graph.
//
// All leaf paths share one flat backing array sized to the exact hop
// total, so a rebuild costs a constant number of allocations regardless
// of peer count. The produced tree is freshly allocated and never
// aliases a previous tree's storage: outstanding references to an old
// tree's paths (e.g. the failure injector's candidate set) stay intact.
func BuildTreeBFS(bfs *topology.RouteTree, root id.ID, rootRouter topology.RouterID, peers []Leaf) (*Tree, error) {
	if bfs == nil {
		return nil, fmt.Errorf("tomography: nil route tree")
	}
	if bfs.Source != rootRouter {
		return nil, fmt.Errorf("tomography: route tree rooted at %d, want %d", bfs.Source, rootRouter)
	}
	t := &Tree{Root: root, RootRouter: rootRouter}
	reachable, totalHops := 0, 0
	for _, p := range peers {
		if h := bfs.HopCount(p.Router); h >= 0 {
			reachable++
			totalHops += h
		}
	}
	t.Leaves = make([]Leaf, 0, reachable)
	flat := make([]topology.LinkID, 0, totalHops)
	for _, p := range peers {
		if !bfs.Reachable(p.Router) {
			continue
		}
		start := len(flat)
		var err error
		flat, err = bfs.AppendPathTo(flat, p.Router)
		if err != nil {
			return nil, fmt.Errorf("tomography: path to %s: %w", p.Node.Short(), err)
		}
		path := flat[start:len(flat):len(flat)]
		t.Leaves = append(t.Leaves, Leaf{Node: p.Node, Router: p.Router, Path: path})
	}
	var sorted []topology.LinkID
	t.links = distinctLinks(flat, &sorted)
	return t, nil
}

// distinctLinks returns the distinct links of a tree's flat path
// storage, ascending, sorting them in *sorted. Trees are retained by
// the thousand, so the result is one exact-size copy.
func distinctLinks(flat []topology.LinkID, sorted *[]topology.LinkID) []topology.LinkID {
	all := append((*sorted)[:0], flat...)
	slices.Sort(all)
	all = slices.Compact(all)
	*sorted = all
	out := make([]topology.LinkID, len(all))
	copy(out, all)
	return out
}

// PatchScratch holds the reusable state of PatchTree calls: the search
// labels, the per-peer match against the old tree, the routers still
// to be found and the links being sorted. The zero value is ready to
// use; a scratch belongs to one goroutine.
type PatchScratch struct {
	bfs     topology.BFSScratch
	from    []int32 // per peer: the old leaf whose path is kept, -1 if none
	missing []topology.RouterID
	sorted  []topology.LinkID
}

// PatchTree derives the same T_H BuildTree does, paying only for what
// old does not already hold: the path of every peer old reached (same
// node, same router) is kept, and one search runs that stops as soon as
// the anchors of the remaining peers' routers are labelled — it reads
// only the blocks of the graph's 2-core that lie between the root and
// those peers, and a peer hanging below the root's own anchor needs no
// search at all. Paths in a shortest-path tree depend
// only on the graph and the root, and an early-stopped search labels
// exactly as a full one (topology.BFSUntil), so the result equals a
// from-scratch build leaf for leaf. A nil old is the case where
// no peer is found. old must be rooted at rootRouter over the same
// graph.
//
// Like BuildTreeBFS, the produced tree is freshly allocated with all
// leaf paths in one exact-size backing array; kept paths are copied, so
// old and everything still holding its paths stay intact.
func PatchTree(g *topology.Graph, s *PatchScratch, old *Tree, root id.ID, rootRouter topology.RouterID, peers []Leaf) (*Tree, error) {
	if g == nil {
		return nil, fmt.Errorf("tomography: nil graph")
	}
	if old != nil && old.RootRouter != rootRouter {
		return nil, fmt.Errorf("tomography: patching a tree rooted at %d, want %d", old.RootRouter, rootRouter)
	}
	s.from, s.missing = s.from[:0], s.missing[:0]
	last := -1
	for _, p := range peers {
		// A peer sequence mostly survives a churn event in order, so the
		// search for the next peer starts after the previous match.
		at := old.leafAfter(last, p)
		s.from = append(s.from, int32(at))
		if at >= 0 {
			last = at
		} else {
			s.missing = append(s.missing, p.Router)
		}
	}
	var bfs *topology.RouteTree
	if len(s.missing) > 0 {
		var err error
		if bfs, err = g.BFSUntil(&s.bfs, rootRouter, s.missing); err != nil {
			return nil, fmt.Errorf("tomography: tree root: %w", err)
		}
	}
	reachable, totalHops := 0, 0
	for i, p := range peers {
		if at := s.from[i]; at >= 0 {
			reachable++
			totalHops += len(old.Leaves[at].Path)
		} else if h := bfs.HopCount(p.Router); h >= 0 {
			reachable++
			totalHops += h
		}
	}
	t := &Tree{Root: root, RootRouter: rootRouter, Leaves: make([]Leaf, 0, reachable)}
	flat := make([]topology.LinkID, 0, totalHops)
	for i, p := range peers {
		start := len(flat)
		if at := s.from[i]; at >= 0 {
			flat = append(flat, old.Leaves[at].Path...)
		} else if bfs.Reachable(p.Router) {
			var err error
			if flat, err = bfs.AppendPathTo(flat, p.Router); err != nil {
				return nil, fmt.Errorf("tomography: path to %s: %w", p.Node.Short(), err)
			}
		} else {
			continue
		}
		t.Leaves = append(t.Leaves, Leaf{Node: p.Node, Router: p.Router, Path: flat[start:len(flat):len(flat)]})
	}
	t.links = distinctLinks(flat, &s.sorted)
	return t, nil
}

// leafAfter returns the index of t's leaf for peer p (same node, same
// router), searching circularly from the leaf after prev, or -1. A nil
// tree has no leaves.
func (t *Tree) leafAfter(prev int, p Leaf) int {
	if t == nil {
		return -1
	}
	n := len(t.Leaves)
	for k, i := 0, prev+1; k < n; k, i = k+1, i+1 {
		if i >= n {
			i = 0
		}
		if l := &t.Leaves[i]; l.Node == p.Node && l.Router == p.Router {
			return i
		}
	}
	return -1
}

// Links returns the distinct IP links in the tree, ascending. The slice
// is shared and must not be modified.
func (t *Tree) Links() []topology.LinkID { return t.links }

// Contains reports whether link l is part of the tree.
func (t *Tree) Contains(l topology.LinkID) bool {
	_, ok := slices.BinarySearch(t.links, l)
	return ok
}

// PathTo returns the root-to-peer link path for the given peer.
func (t *Tree) PathTo(peer id.ID) ([]topology.LinkID, bool) {
	for i := range t.Leaves {
		if t.Leaves[i].Node == peer {
			return t.Leaves[i].Path, true
		}
	}
	return nil, false
}

// Forest is F_H: the union of H's own tree and the trees rooted at each
// of H's routing peers (§3.2). Concilium's goal is to estimate link
// quality across this forest.
type Forest struct {
	Own   *Tree
	Peers []*Tree

	links []topology.LinkID
}

// BuildForest unions the trees. Nil peer trees are skipped.
func BuildForest(own *Tree, peerTrees []*Tree) (*Forest, error) {
	if own == nil {
		return nil, fmt.Errorf("tomography: forest needs the host's own tree")
	}
	f := &Forest{Own: own}
	set := make(map[topology.LinkID]struct{}, len(own.links))
	for _, l := range own.links {
		set[l] = struct{}{}
	}
	for _, pt := range peerTrees {
		if pt == nil {
			continue
		}
		f.Peers = append(f.Peers, pt)
		for _, l := range pt.links {
			set[l] = struct{}{}
		}
	}
	f.links = make([]topology.LinkID, 0, len(set))
	for l := range set {
		f.links = append(f.links, l)
	}
	sort.Slice(f.links, func(i, j int) bool { return f.links[i] < f.links[j] })
	return f, nil
}

// Links returns the distinct links across the whole forest, ascending.
func (f *Forest) Links() []topology.LinkID { return f.links }

// CoverageWithTrees returns the fraction of forest links covered by the
// host's own tree plus the first k peer trees — the quantity plotted in
// the paper's Figure 4.
func (f *Forest) CoverageWithTrees(k int) float64 {
	if len(f.links) == 0 {
		return 0
	}
	covered := make(map[topology.LinkID]struct{}, len(f.Own.links))
	for _, l := range f.Own.links {
		covered[l] = struct{}{}
	}
	if k > len(f.Peers) {
		k = len(f.Peers)
	}
	for i := 0; i < k; i++ {
		for _, l := range f.Peers[i].links {
			covered[l] = struct{}{}
		}
	}
	return float64(len(covered)) / float64(len(f.links))
}

// VouchingCounts returns, for each forest link, how many trees (own plus
// the first k peer trees) contain it — the "hosts that can vouch for a
// link" series of Figure 4.
func (f *Forest) VouchingCounts(k int) map[topology.LinkID]int {
	out := make(map[topology.LinkID]int, len(f.links))
	for _, l := range f.Own.links {
		out[l]++
	}
	if k > len(f.Peers) {
		k = len(f.Peers)
	}
	for i := 0; i < k; i++ {
		for _, l := range f.Peers[i].links {
			out[l]++
		}
	}
	return out
}

// branchTree is the logical branching structure of a Tree: the root,
// branch routers where leaf paths diverge, and leaves. The MLE estimator
// works on this reduced form.
type branchTree struct {
	// nodes[0] is the root. Each node is a router where >=2 leaf paths
	// diverge, or a leaf endpoint.
	parent   []int               // index into nodes; parent[0] == -1
	pathLoss []int               // number of physical links between node and parent (unused by the estimator but kept for reporting)
	leafOf   []int               // node index per tree leaf (aligned with Tree.Leaves)
	segLinks [][]topology.LinkID // physical links between node and its parent
}
