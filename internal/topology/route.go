package topology

import (
	"fmt"
	"slices"
)

// routeIndex is what a search reads instead of the whole graph: the
// graph's 2-core split into its biconnected blocks, and the way into
// the core from every other router.
//
// Peeling routers of degree ≤ 1 until none is left leaves the 2-core.
// Every peeled router hangs in a tree below exactly one core router,
// its anchor: the anchor is a cut vertex, and every path out of the
// tree passes through it. A component without a cycle has an empty
// 2-core, and its lowest router stands in as the anchor of the rest.
// Anchors are numbered densely — core indices, the 2-core in router
// order and then the stand-ins — and the core's links among themselves
// are kept as a CSR adjacency in each router's adjacency order, with
// the non-core neighbours left out.
//
// Why searching the core gives the whole-graph search's paths: a FIFO
// breadth-first search that discovers neighbours in adjacency order
// labels every router with its lexicographically least shortest path,
// comparing paths as sequences of adjacency indices.
//   - The chain between a peeled router and its anchor is unique, and
//     every path between routers with different anchors runs through
//     both chains.
//   - A shortest path between two core routers never enters a pendant
//     tree: it would have to leave by the router it entered through.
//   - Leaving out the non-core neighbours keeps the relative order of
//     the rest, so the least path among core paths is the same under
//     the CSR order as under the graph's.
//
// So the least path splits into unique chain up, least core path and
// unique chain down, and a FIFO search of the CSR from the source's
// anchor finds the middle part. Two routers with the same anchor are
// joined by their tree path, which is the only simple path between
// them.
//
// The core itself is a tree of biconnected blocks: each CSR entry
// carries its link's block, and each component's block tree is rooted
// at its largest block (the lowest block on ties). home[c] is the block
// nearest the root that holds core index c, and up[b] is block b's
// parent. A path between two core routers crosses only blocks on the
// block-tree path between them, which BFSUntil uses (see there).
type routeIndex struct {
	hang  []hang     // by router
	off   []int32    // core index c's links are edges[off[c]:off[c+1]]
	edges []coreEdge // the CSR adjacency
	home  []int32    // by core index; -1 for a stand-in, which has no links
	up    []int32    // by block; -1 for a root
}

// hang places a router relative to the core. A peeled router's up and
// link step one router toward its anchor; its depth, the number of
// steps, is counted on the way (peeled trees are shallow: at most 8
// links on the generated topologies). An anchor's up is ^c, c its core
// index.
type hang struct {
	up   int32
	link LinkID
}

// coreEdge is one CSR entry: the neighbour's core index, the link to
// it and the link's block.
type coreEdge struct {
	to    int32
	link  LinkID
	block int32
}

// routes returns the graph's route index, building it on first use.
// Readers may call it concurrently; AddRouter and AddLink drop the
// index, and construction is not synchronized with readers anyway.
func (g *Graph) routes() *routeIndex {
	if ix := g.index.Load(); ix != nil {
		return ix
	}
	g.indexMu.Lock()
	defer g.indexMu.Unlock()
	if ix := g.index.Load(); ix != nil {
		return ix
	}
	ix := buildRouteIndex(g.adj)
	g.index.Store(ix)
	return ix
}

func buildRouteIndex(adj [][]Neighbor) *routeIndex {
	// Peel: deg counts an unpeeled router's unpeeled neighbours, and a
	// router is queued once, when that count first reaches one (or is
	// at most one to begin with). A popped router reads -1.
	deg := make([]int32, len(adj))
	queue := make([]RouterID, 0, len(adj))
	for r, nbs := range adj {
		deg[r] = int32(len(nbs))
		if len(nbs) <= 1 {
			queue = append(queue, RouterID(r))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		deg[u] = -1
		for _, nb := range adj[u] {
			if deg[nb.Router] < 0 {
				continue
			}
			if deg[nb.Router]--; deg[nb.Router] == 1 {
				queue = append(queue, nb.Router)
			}
		}
	}

	// The 2-core is what is left, each router with its core degree.
	ix := &routeIndex{hang: make([]hang, len(adj))}
	ncore, nedges := int32(0), int32(0)
	for r := range ix.hang {
		if deg[r] >= 2 {
			ix.hang[r].up = ^ncore
			ncore++
			nedges += deg[r]
		}
	}
	ix.off = make([]int32, 1, ncore+1)
	ix.edges = make([]coreEdge, 0, nedges)
	for r, nbs := range adj {
		if deg[r] < 2 {
			continue
		}
		for _, nb := range nbs {
			if deg[nb.Router] >= 2 {
				ix.edges = append(ix.edges, coreEdge{to: ^ix.hang[nb.Router].up, link: nb.Link})
			}
		}
		ix.off = append(ix.off, int32(len(ix.edges)))
	}

	// Hang every peeled tree below its anchor; deg turns from -1 to
	// -2 as a peeled router is placed. What no core router reaches is
	// a component without a cycle; its lowest router, met first in
	// router order, anchors it with no core links.
	hangBelow := func(a RouterID) {
		queue = append(queue[:0], a)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, nb := range adj[u] {
				if deg[nb.Router] != -1 {
					continue
				}
				deg[nb.Router] = -2
				ix.hang[nb.Router] = hang{up: int32(u), link: nb.Link}
				queue = append(queue, nb.Router)
			}
		}
	}
	for r := range adj {
		if deg[r] >= 2 {
			hangBelow(RouterID(r))
		}
	}
	for r := range adj {
		if deg[r] != -1 {
			continue
		}
		deg[r] = -2
		ix.hang[r] = hang{up: ^int32(len(ix.off) - 1)}
		ix.off = append(ix.off, int32(len(ix.edges)))
		hangBelow(RouterID(r))
	}
	ix.splitBlocks()
	return ix
}

// splitBlocks finds the core's biconnected blocks with an iterative
// Tarjan search from the lowest core index of each component, then
// roots each component's block tree at its largest block.
//
// In the search's tree every core index but a component's first has a
// tree link to its parent; blk holds the block of that link, and a
// link's block is blk of its endpoint discovered later (a tree link's
// child, or the deeper end of a link back to an ancestor). A block
// closes when its topmost child finishes with low ≥ its parent's
// discovery time, and top holds that parent: the router the block
// hangs from in the search's tree, whose own tree link lies in the
// block above.
func (ix *routeIndex) splitBlocks() {
	n := int32(len(ix.off) - 1)
	disc := make([]int32, n) // discovery time from 1; 0 when unvisited
	low := make([]int32, n)
	next := make([]int32, n) // the next CSR entry a visited index scans
	blk := make([]int32, n)
	var (
		path, open        []int32 // the search's stack; indices whose block is open
		top, size         []int32 // by block
		roots, firstBlock []int32 // by component
		clock             int32
	)
	for root := int32(0); root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		if ix.off[root] == ix.off[root+1] {
			blk[root] = -1 // a stand-in
			continue
		}
		roots, firstBlock = append(roots, root), append(firstBlock, int32(len(top)))
		clock++
		disc[root], low[root], next[root] = clock, clock, ix.off[root]
		path = append(path[:0], root)
		for {
			u := path[len(path)-1]
			if i := next[u]; i < ix.off[u+1] {
				next[u]++
				v := ix.edges[i].to
				if disc[v] == 0 {
					clock++
					disc[v], low[v], next[v] = clock, clock, ix.off[v]
					path, open = append(path, v), append(open, v)
				} else {
					// Also taken for the link back to u's parent,
					// which cannot change the low ≥ test below.
					low[u] = min(low[u], disc[v])
				}
				continue
			}
			if path = path[:len(path)-1]; len(path) == 0 {
				break
			}
			p := path[len(path)-1]
			low[p] = min(low[p], low[u])
			if low[u] < disc[p] {
				continue
			}
			b, k := int32(len(top)), len(open)
			for {
				k--
				blk[open[k]] = b
				if open[k] == u {
					break
				}
			}
			top, size = append(top, p), append(size, int32(len(open)-k)+1)
			open = open[:k]
		}
	}
	for u := int32(0); u < n; u++ {
		for i := ix.off[u]; i < ix.off[u+1]; i++ {
			v := ix.edges[i].to
			if disc[v] > disc[u] {
				ix.edges[i].block = blk[v]
			} else {
				ix.edges[i].block = blk[u]
			}
		}
	}

	// Re-root each component at its largest block L: the blocks on the
	// way from L up to the search's root turn over, each now hanging
	// from the router it used to hang below. blk becomes home: a router
	// off that way keeps its tree link's block, and one on it takes
	// the block below it on the way.
	firstBlock = append(firstBlock, int32(len(top))) // component k's blocks end at firstBlock[k+1]
	for k, root := range roots {
		l := firstBlock[k]
		for b := l + 1; b < firstBlock[k+1]; b++ {
			if size[b] > size[l] {
				l = b
			}
		}
		b, v := l, top[l]
		top[l] = -1
		for {
			nb := blk[v]
			blk[v] = b
			if v == root {
				break
			}
			v, top[nb] = top[nb], v
			b = nb
		}
	}
	// A block's parent is the home of the router it hangs from.
	for b, v := range top {
		if v >= 0 {
			top[b] = blk[v]
		}
	}
	ix.home, ix.up = blk, top
}

// anchor returns r's anchor as a core index, and r's depth below it.
func (ix *routeIndex) anchor(r RouterID) (c, depth int32) {
	h := ix.hang[r]
	for ; h.up >= 0; depth++ {
		h = ix.hang[h.up]
	}
	return ^h.up, depth
}

// meet returns the depth of the router where the tree paths of a and
// b, at depths da and db below their common anchor, join.
func (ix *routeIndex) meet(a, b RouterID, da, db int32) int32 {
	for ; da > db; da-- {
		a = RouterID(ix.hang[a].up)
	}
	for ; db > da; db-- {
		b = RouterID(ix.hang[b].up)
	}
	for ; a != b; da-- {
		a, b = RouterID(ix.hang[a].up), RouterID(ix.hang[b].up)
	}
	return da
}

// RouteTree is a shortest-path tree rooted at Source. It answers
// "which IP links does a packet from Source to X traverse" — the link
// maps that the paper obtains from RocketFuel-style measurement (§3.2).
//
// A search labels the graph's 2-core only (see routeIndex): each core
// router it reached holds its distance from the source's anchor, the
// core router before it and the link between them. A path is built
// from three parts: the chain from the source up to its anchor, the
// labelled core chain to the target's anchor, and the chain from there
// down to the target. A target with the source's anchor is reached by
// the tree path through the two routers' meeting point. The paths are
// exactly those of a FIFO breadth-first search of the whole graph that
// discovers neighbours in adjacency order.
type RouteTree struct {
	Source RouterID
	ix     *routeIndex
	anchor int32       // the source's anchor, a core index
	depth  int32       // the source's depth below it
	label  []coreLabel // by core index
}

// coreLabel is one core router's search label.
type coreLabel struct {
	dist   int32 // from the source's anchor; negative when unlabelled
	parent int32 // the core index before it on the path
	link   LinkID
}

// BFS computes the shortest-path tree from src. Ties are broken by
// adjacency order, which is deterministic for a deterministically built
// graph. The returned tree owns its storage; callers that compute many
// trees and keep none of them alive should reuse a BFSScratch instead.
func (g *Graph) BFS(src RouterID) (*RouteTree, error) {
	return g.BFSInto(&BFSScratch{}, src)
}

// BFSScratch holds the reusable state of repeated searches: the
// frontier queue and the core labels of one RouteTree, and the block
// stamps of BFSUntil. A system build runs one search per overlay node
// against the same immutable graph; reusing the scratch turns the
// per-node cost from an allocation into a reset of only what the last
// search labelled. The zero value is ready to use, also across graphs.
// A scratch belongs to one goroutine; parallel callers keep one per
// worker.
type BFSScratch struct {
	tree  RouteTree
	queue []int32 // the last search's labelled core indices, in order
	marks []int32 // the target anchors BFSUntil marked
	stamp []uint32
	gen   uint32 // stamp[b] == gen: BFSUntil may cross block b
}

// BFSInto computes the shortest-path tree from src into s's reusable
// RouteTree and returns it. The result is valid only until the next
// search on the same scratch; callers that retain the tree (e.g. a
// per-router cache) must use BFS, which hands out owned storage.
func (g *Graph) BFSInto(s *BFSScratch, src RouterID) (*RouteTree, error) {
	t, err := g.startBFS(s, src)
	if err != nil {
		return nil, err
	}
	off, edges := t.ix.off, t.ix.edges
	queue := append(s.queue, t.anchor)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := t.label[u].dist + 1
		for _, e := range edges[off[u]:off[u+1]] {
			if t.label[e.to].dist >= 0 {
				continue
			}
			t.label[e.to] = coreLabel{dist: d, parent: u, link: e.link}
			queue = append(queue, e.to)
		}
	}
	s.queue = queue
	return t, nil
}

// startBFS readies s for a search from src: it unlabels what the last
// search labelled (its queue and its marks — the core labels are
// otherwise all unlabelled, whichever graph they were last sized for),
// sizes the scratch RouteTree's labels and labels the source's anchor.
// It leaves the queue empty.
func (g *Graph) startBFS(s *BFSScratch, src RouterID) (*RouteTree, error) {
	if !g.validRouter(src) {
		return nil, fmt.Errorf("topology: BFS from unknown router %d", src)
	}
	ix := g.routes()
	t := &s.tree
	for _, c := range s.queue {
		t.label[c].dist = -1
	}
	for _, c := range s.marks {
		t.label[c].dist = -1
	}
	s.queue, s.marks = s.queue[:0], s.marks[:0]
	t.Source, t.ix = src, ix
	t.anchor, t.depth = ix.anchor(src)
	n := len(ix.off) - 1
	if cap(t.label) < n {
		t.label = make([]coreLabel, n)
		for i := range t.label {
			t.label[i].dist = -1
		}
	}
	t.label = t.label[:n]
	t.label[t.anchor] = coreLabel{parent: t.anchor}
	return t, nil
}

// unlabelledTarget marks, in a core label's dist, an anchor an
// early-stopping search still waits for. Like every negative distance
// it reads as unreachable.
const unlabelledTarget = -2

// BFSUntil is BFSInto stopped early: the search ends as soon as the
// anchor of every router in targets is labelled (or what it may cross
// is exhausted), so a caller that needs paths to a few routers does not
// pay for the whole core. It crosses only the blocks on the chains from
// the source's and the targets' anchors up to their block-tree roots.
// A block off those chains hangs, with everything below it, from the
// rest of the core at one cut vertex, holds no source and no target,
// and is entered only through that vertex, which the search labels
// first; so no router outside it is first reached from inside, and
// every label outside is assigned in BFSInto's order. That makes every
// core label assigned before the stop exactly the full search's:
// PathTo agrees with BFSInto for every router whose anchor is labelled
// — the targets, the routers on the way to one, and everything hanging
// below those anchors. Routers whose anchor the search did not get to
// read as unreachable whether or not the graph connects them, so only
// the targets' reachability means anything to the caller. The loop is
// BFSInto's plus the block and stop tests, kept apart so the full
// search pays nothing for them.
func (g *Graph) BFSUntil(s *BFSScratch, src RouterID, targets []RouterID) (*RouteTree, error) {
	for _, r := range targets {
		if !g.validRouter(r) {
			return nil, fmt.Errorf("topology: BFS toward unknown router %d", r)
		}
	}
	t, err := g.startBFS(s, src)
	if err != nil {
		return nil, err
	}
	ix := t.ix
	gen := s.nextGen(len(ix.up))
	stamp := s.stamp
	s.stampChain(ix, t.anchor, gen)
	// pending counts the distinct target anchors not yet labelled.
	pending := 0
	for _, r := range targets {
		a, _ := ix.anchor(r)
		if t.label[a].dist == -1 {
			t.label[a].dist = unlabelledTarget
			s.marks = append(s.marks, a)
			s.stampChain(ix, a, gen)
			pending++
		}
	}
	off, edges := ix.off, ix.edges
	queue := append(s.queue, t.anchor)
search:
	for head := 0; pending > 0 && head < len(queue); head++ {
		u := queue[head]
		d := t.label[u].dist + 1
		for _, e := range edges[off[u]:off[u+1]] {
			if stamp[e.block] != gen {
				continue
			}
			was := t.label[e.to].dist
			if was >= 0 {
				continue
			}
			t.label[e.to] = coreLabel{dist: d, parent: u, link: e.link}
			queue = append(queue, e.to)
			if was == unlabelledTarget {
				if pending--; pending == 0 {
					break search
				}
			}
		}
	}
	s.queue = queue
	return t, nil
}

// nextGen starts a new stamp generation over blocks blocks and returns
// it. Stamps of earlier searches are older generations, so none needs
// clearing except when the counter wraps.
func (s *BFSScratch) nextGen(blocks int) uint32 {
	if s.gen++; s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
	if len(s.stamp) < blocks {
		s.stamp = append(s.stamp, make([]uint32, blocks-len(s.stamp))...)
	}
	return s.gen
}

// stampChain stamps the blocks from core index c's home up to its
// block-tree root, stopping at one already stamped: the rest of the
// chain is too.
func (s *BFSScratch) stampChain(ix *routeIndex, c int32, gen uint32) {
	for b := ix.home[c]; b >= 0 && s.stamp[b] != gen; b = ix.up[b] {
		s.stamp[b] = gen
	}
}

// pathShape is a labelled path's shape: up links from the source to
// its anchor (or to its meeting point with a target under the same
// anchor), across links of core path ending at core index to, and
// down links from there to the target.
type pathShape struct {
	up, across, down int32
	to               int32
}

// shape splits the path to dst into its three parts; ok is false when
// dst is unreachable or was not labelled.
func (t *RouteTree) shape(dst RouterID) (r pathShape, ok bool) {
	if t.ix == nil || dst < 0 || int(dst) >= len(t.ix.hang) {
		return r, false
	}
	a, depth := t.ix.anchor(dst)
	if a == t.anchor {
		m := t.ix.meet(t.Source, dst, t.depth, depth)
		return pathShape{up: t.depth - m, down: depth - m, to: a}, true
	}
	if d := t.label[a].dist; d >= 0 {
		return pathShape{up: t.depth, across: d, down: depth, to: a}, true
	}
	return r, false
}

// Reachable reports whether dst is connected to the tree's source.
func (t *RouteTree) Reachable(dst RouterID) bool {
	_, ok := t.shape(dst)
	return ok
}

// HopCount returns the number of links between the source and dst, or -1
// if unreachable.
func (t *RouteTree) HopCount(dst RouterID) int {
	r, ok := t.shape(dst)
	if !ok {
		return -1
	}
	return int(r.up + r.across + r.down)
}

// PathTo returns the links from the source to dst in traversal order
// (first element is the link leaving the source).
func (t *RouteTree) PathTo(dst RouterID) ([]LinkID, error) {
	return t.AppendPathTo(make([]LinkID, 0, max(t.HopCount(dst), 0)), dst)
}

// AppendPathTo appends the source-to-dst link path to out (which may be
// a reused or shared backing buffer) and returns the extended slice —
// the allocation-free variant of PathTo.
func (t *RouteTree) AppendPathTo(out []LinkID, dst RouterID) ([]LinkID, error) {
	r, ok := t.shape(dst)
	if !ok {
		return nil, fmt.Errorf("topology: router %d unreachable from %d", dst, t.Source)
	}
	hangs := t.ix.hang
	for at, k := t.Source, int32(0); k < r.up; k++ {
		h := hangs[at]
		out = append(out, h.link)
		at = RouterID(h.up)
	}
	// The core chain and the chain down to dst are walked from dst's
	// end, so they are written back to front.
	n := len(out) + int(r.across+r.down)
	out = slices.Grow(out, n-len(out))[:n]
	w := n
	for at, k := dst, int32(0); k < r.down; k++ {
		h := hangs[at]
		w--
		out[w] = h.link
		at = RouterID(h.up)
	}
	for c, k := r.to, int32(0); k < r.across; k++ {
		w--
		out[w] = t.label[c].link
		c = t.label[c].parent
	}
	return out, nil
}
