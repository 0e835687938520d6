package topology

import (
	"fmt"
	"slices"
)

// routeIndex is what a search reads instead of the whole graph: the
// graph's 2-core, and the way into it from every other router.
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
type routeIndex struct {
	hang  []hang     // by router
	off   []int32    // core index c's links are edges[off[c]:off[c+1]]
	edges []coreEdge // the CSR adjacency
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

// coreEdge is one CSR entry: the neighbour's core index and the link
// to it.
type coreEdge struct {
	to   int32
	link LinkID
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
	return ix
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
// frontier queue and the core labels of one RouteTree. A system build
// runs one search per overlay node against the same immutable graph;
// reusing the scratch turns the per-node cost from an allocation into
// a reset of already-hot memory the size of the 2-core. The zero value
// is ready to use. A scratch belongs to one goroutine; parallel callers
// keep one per worker.
type BFSScratch struct {
	tree  RouteTree
	queue []int32
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
	queue := append(s.queue[:0], t.anchor)
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

// startBFS readies s for a search from src: it sizes and clears the
// scratch RouteTree's core labels and labels the source's anchor.
func (g *Graph) startBFS(s *BFSScratch, src RouterID) (*RouteTree, error) {
	if !g.validRouter(src) {
		return nil, fmt.Errorf("topology: BFS from unknown router %d", src)
	}
	ix := g.routes()
	t := &s.tree
	t.Source, t.ix = src, ix
	t.anchor, t.depth = ix.anchor(src)
	n := len(ix.off) - 1
	if cap(t.label) < n {
		t.label = make([]coreLabel, n)
	}
	t.label = t.label[:n]
	for i := range t.label {
		t.label[i].dist = -1
	}
	t.label[t.anchor] = coreLabel{parent: t.anchor}
	return t, nil
}

// unlabelledTarget marks, in a core label's dist, an anchor an
// early-stopping search still waits for. Like every negative distance
// it reads as unreachable.
const unlabelledTarget = -2

// BFSUntil is BFSInto stopped early: the search ends as soon as the
// anchor of every router in targets is labelled (or the core component
// is exhausted), so a caller that needs paths to a few routers does not
// pay for the whole core. The traversal order is BFSInto's, which makes
// every core label assigned before the stop exactly the full search's:
// PathTo agrees with BFSInto for every router whose anchor is labelled
// — the targets, the routers on the way to one, and everything hanging
// below those anchors. Routers whose anchor the search did not get to
// read as unreachable whether or not the graph connects them, so only
// the targets' reachability means anything to the caller. The loop is
// BFSInto's plus the stop test, kept apart so the full search pays
// nothing for it.
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
	// pending counts the distinct target anchors not yet labelled.
	pending := 0
	for _, r := range targets {
		if a, _ := t.ix.anchor(r); t.label[a].dist == -1 {
			t.label[a].dist = unlabelledTarget
			pending++
		}
	}
	off, edges := t.ix.off, t.ix.edges
	queue := append(s.queue[:0], t.anchor)
search:
	for head := 0; pending > 0 && head < len(queue); head++ {
		u := queue[head]
		d := t.label[u].dist + 1
		for _, e := range edges[off[u]:off[u+1]] {
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
