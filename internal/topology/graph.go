// Package topology models the router-level IP network underneath the
// overlay: an undirected graph of routers and links, shortest-path
// routing, and a transit-stub synthetic generator that stands in for the
// SCAN Internet map used by the paper's evaluation (§4.2). End hosts are
// degree-1 routers, exactly as in the paper's methodology (following
// Chen et al.).
package topology

import (
	"fmt"
)

// RouterID names a router; valid IDs are dense in [0, NumRouters).
type RouterID int32

// LinkID names an undirected link; valid IDs are dense in [0, NumLinks).
type LinkID int32

// Link is an undirected edge between two routers.
type Link struct {
	A, B RouterID
}

// Neighbor pairs an adjacent router with the link that reaches it.
type Neighbor struct {
	Router RouterID
	Link   LinkID
}

// Graph is an undirected router graph. Construction is not synchronized;
// a fully built Graph is immutable and safe for concurrent readers.
type Graph struct {
	links []Link
	adj   [][]Neighbor
}

// NewGraph creates a graph with n isolated routers.
func NewGraph(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: graph needs at least one router, got %d", n)
	}
	return &Graph{adj: make([][]Neighbor, n)}, nil
}

// NumRouters returns the number of routers.
func (g *Graph) NumRouters() int { return len(g.adj) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// AddLink connects a and b, returning the new link's ID. Self-loops and
// out-of-range routers are rejected; parallel edges are merged (the
// existing link is returned).
func (g *Graph) AddLink(a, b RouterID) (LinkID, error) {
	if a == b {
		return 0, fmt.Errorf("topology: self-loop at router %d", a)
	}
	if !g.validRouter(a) || !g.validRouter(b) {
		return 0, fmt.Errorf("topology: link %d-%d references unknown router", a, b)
	}
	// Check the shorter adjacency list for an existing edge.
	x, y := a, b
	if len(g.adj[y]) < len(g.adj[x]) {
		x, y = y, x
	}
	for _, nb := range g.adj[x] {
		if nb.Router == y {
			return nb.Link, nil
		}
	}
	lid := LinkID(len(g.links))
	g.links = append(g.links, Link{A: a, B: b})
	g.adj[a] = append(g.adj[a], Neighbor{Router: b, Link: lid})
	g.adj[b] = append(g.adj[b], Neighbor{Router: a, Link: lid})
	return lid, nil
}

func (g *Graph) validRouter(r RouterID) bool {
	return r >= 0 && int(r) < len(g.adj)
}

// LinkEndpoints returns the two routers joined by l.
func (g *Graph) LinkEndpoints(l LinkID) (RouterID, RouterID, error) {
	if l < 0 || int(l) >= len(g.links) {
		return 0, 0, fmt.Errorf("topology: unknown link %d", l)
	}
	lk := g.links[l]
	return lk.A, lk.B, nil
}

// Degree returns the number of links at router r.
func (g *Graph) Degree(r RouterID) int {
	if !g.validRouter(r) {
		return 0
	}
	return len(g.adj[r])
}

// Neighbors returns r's adjacency list. The returned slice is shared with
// the graph and must not be modified.
func (g *Graph) Neighbors(r RouterID) []Neighbor {
	if !g.validRouter(r) {
		return nil
	}
	return g.adj[r]
}

// EndHosts returns all degree-1 routers, the candidates for overlay
// membership in the paper's methodology.
func (g *Graph) EndHosts() []RouterID {
	var hosts []RouterID
	for r := range g.adj {
		if len(g.adj[r]) == 1 {
			hosts = append(hosts, RouterID(r))
		}
	}
	return hosts
}

// RouteTree is a BFS shortest-path tree rooted at Source. It answers
// "which IP links does a packet from Source to X traverse" — the link
// maps that the paper obtains from RocketFuel-style measurement (§3.2).
type RouteTree struct {
	Source     RouterID
	parent     []RouterID
	parentLink []LinkID
	dist       []int32
}

// BFS computes the shortest-path tree from src. Ties are broken by
// adjacency order, which is deterministic for a deterministically built
// graph. The returned tree owns its storage; callers that compute many
// trees and keep none of them alive should reuse a BFSScratch instead.
func (g *Graph) BFS(src RouterID) (*RouteTree, error) {
	return g.BFSInto(&BFSScratch{}, src)
}

// BFSScratch holds the reusable state of repeated BFS runs: the
// frontier queue and the visited/parent arrays of one RouteTree. A
// system build runs one BFS per overlay node against the same immutable
// graph; reusing the scratch turns the per-node cost from four O(n)
// allocations into an O(n) reset of already-hot memory. The zero value
// is ready to use. A scratch belongs to one goroutine; parallel callers
// keep one per worker.
type BFSScratch struct {
	tree  RouteTree
	queue []RouterID
}

// BFSInto computes the shortest-path tree from src into s's reusable
// RouteTree and returns it. The result is valid only until the next
// BFSInto call on the same scratch; callers that retain the tree (e.g.
// a per-router cache) must use BFS, which hands out owned storage.
func (g *Graph) BFSInto(s *BFSScratch, src RouterID) (*RouteTree, error) {
	t, queue, err := g.startBFS(s, src)
	if err != nil {
		return nil, err
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, nb := range g.adj[u] {
			if t.dist[nb.Router] >= 0 {
				continue
			}
			t.dist[nb.Router] = t.dist[u] + 1
			t.parent[nb.Router] = u
			t.parentLink[nb.Router] = nb.Link
			queue = append(queue, nb.Router)
		}
	}
	s.queue = queue
	return t, nil
}

// startBFS readies s for a search from src: it sizes and clears the
// scratch RouteTree, labels the source, and returns the tree and the
// frontier queue holding src alone.
func (g *Graph) startBFS(s *BFSScratch, src RouterID) (*RouteTree, []RouterID, error) {
	if !g.validRouter(src) {
		return nil, nil, fmt.Errorf("topology: BFS from unknown router %d", src)
	}
	n := len(g.adj)
	t := &s.tree
	t.Source = src
	if cap(t.dist) < n {
		t.parent = make([]RouterID, n)
		t.parentLink = make([]LinkID, n)
		t.dist = make([]int32, n)
	} else {
		t.parent = t.parent[:n]
		t.parentLink = t.parentLink[:n]
		t.dist = t.dist[:n]
	}
	for i := range t.dist {
		t.dist[i] = -1
	}
	t.dist[src] = 0
	t.parent[src] = src
	if cap(s.queue) == 0 {
		s.queue = make([]RouterID, 0, 256)
	}
	return t, append(s.queue[:0], src), nil
}

// unlabelledTarget marks, in RouteTree.dist, a router an early-stopping
// search still waits for. Like every negative distance it reads as
// unreachable.
const unlabelledTarget = -2

// BFSUntil is BFSInto stopped early: the search ends as soon as every
// router in targets is labelled (or the component is exhausted), so a
// caller that needs paths to a few routers does not pay for the whole
// graph. The traversal order is BFSInto's, which makes every label
// assigned before the stop — distance, parent, parent link — exactly the
// full search's: PathTo agrees with BFSInto for every labelled router,
// and the routers along such a path are all labelled. Routers the search
// did not get to read as unreachable whether or not the graph connects
// them, so only the targets' reachability means anything to the caller.
// The loop is BFSInto's plus the stop test, kept apart so the full
// search pays nothing for it.
func (g *Graph) BFSUntil(s *BFSScratch, src RouterID, targets []RouterID) (*RouteTree, error) {
	for _, r := range targets {
		if !g.validRouter(r) {
			return nil, fmt.Errorf("topology: BFS toward unknown router %d", r)
		}
	}
	t, queue, err := g.startBFS(s, src)
	if err != nil {
		return nil, err
	}
	// pending counts the distinct targets not yet labelled.
	pending := 0
	for _, r := range targets {
		if t.dist[r] == -1 {
			t.dist[r] = unlabelledTarget
			pending++
		}
	}
search:
	for head := 0; pending > 0 && head < len(queue); head++ {
		u := queue[head]
		for _, nb := range g.adj[u] {
			d := t.dist[nb.Router]
			if d >= 0 {
				continue
			}
			t.dist[nb.Router] = t.dist[u] + 1
			t.parent[nb.Router] = u
			t.parentLink[nb.Router] = nb.Link
			queue = append(queue, nb.Router)
			if d == unlabelledTarget {
				if pending--; pending == 0 {
					break search
				}
			}
		}
	}
	s.queue = queue
	return t, nil
}

// Reachable reports whether dst is connected to the tree's source.
func (t *RouteTree) Reachable(dst RouterID) bool {
	return int(dst) < len(t.dist) && dst >= 0 && t.dist[dst] >= 0
}

// HopCount returns the number of links between the source and dst, or -1
// if unreachable.
func (t *RouteTree) HopCount(dst RouterID) int {
	if !t.Reachable(dst) {
		return -1
	}
	return int(t.dist[dst])
}

// PathTo returns the links from the source to dst in traversal order
// (first element is the link leaving the source).
func (t *RouteTree) PathTo(dst RouterID) ([]LinkID, error) {
	if !t.Reachable(dst) {
		return nil, fmt.Errorf("topology: router %d unreachable from %d", dst, t.Source)
	}
	path, err := t.AppendPathTo(make([]LinkID, 0, t.dist[dst]), dst)
	if err != nil {
		return nil, err
	}
	return path, nil
}

// AppendPathTo appends the source-to-dst link path to out (which may be
// a reused or shared backing buffer) and returns the extended slice —
// the allocation-free variant of PathTo.
func (t *RouteTree) AppendPathTo(out []LinkID, dst RouterID) ([]LinkID, error) {
	if !t.Reachable(dst) {
		return nil, fmt.Errorf("topology: router %d unreachable from %d", dst, t.Source)
	}
	start := len(out)
	hops := int(t.dist[dst])
	for i := 0; i < hops; i++ {
		out = append(out, 0)
	}
	w := start + hops
	for at := dst; at != t.Source; at = t.parent[at] {
		w--
		out[w] = t.parentLink[at]
	}
	return out, nil
}

// RoutersTo returns the router sequence from source to dst inclusive.
func (t *RouteTree) RoutersTo(dst RouterID) ([]RouterID, error) {
	if !t.Reachable(dst) {
		return nil, fmt.Errorf("topology: router %d unreachable from %d", dst, t.Source)
	}
	out := make([]RouterID, t.dist[dst]+1)
	i := len(out) - 1
	for at := dst; ; at = t.parent[at] {
		out[i] = at
		if at == t.Source {
			break
		}
		i--
	}
	return out, nil
}
