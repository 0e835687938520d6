// Package topology models the router-level IP network underneath the
// overlay: an undirected graph of routers and links, shortest-path
// routing, and a transit-stub synthetic generator that stands in for the
// SCAN Internet map used by the paper's evaluation (§4.2). End hosts are
// degree-1 routers, exactly as in the paper's methodology (following
// Chen et al.).
package topology

import (
	"fmt"
	"sync"
	"sync/atomic"
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

	// index is the route index searches read (routeIndex), built by
	// the first search under indexMu and dropped by AddRouter and
	// AddLink.
	index   atomic.Pointer[routeIndex]
	indexMu sync.Mutex
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
	g.index.Store(nil)
	lid := LinkID(len(g.links))
	g.links = append(g.links, Link{A: a, B: b})
	g.adj[a] = append(g.adj[a], Neighbor{Router: b, Link: lid})
	g.adj[b] = append(g.adj[b], Neighbor{Router: a, Link: lid})
	return lid, nil
}

func (g *Graph) validRouter(r RouterID) bool {
	return r >= 0 && int(r) < len(g.adj)
}

// Degree returns the number of links at router r.
func (g *Graph) Degree(r RouterID) int {
	if !g.validRouter(r) {
		return 0
	}
	return len(g.adj[r])
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
