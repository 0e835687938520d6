package topology

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// oracleTree is a breadth-first search of the whole graph: FIFO, with
// neighbours discovered in adjacency order. It is the search the route
// index replaced, kept as the reference every RouteTree must match.
type oracleTree struct {
	src        RouterID
	parent     []RouterID
	parentLink []LinkID
	dist       []int32
}

func oracleBFS(g *Graph, src RouterID) *oracleTree {
	n := g.NumRouters()
	o := &oracleTree{
		src:        src,
		parent:     make([]RouterID, n),
		parentLink: make([]LinkID, n),
		dist:       make([]int32, n),
	}
	for i := range o.dist {
		o.dist[i] = -1
	}
	o.dist[src] = 0
	queue := []RouterID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, nb := range g.adj[u] {
			if o.dist[nb.Router] >= 0 {
				continue
			}
			o.dist[nb.Router] = o.dist[u] + 1
			o.parent[nb.Router] = u
			o.parentLink[nb.Router] = nb.Link
			queue = append(queue, nb.Router)
		}
	}
	return o
}

// path returns the oracle's source-to-dst links, or false when dst is
// unreachable.
func (o *oracleTree) path(dst RouterID) ([]LinkID, bool) {
	if o.dist[dst] < 0 {
		return nil, false
	}
	out := make([]LinkID, o.dist[dst])
	for at, w := dst, len(out); at != o.src; at = o.parent[at] {
		w--
		out[w] = o.parentLink[at]
	}
	return out, true
}

// requireMatchesOracle checks tree against the oracle at dst:
// reachability, hop count and path. When labelledOnly is set, a dst
// the tree reads as unreachable is only checked to have no path (an
// early-stopped search's routers it did not get to).
func requireMatchesOracle(t testing.TB, o *oracleTree, tree *RouteTree, dst RouterID, labelledOnly bool) {
	t.Helper()
	want, reachable := o.path(dst)
	if !tree.Reachable(dst) {
		if _, err := tree.PathTo(dst); err == nil {
			t.Fatalf("src %d: unreachable router %d has a path", o.src, dst)
		}
		if tree.HopCount(dst) != -1 {
			t.Fatalf("src %d: unreachable router %d has hop count %d", o.src, dst, tree.HopCount(dst))
		}
		if reachable && !labelledOnly {
			t.Fatalf("src %d: router %d unreachable, oracle reaches it", o.src, dst)
		}
		return
	}
	if !reachable {
		t.Fatalf("src %d: router %d reachable, oracle says not", o.src, dst)
	}
	if h := tree.HopCount(dst); h != len(want) {
		t.Fatalf("src %d dst %d: hops %d, oracle %d", o.src, dst, h, len(want))
	}
	got, err := tree.PathTo(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("src %d dst %d: path %v, oracle %v", o.src, dst, got, want)
	}
	// AppendPathTo extends a non-empty buffer in place.
	prefix := []LinkID{-7}
	ext, err := tree.AppendPathTo(prefix, dst)
	if err != nil || ext[0] != -7 || !slices.Equal(ext[1:], want) {
		t.Fatalf("src %d dst %d: AppendPathTo = %v, %v", o.src, dst, ext, err)
	}
}

// requireSources checks BFS and BFSInto from every step-th source
// against the oracle at every destination, recycling s across sources.
func requireSources(t testing.TB, g *Graph, s *BFSScratch, step int) {
	t.Helper()
	for src := RouterID(0); int(src) < g.NumRouters(); src += RouterID(step) {
		o := oracleBFS(g, src)
		owned, err := g.BFS(src)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := g.BFSInto(s, src)
		if err != nil {
			t.Fatal(err)
		}
		for dst := RouterID(0); int(dst) < g.NumRouters(); dst++ {
			requireMatchesOracle(t, o, owned, dst, false)
			requireMatchesOracle(t, o, reused, dst, false)
		}
	}
}

// graphShape names a family of small random graphs.
type graphShape int

const (
	shapeForest       graphShape = iota // trees only: the 2-core is empty
	shapeCycle                          // one ring with trees hanging off it
	shapeDisconnected                   // two cyclic components and a tree
	shapeIsolated                       // sparse edges, many isolated routers
	shapeDense                          // many chords: most routers in the core
	shapeBlocks                         // rings on shared cut vertices and bridges, nested
	numShapes
)

func (s graphShape) String() string {
	return [...]string{"forest", "cycle", "disconnected", "isolated", "dense", "blocks"}[s]
}

// randomGraph builds a graph of up to 40 routers of the given shape
// (at least 12 for shapeBlocks). Router numbering is shuffled so
// anchors and core indices do not follow construction order.
func randomGraph(t testing.TB, r *rand.Rand, shape graphShape) *Graph {
	t.Helper()
	n := 1 + r.IntN(40)
	if shape == shapeBlocks {
		n = 12 + r.IntN(29)
	}
	perm := r.Perm(n)
	g := mustGraph(t, n)
	link := func(a, b int) {
		if a != b {
			if _, err := g.AddLink(RouterID(perm[a]), RouterID(perm[b])); err != nil {
				t.Fatal(err)
			}
		}
	}
	// attachTrees hangs routers [from, n) each below an earlier one.
	attachTrees := func(from int) {
		for v := max(from, 1); v < n; v++ {
			if r.IntN(6) > 0 {
				link(v, r.IntN(v))
			}
		}
	}
	switch shape {
	case shapeForest:
		attachTrees(1)
	case shapeCycle:
		ring := min(n, 3+r.IntN(8))
		for v := 1; v < ring; v++ {
			link(v, v-1)
		}
		link(ring-1, 0)
		attachTrees(ring)
	case shapeDisconnected:
		half := n / 2
		for v := 1; v < half; v++ {
			link(v, r.IntN(v))
			link(v, r.IntN(v))
		}
		for v := half + 1; v < n; v++ {
			link(v, half+r.IntN(v-half))
			if r.IntN(2) == 0 {
				link(v, half+r.IntN(v-half))
			}
		}
	case shapeIsolated:
		for k := 0; k < n/3; k++ {
			link(r.IntN(n), r.IntN(n))
		}
	case shapeDense:
		for k := 0; k < 2*n; k++ {
			link(r.IntN(n), r.IntN(n))
		}
	case shapeBlocks:
		// used routers are placed; ring closes a ring of k routers
		// through router at and k-1 new ones, and returns the first
		// new one.
		used := 1
		ring := func(at, k int) int {
			first, prev := used, at
			for ; k > 1; k-- {
				link(prev, used)
				prev = used
				used++
			}
			link(prev, at)
			return first
		}
		// A chain of four blocks at least: a ring, a second ring on one
		// of its routers, a bridge from a new router of that ring, and a
		// triangle at the bridge's far end. The bridge is added twice;
		// AddLink merges the parallel link, so it stays a bridge.
		k0 := 3 + r.IntN(3)
		ring(0, k0)
		k1 := 3 + r.IntN(3)
		from := ring(r.IntN(k0), k1) + r.IntN(k1-1)
		bridge := used
		used++
		link(from, bridge)
		ring(bridge, 3)
		link(bridge, from)
		// Then rings and bridges anywhere, until fewer than three
		// routers are left; those hang as trees.
		for used+3 <= n {
			at := r.IntN(used)
			if r.IntN(3) == 0 {
				link(at, used)
				at = used
				used++
			}
			ring(at, 3+r.IntN(min(n-used, 4)-1))
		}
		attachTrees(used)
	}
	return g
}

// graphFromBytes builds a graph of at most 40 routers from fuzz input:
// the first byte sizes it, and each later pair of bytes is one link.
func graphFromBytes(t testing.TB, data []byte) *Graph {
	t.Helper()
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%40
		data = data[1:]
	}
	g := mustGraph(t, n)
	for ; len(data) >= 2; data = data[2:] {
		a, b := RouterID(int(data[0])%n), RouterID(int(data[1])%n)
		if a != b {
			if _, err := g.AddLink(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// FuzzRouteTree checks every source-destination pair of a fuzzed graph
// of at most 40 routers against the whole-graph oracle, for the full
// search and for searches stopped at one and at several targets.
func FuzzRouteTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2})                      // a line
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})          // a square
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 0}) // triangle with a tail
	f.Add([]byte{9, 0, 1, 2, 3, 4, 5, 5, 6, 6, 4, 7, 4})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2})                         // two triangles sharing a router
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 3, 4, 4, 5, 5, 6, 6, 7, 7, 4})       // two squares and a bridge
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 2, 4, 4, 5, 5, 2, 5, 6, 6, 7, 7, 5}) // triangle below triangle below square
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(t, data)
		var s BFSScratch
		requireSources(t, g, &s, 1)
		n := RouterID(g.NumRouters())
		for src := RouterID(0); src < n; src++ {
			o := oracleBFS(g, src)
			for dst := RouterID(0); dst < n; dst++ {
				tree, err := g.BFSUntil(&s, src, []RouterID{dst})
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesOracle(t, o, tree, dst, false)
			}
			// A search stopped at several targets: everything it
			// labelled on the way matches too.
			targets := []RouterID{src / 2, (src + 3) % n, n - 1}
			tree, err := g.BFSUntil(&s, src, targets)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range targets {
				requireMatchesOracle(t, o, tree, r, false)
			}
			for r := RouterID(0); r < n; r++ {
				requireMatchesOracle(t, o, tree, r, true)
			}
		}
	})
}
