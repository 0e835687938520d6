package topology

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(11, 13)) }

func mustGraph(t testing.TB, n int) *Graph {
	t.Helper()
	g, err := NewGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphRejectsEmpty(t *testing.T) {
	t.Parallel()
	if _, err := NewGraph(0); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestAddLinkBasics(t *testing.T) {
	t.Parallel()
	g := mustGraph(t, 3)
	l0, err := g.AddLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", g.NumLinks())
	}
	if lk := g.links[l0]; lk.A != 0 || lk.B != 1 {
		t.Fatalf("endpoints = %d,%d", lk.A, lk.B)
	}
	// Parallel edges merge.
	l1, err := g.AddLink(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l0 || g.NumLinks() != 1 {
		t.Error("parallel edge was not merged")
	}
	// Self-loops and bad routers rejected.
	if _, err := g.AddLink(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddLink(0, 5); err == nil {
		t.Error("unknown router accepted")
	}
}

func TestDegreeAndEndHosts(t *testing.T) {
	t.Parallel()
	// Star: center 0 with leaves 1..4.
	g := mustGraph(t, 5)
	for i := RouterID(1); i < 5; i++ {
		if _, err := g.AddLink(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(0) != 4 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.Degree(-1) != 0 || g.Degree(9) != 0 {
		t.Error("out-of-range degree should be 0")
	}
	hosts := g.EndHosts()
	if len(hosts) != 4 {
		t.Fatalf("EndHosts = %v", hosts)
	}
	for _, h := range hosts {
		if h == 0 {
			t.Error("center listed as end host")
		}
	}
}

func TestBFSPathsOnLine(t *testing.T) {
	t.Parallel()
	// Line: 0-1-2-3.
	g := mustGraph(t, 4)
	var links []LinkID
	for i := RouterID(0); i < 3; i++ {
		l, err := g.AddLink(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, l)
	}
	tree, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.HopCount(3) != 3 || tree.HopCount(0) != 0 {
		t.Errorf("hops = %d, %d", tree.HopCount(3), tree.HopCount(0))
	}
	path, err := tree.PathTo(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != links[0] || path[1] != links[1] || path[2] != links[2] {
		t.Errorf("path = %v, want %v", path, links)
	}
	if routers := walkPath(t, g, 0, path); !slices.Equal(routers, []RouterID{0, 1, 2, 3}) {
		t.Fatalf("routers = %v, want 0 1 2 3", routers)
	}
	// Path to self is empty.
	self, err := tree.PathTo(0)
	if err != nil || len(self) != 0 {
		t.Errorf("PathTo(self) = %v, %v", self, err)
	}
}

func TestBFSUnreachable(t *testing.T) {
	t.Parallel()
	g := mustGraph(t, 3)
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	tree, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Reachable(2) {
		t.Error("disconnected router reported reachable")
	}
	if _, err := tree.PathTo(2); err == nil {
		t.Error("PathTo(unreachable) should fail")
	}
	if tree.HopCount(2) != -1 {
		t.Error("HopCount(unreachable) should be -1")
	}
	if _, err := g.BFS(99); err == nil {
		t.Error("BFS from unknown router should fail")
	}
}

func TestBFSShortestOverCycle(t *testing.T) {
	t.Parallel()
	// Square 0-1-2-3-0: distance 0->2 must be 2 either way.
	g := mustGraph(t, 4)
	edges := [][2]RouterID{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for _, e := range edges {
		if _, err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.HopCount(2) != 2 {
		t.Errorf("HopCount(2) = %d, want 2", tree.HopCount(2))
	}
}

func TestGenerateValidation(t *testing.T) {
	t.Parallel()
	bad := TestConfig()
	bad.TransitDomains = 0
	if _, err := Generate(bad, testRand()); err == nil {
		t.Error("invalid config accepted")
	}
	bad = TestConfig()
	bad.StubMultihomeFraction = 1.5
	if _, err := Generate(bad, testRand()); err == nil {
		t.Error("multihome fraction >1 accepted")
	}
	bad = TestConfig()
	bad.HostsPerStubRouter = -1
	if _, err := Generate(bad, testRand()); err == nil {
		t.Error("negative hosts accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	cfg := TestConfig()
	g1, err := Generate(cfg, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumRouters() != g2.NumRouters() || g1.NumLinks() != g2.NumLinks() {
		t.Fatal("same seed gave different graphs")
	}
	for l := 0; l < g1.NumLinks(); l++ {
		if g1.links[l] != g2.links[l] {
			t.Fatalf("link %d differs: %v vs %v", l, g1.links[l], g2.links[l])
		}
	}
}

func TestGenerateConnected(t *testing.T) {
	t.Parallel()
	g, err := Generate(TestConfig(), testRand())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.NumRouters(); r++ {
		if !tree.Reachable(RouterID(r)) {
			t.Fatalf("router %d unreachable — generated graph disconnected", r)
		}
	}
}

func TestGenerateHasEndHosts(t *testing.T) {
	t.Parallel()
	g, err := Generate(TestConfig(), testRand())
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.EndHosts()
	if len(hosts) < 10 {
		t.Fatalf("only %d end hosts generated", len(hosts))
	}
	for _, h := range hosts {
		if g.Degree(h) != 1 {
			t.Fatalf("end host %d has degree %d", h, g.Degree(h))
		}
	}
}

func TestGenerateDefaultScaleShape(t *testing.T) {
	t.Parallel()
	g, err := Generate(DefaultConfig(), testRand())
	if err != nil {
		t.Fatal(err)
	}
	r, l := g.NumRouters(), g.NumLinks()
	if r < 5000 || r > 30000 {
		t.Errorf("default-scale routers = %d, want ~10k", r)
	}
	ratio := float64(l) / float64(r)
	if ratio < 1.1 || ratio > 2.2 {
		t.Errorf("link/router ratio = %v, want Internet-like (~1.6)", ratio)
	}
	hosts := len(g.EndHosts())
	if hosts < r/10 {
		t.Errorf("end hosts = %d of %d routers, too few", hosts, r)
	}
}

// Property: in any generated graph, every link's endpoints are valid and
// appear in each other's adjacency lists exactly once.
func TestPropAdjacencyConsistent(t *testing.T) {
	t.Parallel()
	f := func(seed uint16) bool {
		g, err := Generate(TestConfig(), rand.New(rand.NewPCG(uint64(seed), 3)))
		if err != nil {
			return false
		}
		for l := 0; l < g.NumLinks(); l++ {
			a, b := g.links[l].A, g.links[l].B
			if a == b {
				return false
			}
			var ab, ba int
			for _, nb := range g.adj[a] {
				if nb.Link == LinkID(l) {
					ab++
					if nb.Router != b {
						return false
					}
				}
			}
			for _, nb := range g.adj[b] {
				if nb.Link == LinkID(l) {
					ba++
					if nb.Router != a {
						return false
					}
				}
			}
			if ab != 1 || ba != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: every path has the hop count's length and is a walk of
// adjacent links from the source to its destination.
func TestPropBFSDistances(t *testing.T) {
	t.Parallel()
	g, err := Generate(TestConfig(), testRand())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < g.NumRouters(); r++ {
		path, err := tree.PathTo(RouterID(r))
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != tree.HopCount(RouterID(r)) {
			t.Fatalf("path length %d != hop count %d", len(path), tree.HopCount(RouterID(r)))
		}
		// Path links must be pairwise adjacent, start at the source and
		// end at r.
		if routers := walkPath(t, g, 0, path); routers[len(routers)-1] != RouterID(r) {
			t.Fatalf("path to %d ends at %d", r, routers[len(routers)-1])
		}
	}
}

// walkPath follows path's links from src and returns the routers it
// visits, src first. Each link must leave the router the previous one
// reached.
func walkPath(t *testing.T, g *Graph, src RouterID, path []LinkID) []RouterID {
	t.Helper()
	routers := []RouterID{src}
	at := src
	for _, l := range path {
		a, b := g.links[l].A, g.links[l].B
		switch {
		case a == at:
			at = b
		case b == at:
			at = a
		default:
			t.Fatalf("link %d (%d-%d) does not leave router %d", l, a, b, at)
		}
		routers = append(routers, at)
	}
	return routers
}

func BenchmarkGenerateDefault(b *testing.B) {
	r := testRand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(DefaultConfig(), r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSDefault(b *testing.B) {
	g, err := Generate(DefaultConfig(), testRand())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BFS(RouterID(i % g.NumRouters())); err != nil {
			b.Fatal(err)
		}
	}
}
