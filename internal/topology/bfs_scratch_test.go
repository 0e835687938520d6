package topology

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// benchScaleConfig is the sizing rule the benchmark and the scale
// figure use, at about n overlay nodes: a fixed transit core whose stub
// count grows so that about 2n end hosts exist.
func benchScaleConfig(n int) Config {
	const hostsPerSPT = 4 * 10 * 6
	return Config{
		TransitDomains:          4,
		RoutersPerTransitDomain: 10,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   max((2*n+hostsPerSPT-1)/hostsPerSPT, 1),
		MeanRoutersPerStub:      6,
		StubChordFraction:       0.2,
		StubMultihomeFraction:   0.1,
		HostsPerStubRouter:      1.0,
	}
}

// TestBFSIntoMatchesBFS pins BFS and the scratch-reusing BFSInto to the
// whole-graph oracle: every destination's reachability, hop count and
// path must agree, with the scratch recycled across sources. It runs
// on the generated configurations (20 sources each) and on small random
// graphs of every shape — forests with an empty 2-core, rings with
// trees hanging off them, disconnected graphs, isolated routers, dense
// cores and nested blocks — from every source.
func TestBFSIntoMatchesBFS(t *testing.T) {
	t.Parallel()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"test", TestConfig()},
		{"treelike", TreelikeConfig()},
		{"default", DefaultConfig()},
		{"bench-n10k", benchScaleConfig(10_000)},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, err := Generate(tc.cfg, testRand())
			if err != nil {
				t.Fatal(err)
			}
			requireSources(t, g, &BFSScratch{}, g.NumRouters()/20+1)
		})
	}
	for shape := graphShape(0); shape < numShapes; shape++ {
		t.Run("random-"+shape.String(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewPCG(uint64(shape), 17))
			var scratch BFSScratch
			for k := 0; k < 60; k++ {
				requireSources(t, randomGraph(t, r, shape), &scratch, 1)
			}
		})
	}
}

// TestBFSIntoRejectsBadSource mirrors BFS's input validation.
func TestBFSIntoRejectsBadSource(t *testing.T) {
	t.Parallel()
	g := mustGraph(t, 3)
	var scratch BFSScratch
	if _, err := g.BFSInto(&scratch, 99); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestBFSUntilMatchesBFSInto pins the early-stopping search against the
// full one and the oracle: whatever it labelled before the stop — every
// target, and every router on the way to one — has the full search's
// distance and path, every target the graph connects is labelled, and
// what it did not get to reads as unreachable. Target sets include the
// source, duplicates and (on a graph with an isolated router added) a
// target no search can reach. The generated configurations must stop
// early at least once; the small random graphs of every shape add
// forests, rings, disconnected graphs, isolated routers and nested
// blocks.
func TestBFSUntilMatchesBFSInto(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		cfg     Config
		targets int
	}{
		{"test", TestConfig(), 1},
		{"test-many", TestConfig(), 12},
		{"treelike", TreelikeConfig(), 5},
		{"default", DefaultConfig(), 40},
		{"bench-n10k", benchScaleConfig(10_000), 48},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := testRand()
			g, err := Generate(tc.cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumRouters()
			// One router nothing links to: unreachable from everywhere.
			island := g.AddRouter()
			var full, bounded BFSScratch
			stoppedEarly := false
			for round := 0; round < 25; round++ {
				src := RouterID(r.IntN(n))
				targets := []RouterID{src}
				for len(targets) < tc.targets+1 {
					targets = append(targets, RouterID(r.IntN(n)))
				}
				targets = append(targets, targets[len(targets)-1])
				if round%5 == 4 {
					targets = append(targets, island)
				}
				labelled := requireUntilMatches(t, g, &full, &bounded, src, targets)
				if labelled < n && round%5 != 4 {
					stoppedEarly = true
				}
			}
			if !stoppedEarly {
				t.Error("no search stopped before labelling the whole graph; the test exercised nothing")
			}
		})
	}
	for shape := graphShape(0); shape < numShapes; shape++ {
		t.Run("random-"+shape.String(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewPCG(uint64(shape), 23))
			var full, bounded BFSScratch
			for k := 0; k < 60; k++ {
				g := randomGraph(t, r, shape)
				n := g.NumRouters()
				for round := 0; round < 10; round++ {
					targets := make([]RouterID, 1+r.IntN(3))
					for i := range targets {
						targets[i] = RouterID(r.IntN(n))
					}
					requireUntilMatches(t, g, &full, &bounded, RouterID(r.IntN(n)), targets)
				}
			}
		})
	}
	g := mustGraph(t, 3)
	if _, err := g.BFSUntil(&BFSScratch{}, 0, []RouterID{7}); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// requireUntilMatches runs BFSUntil from src toward targets and checks
// it against BFSInto and the oracle. It returns how many routers the
// early-stopped search reads as reachable.
func requireUntilMatches(t *testing.T, g *Graph, full, bounded *BFSScratch, src RouterID, targets []RouterID) int {
	t.Helper()
	o := oracleBFS(g, src)
	want, err := g.BFSInto(full, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.BFSUntil(bounded, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range targets {
		if got.Reachable(dst) != want.Reachable(dst) {
			t.Fatalf("src %d: target %d reachable=%v, full search says %v", src, dst, got.Reachable(dst), want.Reachable(dst))
		}
	}
	labelled := 0
	for dst := RouterID(0); int(dst) < g.NumRouters(); dst++ {
		requireMatchesOracle(t, o, got, dst, true)
		if !got.Reachable(dst) {
			continue
		}
		labelled++
		gp, _ := got.PathTo(dst)
		wp, _ := want.PathTo(dst)
		if !slices.Equal(gp, wp) {
			t.Fatalf("src %d dst %d: path %v, full search %v", src, dst, gp, wp)
		}
	}
	return labelled
}

// TestRouteIndexConcurrentFirstSearch starts several searches of a
// fresh graph at once, so they race to build its route index; under
// -race any unguarded access fails. Every tree must still match the
// oracle. Adding a link afterwards drops the index, and the next search
// sees the new link.
func TestRouteIndexConcurrentFirstSearch(t *testing.T) {
	t.Parallel()
	g, err := Generate(TestConfig(), testRand())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	hosts := g.EndHosts()
	trees := make([]*RouteTree, workers)
	var wg sync.WaitGroup
	for w := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s BFSScratch
			if w%2 == 0 {
				trees[w], _ = g.BFSInto(&s, hosts[w])
			} else {
				trees[w], _ = g.BFSUntil(&s, hosts[w], hosts[w+1:w+2])
			}
		}()
	}
	wg.Wait()
	for w, tree := range trees {
		if tree == nil {
			t.Fatalf("worker %d: search failed", w)
		}
		o := oracleBFS(g, hosts[w])
		for dst := RouterID(0); int(dst) < g.NumRouters(); dst++ {
			requireMatchesOracle(t, o, tree, dst, w%2 == 1)
		}
	}

	a, b := hosts[0], hosts[len(hosts)-1]
	if _, err := g.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
	tree, err := g.BFS(a)
	if err != nil {
		t.Fatal(err)
	}
	if tree.HopCount(b) != 1 {
		t.Fatalf("after AddLink: hops %d-%d = %d, want 1", a, b, tree.HopCount(b))
	}
	requireSources(t, g, &BFSScratch{}, g.NumRouters()/5)
}

// TestBFSUntilCrossesPathBlocksOnly guards the two costs BFSUntil
// saves. At the benchmark's N≈10k topology (a core of 7,215 routers,
// its largest block 353), 50 searches from random hosts toward 48 hosts
// each — a first tree build's search — must each label fewer than
// 1,000 core routers: measured, they label 455 on average and 480 at
// most, where a search of the whole core labels most of it. Every
// target must still read as BFSInto has it. Then one scratch alternates
// BFSInto, BFSUntil, a second graph with a smaller core and a stamp
// generation that wraps, and every tree must equal a fresh scratch's,
// so no label or stamp of an earlier search leaks into a later one.
func TestBFSUntilCrossesPathBlocksOnly(t *testing.T) {
	t.Parallel()
	r := testRand()
	big, err := Generate(benchScaleConfig(10_000), r)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Generate(TestConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	hosts := big.EndHosts()
	targets := make([]RouterID, 48)
	var full, bounded BFSScratch
	for round := 0; round < 50; round++ {
		src := hosts[r.IntN(len(hosts))]
		for i := range targets {
			targets[i] = hosts[r.IntN(len(hosts))]
		}
		want, err := big.BFSInto(&full, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := big.BFSUntil(&bounded, src, targets)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(bounded.queue); n >= 1000 {
			t.Fatalf("search from %d labelled %d core routers, want < 1,000", src, n)
		}
		for _, dst := range targets {
			gp, gerr := got.PathTo(dst)
			wp, werr := want.PathTo(dst)
			if (gerr == nil) != (werr == nil) || !slices.Equal(gp, wp) {
				t.Fatalf("src %d dst %d: path %v (%v), full search %v (%v)", src, dst, gp, gerr, wp, werr)
			}
		}
	}

	var reused BFSScratch
	for round := 0; round < 12; round++ {
		g := big
		if round%3 == 2 {
			g = small
		}
		if round == 7 {
			reused.gen = math.MaxUint32
		}
		hs := g.EndHosts()
		src := hs[r.IntN(len(hs))]
		targets := []RouterID{hs[r.IntN(len(hs))], hs[r.IntN(len(hs))]}
		var fresh BFSScratch
		var got, want *RouteTree
		if round%2 == 0 {
			got, err = g.BFSInto(&reused, src)
			want, _ = g.BFSInto(&fresh, src)
		} else {
			got, err = g.BFSUntil(&reused, src, targets)
			want, _ = g.BFSUntil(&fresh, src, targets)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != want.Source || got.anchor != want.anchor || got.depth != want.depth || len(got.label) != len(want.label) {
			t.Fatalf("round %d: a reused scratch's tree differs from a fresh one's", round)
		}
		// An unlabelled entry's parent and link are never read.
		for c, l := range want.label {
			if gl := got.label[c]; gl.dist != l.dist || l.dist >= 0 && gl != l {
				t.Fatalf("round %d: core index %d labelled %+v, a fresh scratch %+v", round, c, gl, l)
			}
		}
	}
}

// BenchmarkBFSScale times the searches a tomography tree pays for, on
// the benchmark's topology at N≈10k: a full BFSInto from an end host, a
// BFSUntil from one end host to another, and a BFSUntil toward 48 hosts
// — the search a first tree build runs. Each reports the core routers
// it labelled per search.
func BenchmarkBFSScale(b *testing.B) {
	g, err := Generate(benchScaleConfig(10_000), testRand())
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.EndHosts()
	var s BFSScratch
	if _, err := g.BFSInto(&s, hosts[0]); err != nil {
		b.Fatal(err)
	}
	// report adds the per-search metrics; labelled sums len(s.queue).
	report := func(b *testing.B, labelled int) {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/search")
		b.ReportMetric(float64(labelled)/float64(b.N), "labelled/search")
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		labelled := 0
		for i := 0; i < b.N; i++ {
			if _, err := g.BFSInto(&s, hosts[i%len(hosts)]); err != nil {
				b.Fatal(err)
			}
			labelled += len(s.queue)
		}
		report(b, labelled)
	})
	b.Run("until-host", func(b *testing.B) {
		b.ReportAllocs()
		var target [1]RouterID
		labelled := 0
		for i := 0; i < b.N; i++ {
			target[0] = hosts[(i*7919+1)%len(hosts)]
			if _, err := g.BFSUntil(&s, hosts[i%len(hosts)], target[:]); err != nil {
				b.Fatal(err)
			}
			labelled += len(s.queue)
		}
		report(b, labelled)
	})
	b.Run("until-peers", func(b *testing.B) {
		b.ReportAllocs()
		var peers [48]RouterID
		labelled := 0
		for i := 0; i < b.N; i++ {
			for k := range peers {
				peers[k] = hosts[(i*7919+k*104729+1)%len(hosts)]
			}
			if _, err := g.BFSUntil(&s, hosts[i%len(hosts)], peers[:]); err != nil {
				b.Fatal(err)
			}
			labelled += len(s.queue)
		}
		report(b, labelled)
	})
}
