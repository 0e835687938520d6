package topology

import (
	"slices"
	"testing"
)

// TestBFSIntoMatchesBFS pins the scratch-reusing BFS against the
// allocating one: the same immutable graph, many sources, one shared
// scratch — every tree must agree on reachability, distance, and path
// for every destination, including runs where the scratch is recycled
// across sources.
func TestBFSIntoMatchesBFS(t *testing.T) {
	t.Parallel()
	g, err := Generate(TestConfig(), testRand())
	if err != nil {
		t.Fatal(err)
	}
	var scratch BFSScratch
	n := g.NumRouters()
	step := n/17 + 1
	for src := RouterID(0); int(src) < n; src += RouterID(step) {
		want, err := g.BFS(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.BFSInto(&scratch, src)
		if err != nil {
			t.Fatal(err)
		}
		for dst := RouterID(0); int(dst) < n; dst++ {
			if want.Reachable(dst) != got.Reachable(dst) {
				t.Fatalf("src %d dst %d: reachability differs", src, dst)
			}
			if !want.Reachable(dst) {
				continue
			}
			if want.HopCount(dst) != got.HopCount(dst) {
				t.Fatalf("src %d dst %d: hops %d vs %d", src, dst, want.HopCount(dst), got.HopCount(dst))
			}
			wp, err := want.PathTo(dst)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := got.PathTo(dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(wp) != len(gp) {
				t.Fatalf("src %d dst %d: path lengths %d vs %d", src, dst, len(wp), len(gp))
			}
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("src %d dst %d: paths diverge at hop %d", src, dst, i)
				}
			}
		}
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
// full one on three generated graphs: whatever it labelled before the
// stop — every target, and every router on the way to one — has the
// full search's distance and path, every target the graph connects is
// labelled, and what it did not get to reads as unreachable. Target
// sets include the source, duplicates and (on a graph with an isolated
// router added) a target no search can reach.
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
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := testRand()
			g, err := Generate(tc.cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumRouters()
			// One router nothing links to: unreachable from everywhere.
			g.adj = append(g.adj, nil)
			island := RouterID(n)
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
				want, err := g.BFSInto(&full, src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.BFSUntil(&bounded, src, targets)
				if err != nil {
					t.Fatal(err)
				}
				for _, dst := range targets {
					if got.Reachable(dst) != want.Reachable(dst) {
						t.Fatalf("src %d: target %d reachable=%v, full search says %v", src, dst, got.Reachable(dst), want.Reachable(dst))
					}
				}
				labelled := 0
				for dst := RouterID(0); int(dst) <= n; dst++ {
					if !got.Reachable(dst) {
						if _, err := got.PathTo(dst); err == nil {
							t.Fatalf("src %d: unlabelled router %d has a path", src, dst)
						}
						continue
					}
					labelled++
					if got.HopCount(dst) != want.HopCount(dst) {
						t.Fatalf("src %d dst %d: hops %d, full search %d", src, dst, got.HopCount(dst), want.HopCount(dst))
					}
					gp, err := got.PathTo(dst)
					if err != nil {
						t.Fatal(err)
					}
					wp, err := want.PathTo(dst)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gp, wp) {
						t.Fatalf("src %d dst %d: path %v, full search %v", src, dst, gp, wp)
					}
				}
				if labelled < n && round%5 != 4 {
					stoppedEarly = true
				}
			}
			if !stoppedEarly {
				t.Error("no search stopped before labelling the whole graph; the test exercised nothing")
			}
		})
	}
	g := mustGraph(t, 3)
	if _, err := g.BFSUntil(&BFSScratch{}, 0, []RouterID{7}); err == nil {
		t.Error("out-of-range target accepted")
	}
}
