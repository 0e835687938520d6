package tomography

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// TestPatchTreeEqualsBuildTree pins the patched rebuild against the
// from-scratch one on a generated graph: for successive peer sets that
// drop, add and reorder peers — the routing-peer drift of a churning
// overlay — the patch of the previous tree must DeepEqual a fresh
// BuildTree, whether the previous tree is absent, current, or several
// peer sets behind. Peer sets include a peer at the root's own router
// and one on a router nothing connects to.
func TestPatchTreeEqualsBuildTree(t *testing.T) {
	t.Parallel()
	r := testRand()
	g, err := topology.Generate(topology.TestConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.EndHosts()
	unreachable := g.AddRouter() // a router nothing connects to

	root, rootRouter := id.Random(r), hosts[0]
	pool := make([]Leaf, 60)
	for i := range pool {
		pool[i] = Leaf{Node: id.Random(r), Router: hosts[1+r.IntN(len(hosts)-1)]}
	}
	pool[0].Router = rootRouter
	pool[1].Router = unreachable

	var scratch PatchScratch
	var prev, lagging *Tree
	peers := append([]Leaf(nil), pool[:20]...)
	for step := 0; step < 40; step++ {
		want, err := BuildTree(g, root, rootRouter, peers)
		if err != nil {
			t.Fatal(err)
		}
		for name, old := range map[string]*Tree{"nil": nil, "previous": prev, "lagging": lagging} {
			got, err := PatchTree(g, &scratch, old, root, rootRouter, peers)
			if err != nil {
				t.Fatalf("step %d, old=%s: %v", step, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d, old=%s: patched tree differs from a fresh build (%d vs %d leaves, %d vs %d links)",
					step, name, len(got.Leaves), len(want.Leaves), len(got.Links()), len(want.Links()))
			}
			if old != nil && len(got.Leaves) > 0 && len(old.Leaves) > 0 &&
				len(got.Leaves[0].Path) > 0 && len(old.Leaves[0].Path) > 0 &&
				&got.Leaves[0].Path[0] == &old.Leaves[0].Path[0] {
				t.Fatalf("step %d, old=%s: patched tree shares path storage with the old one", step, name)
			}
		}
		if _, ok := want.PathTo(pool[1].Node); ok {
			t.Fatal("peer on the isolated router made it into the tree")
		}
		if step%5 == 0 {
			lagging = prev
		}
		prev = want
		// Drift: drop one peer, add one not present, and now and then
		// swap two, as a secure-table refill does to the row-major order.
		drop := r.IntN(len(peers))
		peers = append(peers[:drop], peers[drop+1:]...)
		for {
			cand := pool[r.IntN(len(pool))]
			if !slices.ContainsFunc(peers, func(p Leaf) bool { return p.Node == cand.Node }) {
				peers = append(peers, Leaf{})
				at := r.IntN(len(peers))
				copy(peers[at+1:], peers[at:])
				peers[at] = cand
				break
			}
		}
		if step%3 == 0 {
			a, b := r.IntN(len(peers)), r.IntN(len(peers))
			peers[a], peers[b] = peers[b], peers[a]
		}
	}

	if _, err := PatchTree(g, &scratch, prev, root, hosts[1], peers); err == nil {
		t.Error("patching a tree rooted elsewhere accepted")
	}
	if _, err := PatchTree(nil, &scratch, nil, root, rootRouter, peers); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestArchiveProberHandles covers what a record keeps of its prober:
// the 12-byte record carries the handle its caller recorded under, a
// window reads it back, and a copy keeps it after Prune has dropped the
// prober's records.
func TestArchiveProberHandles(t *testing.T) {
	t.Parallel()
	if got := unsafe.Sizeof(ProbeRecord{}); got != recordBytes {
		t.Errorf("ProbeRecord is %d bytes, want %d", got, recordBytes)
	}
	a := NewArchive(4)
	const early, late = ProberHandle(7), ProberHandle(maxHandle)
	record := func(prober ProberHandle, at netsim.Time) {
		t.Helper()
		if err := a.Record(prober, at, []LinkObservation{{Link: 3, Up: true}}); err != nil {
			t.Fatal(err)
		}
	}
	record(early, 100)
	record(late, 200)
	record(late, 300)

	recs := a.Window(3, 0, 1000)
	if len(recs) != 3 || recs[0].Prober() != early || recs[1].Prober() != late || recs[2].Prober() != late {
		t.Fatalf("window = %+v", recs)
	}

	// Prune away every record of early: a copy of one of its records is
	// still attributable, and a fresh record carries the same handle.
	kept := recs[0]
	a.Prune(150)
	if a.Size() != 2 {
		t.Fatalf("after prune Size = %d, want 2", a.Size())
	}
	if kept.Prober() != early {
		t.Error("a copied record lost its handle to Prune")
	}
	record(early, 400)
	if recs := a.Window(3, 400, 400); len(recs) != 1 || recs[0].Prober() != early {
		t.Errorf("re-recording prober got %+v, want handle %d", recs, early)
	}
}

// TestProbeRecordPacking round-trips the packed record's three fields
// at their extremes: times of either sign and beyond 32 bits, the
// largest handle an archive issues, and both statuses.
func TestProbeRecordPacking(t *testing.T) {
	t.Parallel()
	for _, at := range []netsim.Time{0, 1, -1, 1 << 32, 1<<32 - 1, math.MaxInt64, math.MinInt64, -123456789012345} {
		for _, h := range []ProberHandle{0, 1, 0x5555_5555, maxHandle} {
			for _, up := range []bool{false, true} {
				r := NewProbeRecord(at, h, up)
				if r.At() != at || r.Prober() != h || r.Up() != up {
					t.Fatalf("NewProbeRecord(%d, %d, %v) reads back %d, %d, %v", at, h, up, r.At(), r.Prober(), r.Up())
				}
				f := r.WithUp(!up)
				if f.At() != at || f.Prober() != h || f.Up() == up {
					t.Fatalf("WithUp(%v) of (%d, %d) reads back %d, %d, %v", !up, at, h, f.At(), f.Prober(), f.Up())
				}
			}
		}
	}
}
