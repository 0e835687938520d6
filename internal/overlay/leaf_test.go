package overlay

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"concilium/internal/id"
)

// leafIDs returns node i's leaves as identifiers, sorted.
func leafIDs(c *Compact, i uint32) []id.ID {
	var out []id.ID
	for _, j := range c.AppendLeafIndices(i, nil) {
		out = append(out, c.ID(j))
	}
	sort.Slice(out, func(a, b int) bool { return id.Less(out[a], out[b]) })
	return out
}

func mustCompact(t *testing.T, members []id.ID, perSide int) *Compact {
	t.Helper()
	c, err := NewCompact(members, perSide)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRingNeighbors pins the leaf order on a four-member ring: the
// clockwise neighbours by distance, then the counterclockwise ones not
// already listed, capped at the N−1 other members.
func TestRingNeighbors(t *testing.T) {
	t.Parallel()
	members := []id.ID{
		id.MustParse("10000000000000000000000000000000"),
		id.MustParse("20000000000000000000000000000000"),
		id.MustParse("30000000000000000000000000000000"),
		id.MustParse("40000000000000000000000000000000"),
	}
	if got := mustCompact(t, members, 1).AppendLeafIndices(0, nil); !slices.Equal(got, []uint32{1, 3}) {
		t.Errorf("perSide 1 leaves of 10.. = %v, want [1 3]", got)
	}
	if got := mustCompact(t, members, 2).AppendLeafIndices(0, nil); !slices.Equal(got, []uint32{1, 2, 3}) {
		t.Errorf("perSide 2 leaves of 10.. = %v, want [1 2 3]", got)
	}
	if got := mustCompact(t, members, 10).AppendLeafIndices(2, nil); !slices.Equal(got, []uint32{3, 0, 1}) {
		t.Errorf("perSide 10 leaves of 30.. = %v, want [3 0 1]", got)
	}
}

// TestLeafSetInsertOrderIndependent: build order assigns slabs and
// nothing else — two builds over the same members in different orders
// hold the same leaves and the same secure tables, node for node.
func TestLeafSetInsertOrderIndependent(t *testing.T) {
	t.Parallel()
	r := testRand()
	members := randomIDs(100, r)
	reversed := slices.Clone(members)
	slices.Reverse(reversed)
	a, b := fillCompact(t, members, 3), fillCompact(t, reversed, 4)
	if a.Slab(0) == b.Slab(0) {
		t.Fatal("reversing the build order kept node 0's slab")
	}
	for i := uint32(0); i < uint32(a.Size()); i++ {
		if !slices.Equal(leafIDs(a, i), leafIDs(b, i)) {
			t.Fatalf("node %d: leaves differ by build order", i)
		}
		if !slices.Equal(secureIDs(a, i), secureIDs(b, i)) {
			t.Fatalf("node %d: secure table differs by build order", i)
		}
		if len(leafIDs(a, i)) != 2*DefaultLeafSetPerSide {
			t.Fatalf("node %d: %d leaves, want %d", i, len(leafIDs(a, i)), 2*DefaultLeafSetPerSide)
		}
	}
}

// TestLeafSetKeepsClosest: with perSide 2, a node's leaves are its two
// nearest members on each side; a farther member on either side is not
// a leaf, however close it is by absolute distance to the other side.
func TestLeafSetKeepsClosest(t *testing.T) {
	t.Parallel()
	owner := id.MustParse("80000000000000000000000000000000")
	near := id.MustParse("80000000000000000000000000000001")
	mid := id.MustParse("84000000000000000000000000000000")
	far := id.MustParse("90000000000000000000000000000000")
	ccw1 := id.MustParse("7f000000000000000000000000000000")
	ccw2 := id.MustParse("70000000000000000000000000000000")
	ccw3 := id.MustParse("10000000000000000000000000000000")
	c := mustCompact(t, []id.ID{far, ccw3, owner, mid, ccw1, near, ccw2}, 2)
	i, _ := c.IndexOf(owner)
	want := []id.ID{ccw2, ccw1, near, mid}
	if got := leafIDs(c, i); !slices.Equal(got, want) {
		t.Fatalf("leaves of 80.. = %v, want %v", got, want)
	}
}

// TestLeafSetCoversAndClosest checks leaf coverage and delivery, on a
// ring the leaf set does not wrap and on rings it does. With
// 2·perSide ≥ N−1 the leaves are every other member, so every target is
// covered and LeafClosest is the global closest member.
func TestLeafSetCoversAndClosest(t *testing.T) {
	t.Parallel()
	owner := id.MustParse("80000000000000000000000000000000")
	cw1 := id.MustParse("81000000000000000000000000000000")
	cw2 := id.MustParse("82000000000000000000000000000000")
	ccw1 := id.MustParse("7f000000000000000000000000000000")
	ccw2 := id.MustParse("7e000000000000000000000000000000")
	others := []id.ID{
		id.MustParse("10000000000000000000000000000000"),
		id.MustParse("c0000000000000000000000000000000"),
		id.MustParse("f0000000000000000000000000000000"),
	}
	c := mustCompact(t, append([]id.ID{owner, cw1, cw2, ccw1, ccw2}, others...), 2)
	i, _ := c.IndexOf(owner)
	if !c.LeafCovers(i, id.MustParse("80800000000000000000000000000000")) {
		t.Error("interior point not covered")
	}
	if !c.LeafCovers(i, owner) {
		t.Error("owner not covered")
	}
	if c.LeafCovers(i, id.MustParse("90000000000000000000000000000000")) {
		t.Error("exterior point covered")
	}
	if got := c.LeafClosest(i, id.MustParse("81100000000000000000000000000000")); c.ID(got) != cw1 {
		t.Errorf("LeafClosest = %s, want %s", c.ID(got).Short(), cw1.Short())
	}
	if got := c.LeafClosest(i, id.MustParse("80000000000000000000000000000001")); got != i {
		t.Errorf("LeafClosest = %s, want the owner", c.ID(got).Short())
	}

	r := testRand()
	for n := 2; n <= 2*DefaultLeafSetPerSide+1; n++ {
		small := mustCompact(t, randomIDs(n, r), DefaultLeafSetPerSide)
		ring := mustRing(t, small.ring.ids)
		for trial := 0; trial < 50; trial++ {
			j := uint32(r.IntN(n))
			target := id.Random(r)
			if trial%2 == 0 {
				// Just past a neighbour: the gap the arc test misses.
				target = small.ID((j+1)%uint32(n)).WithDigit(id.Digits-1, byte(r.IntN(id.Base)))
			}
			if !small.LeafCovers(j, target) {
				t.Fatalf("n=%d: node %d's leaf set holds the whole ring but does not cover %s", n, j, target.Short())
			}
			want, _ := bruteClosest(ring, target, 0, -1)
			if got := small.LeafClosest(j, target); int(got) != want {
				t.Fatalf("n=%d: LeafClosest = %d, global closest %d", n, got, want)
			}
		}
	}
}

// TestLeafSetEstimateN: with N uniformly random members, RingSize over
// the leaf-set mean spacing lands near N on average (§3.1 cites
// Mahajan's estimator).
func TestLeafSetEstimateN(t *testing.T) {
	t.Parallel()
	r := testRand()
	const n = 2000
	c := mustCompact(t, randomIDs(n, r), DefaultLeafSetPerSide)
	var sum float64
	const samples = 50
	for k := 0; k < samples; k++ {
		spacing, err := c.LeafMeanSpacing(uint32(r.IntN(n)))
		if err != nil {
			t.Fatal(err)
		}
		sum += id.RingSize / spacing
	}
	if mean := sum / samples; mean < n/2 || mean > n*2 {
		t.Errorf("population estimate %v, want within 2x of %d", mean, n)
	}
}

func TestLeafSetErrors(t *testing.T) {
	t.Parallel()
	x := id.MustParse("0123456789abcdef0123456789abcdef")
	if _, err := NewCompact([]id.ID{x}, 0); err == nil {
		t.Error("zero perSide accepted")
	}
	solo := mustCompact(t, []id.ID{x}, 4)
	if _, err := solo.LeafMeanSpacing(0); err == nil {
		t.Error("mean spacing of an empty leaf set accepted")
	}
	if solo.LeafCovers(0, id.Zero) {
		t.Error("an empty leaf set covers a target")
	}
}

// Property: the leaf set holds exactly the perSide ring-nearest members
// on each side, for random populations (brute-force comparison).
func TestPropLeafSetMatchesBruteForce(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.IntN(60)
		perSide := 1 + r.IntN(6)
		ids := randomIDs(n, r)
		owner := ids[0]
		c := mustCompact(t, ids, perSide)
		i, _ := c.IndexOf(owner)
		others := slices.Clone(ids[1:])
		want := map[id.ID]bool{}
		sort.Slice(others, func(a, b int) bool {
			return id.Spacing(owner, others[a]) < id.Spacing(owner, others[b])
		})
		for _, x := range others[:min(perSide, len(others))] {
			want[x] = true
		}
		sort.Slice(others, func(a, b int) bool {
			return id.Spacing(others[a], owner) < id.Spacing(others[b], owner)
		})
		for _, x := range others[:min(perSide, len(others))] {
			want[x] = true
		}
		got := leafIDs(c, i)
		if len(got) != len(want) {
			t.Fatalf("trial %d: leaf set size %d, brute force %d", trial, len(got), len(want))
		}
		for _, x := range got {
			if !want[x] {
				t.Fatalf("trial %d: %s is a leaf but not among the nearest", trial, x.Short())
			}
		}
	}
}

// TestBuildLeafSetMatchesSequentialInserts: an overlay grown by joins,
// one member at a time, holds the same leaves at every node as one
// built over the final membership at once.
func TestBuildLeafSetMatchesSequentialInserts(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.IntN(60)
		perSide := 1 + r.IntN(8)
		ids := randomIDs(n, r)
		grown := mustCompact(t, ids[:1], perSide)
		rng := rand.New(rand.NewPCG(uint64(trial), 1))
		for _, x := range ids[1:] {
			if _, _, err := grown.ApplyJoin(x, rng, nil); err != nil {
				t.Fatal(err)
			}
		}
		built := mustCompact(t, ids, perSide)
		for i := uint32(0); i < uint32(n); i++ {
			if !slices.Equal(leafIDs(grown, i), leafIDs(built, i)) {
				t.Fatalf("trial %d (n=%d, perSide=%d): node %d leaves differ", trial, n, perSide, i)
			}
		}
	}
}
