package overlay

import (
	"math/rand/v2"
	"slices"
	"testing"

	"concilium/internal/id"
)

// requireRebuilt compares c, node by node, with an overlay built over
// its current membership from scratch: the secure fill is rng-free and
// leaves are derived, so both must agree exactly.
func requireRebuilt(t *testing.T, c *Compact, when string) {
	t.Helper()
	mustInvariants(t, c, when)
	fresh := fillCompact(t, c.ring.ids, 1)
	for i := uint32(0); i < uint32(c.Size()); i++ {
		if !slices.Equal(secureIDs(c, i), secureIDs(fresh, i)) {
			t.Fatalf("%s: node %s secure table diverged from a from-scratch fill", when, c.ID(i).Short())
		}
		if !slices.Equal(leafIDs(c, i), leafIDs(fresh, i)) {
			t.Fatalf("%s: node %s leaves diverged from a rebuild", when, c.ID(i).Short())
		}
	}
}

// TestApplyJoinMatchesRebuild is the central churn property for joins:
// folding joins in incrementally lands in exactly the secure tables and
// leaves a from-scratch build over the grown membership has.
func TestApplyJoinMatchesRebuild(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(501, 503))
	ids := randomIDs(150, r)
	c := fillCompact(t, ids[:100], 2)
	for _, joiner := range ids[100:] {
		if _, _, err := c.ApplyJoin(joiner, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	requireRebuilt(t, c, "after 50 joins")
}

// TestApplyDepartureMatchesRebuild: the same property for departures,
// and no departed identifier lingers in anyone's routing peers.
func TestApplyDepartureMatchesRebuild(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(505, 507))
	ids := randomIDs(150, r)
	c := fillCompact(t, ids, 2)
	departed := map[id.ID]bool{}
	for i := 1; i <= 30; i++ {
		peer := ids[i*4]
		departed[peer] = true
		if _, err := c.ApplyDeparture(peer, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	requireRebuilt(t, c, "after 30 departures")
	for i := uint32(0); i < uint32(c.Size()); i++ {
		for _, j := range c.AppendRoutingPeers(i, nil) {
			if departed[c.ID(j)] {
				t.Fatalf("departed peer %s still in routing state", c.ID(j).Short())
			}
		}
	}
}

// TestApplyJoinValidation: a current member cannot join again, and the
// refused join changes nothing.
func TestApplyJoinValidation(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 20, 509)
	before := stateDigest(c)
	if _, _, err := c.ApplyJoin(c.ID(3), rand.New(rand.NewPCG(1, 1)), nil); err == nil {
		t.Error("duplicate join accepted")
	}
	if stateDigest(c) != before || c.Slabs() != 20 {
		t.Error("a refused join changed the overlay")
	}
}

// TestApplyDepartureValidation: only a member can depart, and the last
// member cannot.
func TestApplyDepartureValidation(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 20, 513)
	r := rand.New(rand.NewPCG(1, 1))
	if _, err := c.ApplyDeparture(id.Random(r), r, nil); err == nil {
		t.Error("departure of a non-member accepted")
	}
	solo := buildCompact(t, 1, 515)
	if _, err := solo.ApplyDeparture(solo.ID(0), r, nil); err == nil {
		t.Error("departure emptying the ring accepted")
	}
}

// TestRingWithout: after departures the ring view holds exactly the
// survivors, in order, and the departed slabs are marked NoIndex.
func TestRingWithout(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 50, 517)
	r := rand.New(rand.NewPCG(1, 2))
	gone := []id.ID{c.ID(0), c.ID(17), c.ID(49)}
	slabs := []uint32{c.Slab(0), c.Slab(17), c.Slab(49)}
	for _, x := range gone {
		if _, err := c.ApplyDeparture(x, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Size() != 47 || c.Ring().Size() != 47 || c.Slabs() != 50 {
		t.Fatalf("size %d, ring %d, slabs %d", c.Size(), c.Ring().Size(), c.Slabs())
	}
	for k, x := range gone {
		if _, ok := c.Ring().IndexOf(x); ok {
			t.Errorf("departed %s still on the ring", x.Short())
		}
		if c.Pos(slabs[k]) != NoIndex {
			t.Errorf("departed slab %d has Pos %d", slabs[k], c.Pos(slabs[k]))
		}
	}
	mustInvariants(t, c, "after departures")
}

// TestWithMember: a joiner lands at its sorted ring position under the
// next unissued slab.
func TestWithMember(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 10, 519)
	r := rand.New(rand.NewPCG(1, 3))
	peer := id.Random(r)
	k, _, err := c.ApplyJoin(peer, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if at, ok := c.IndexOf(peer); !ok || at != k || c.ID(k) != peer {
		t.Fatalf("joiner at %d,%v, ApplyJoin said %d", at, ok, k)
	}
	if c.Size() != 11 || c.Slab(k) != 10 || c.Pos(10) != k {
		t.Fatalf("size %d, joiner slab %d, Pos(10) %d", c.Size(), c.Slab(k), c.Pos(10))
	}
	mustInvariants(t, c, "after join")
}

// TestChurnStormKeepsRoutingCorrect: interleaved joins and departures;
// at the end every secure table equals a rebuild and routes still reach
// each key's root.
func TestChurnStormKeepsRoutingCorrect(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(521, 523))
	ids := randomIDs(200, r)
	c := fillCompact(t, ids[:120], 5)
	next := 120
	for step := 0; step < 120; step++ {
		if step%3 == 2 && next < len(ids) {
			if _, _, err := c.ApplyJoin(ids[next], r, nil); err != nil {
				t.Fatal(err)
			}
			next++
			continue
		}
		if _, err := c.ApplyDeparture(c.ID(uint32(r.IntN(c.Size()))), r, nil); err != nil {
			t.Fatal(err)
		}
	}
	requireRebuilt(t, c, "after the storm")
	checkRoutesReachRoot(t, c, routeKeys(c, 60), 20)
}
