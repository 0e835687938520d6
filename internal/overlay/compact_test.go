package overlay

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"concilium/internal/id"
)

// buildBoth constructs the legacy per-node states and the compact core
// over the same membership, with identical per-node rng substreams, so
// every structural comparison is exact.
func buildBoth(t *testing.T, n int, seed uint64) (map[id.ID]*RoutingState, *Ring, *Compact) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	members := make([]id.ID, n)
	for i := range members {
		members[i] = id.Random(rng)
	}
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	legacy := make(map[id.ID]*RoutingState, n)
	for i, x := range ring.Members() {
		st, err := BuildRoutingState(x, ring, rand.New(rand.NewPCG(seed, uint64(2*i+1))))
		if err != nil {
			t.Fatal(err)
		}
		legacy[x] = st
	}
	c, err := NewCompact(members, DefaultLeafSetPerSide)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		c.FillNode(uint32(i), rand.New(rand.NewPCG(seed, uint64(2*i+1))))
	}
	return legacy, ring, c
}

// compareStates checks every node's compact state against its legacy
// counterpart. exactLeafOrder toggles between exact-sequence and
// same-set leaf comparison: churn repairs converge to the same members
// but not necessarily the same insertion order.
func compareStates(t *testing.T, legacy map[id.ID]*RoutingState, c *Compact, exactLeafOrder bool) {
	t.Helper()
	for i := 0; i < c.Size(); i++ {
		self := c.ID(uint32(i))
		st := legacy[self]
		if st == nil {
			t.Fatalf("no legacy state for compact member %s", self.Short())
		}
		var leafIdx []uint32
		leafIdx = c.AppendLeafIndices(uint32(i), leafIdx)
		gotLeaves := make([]id.ID, len(leafIdx))
		for p, j := range leafIdx {
			gotLeaves[p] = c.ID(j)
		}
		wantLeaves := append([]id.ID(nil), st.Leaf.members...)
		if !exactLeafOrder {
			sort.Slice(gotLeaves, func(a, b int) bool { return id.Less(gotLeaves[a], gotLeaves[b]) })
			sort.Slice(wantLeaves, func(a, b int) bool { return id.Less(wantLeaves[a], wantLeaves[b]) })
		}
		if len(gotLeaves) != len(wantLeaves) {
			t.Fatalf("node %s: %d compact leaves, legacy %d", self.Short(), len(gotLeaves), len(wantLeaves))
		}
		for p := range gotLeaves {
			if gotLeaves[p] != wantLeaves[p] {
				t.Fatalf("node %s: leaf %d = %s, legacy %s", self.Short(), p, gotLeaves[p].Short(), wantLeaves[p].Short())
			}
		}
		for row := 0; row < id.Digits; row++ {
			for col := byte(0); col < id.Base; col++ {
				wantSec, wantOK := st.Secure.Slot(row, col)
				gotIdx, gotOK := c.SecureSlot(uint32(i), row, col)
				if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantSec) {
					t.Fatalf("node %s: secure slot (%d,%d) mismatch", self.Short(), row, col)
				}
				wantStd, wantOK := st.Standard.Slot(row, col)
				gotIdx, gotOK = c.StandardSlot(uint32(i), row, col)
				if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantStd) {
					t.Fatalf("node %s: standard slot (%d,%d) mismatch", self.Short(), row, col)
				}
			}
		}
		if got, want := c.SecureOccupancy(uint32(i)), st.Secure.Occupancy(); got != want {
			t.Fatalf("node %s: secure occupancy %d, legacy %d", self.Short(), got, want)
		}
		if exactLeafOrder {
			var peerIdx []uint32
			peerIdx = c.AppendRoutingPeers(uint32(i), peerIdx)
			wantPeers := st.RoutingPeers()
			if len(peerIdx) != len(wantPeers) {
				t.Fatalf("node %s: %d routing peers, legacy %d", self.Short(), len(peerIdx), len(wantPeers))
			}
			for p, j := range peerIdx {
				if c.ID(j) != wantPeers[p] {
					t.Fatalf("node %s: routing peer %d = %s, legacy %s",
						self.Short(), p, c.ID(j).Short(), wantPeers[p].Short())
				}
			}
		}
	}
}

// compareHops checks next-hop and full-route agreement for a mix of
// member and off-ring targets.
func compareHops(t *testing.T, legacy map[id.ID]*RoutingState, c *Compact, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	targets := make([]id.ID, 0, 64)
	for p := 0; p < 24; p++ {
		targets = append(targets, c.ID(uint32(rng.IntN(c.Size()))))
		targets = append(targets, id.Random(rng))
		near := c.ID(uint32(rng.IntN(c.Size())))
		targets = append(targets, near.WithDigit(id.Digits-1, byte(rng.IntN(id.Base))))
	}
	for trial := 0; trial < 48; trial++ {
		i := uint32(rng.IntN(c.Size()))
		self := c.ID(i)
		target := targets[rng.IntN(len(targets))]
		wantHop, wantOK := legacy[self].NextHopSecure(target)
		gotIdx, gotOK := c.NextHopSecure(i, target)
		if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantHop) {
			t.Fatalf("NextHopSecure(%s, %s): compact %v, legacy %v", self.Short(), target.Short(), gotOK, wantOK)
		}
		wantHop, wantOK = legacy[self].NextHopStandard(target)
		gotIdx, gotOK = c.NextHopStandard(i, target)
		if gotOK != wantOK || (gotOK && c.ID(gotIdx) != wantHop) {
			t.Fatalf("NextHopStandard(%s, %s) mismatch", self.Short(), target.Short())
		}
		wantRoute, wantErr := RouteSecure(legacy, self, target, 0)
		gotIdxRoute, gotErr := c.AppendRouteSecure(i, target, 0, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("route %s->%s: compact err %v, legacy err %v", self.Short(), target.Short(), gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if len(gotIdxRoute) != len(wantRoute) {
			t.Fatalf("route %s->%s: %d hops, legacy %d", self.Short(), target.Short(), len(gotIdxRoute), len(wantRoute))
		}
		for p, j := range gotIdxRoute {
			if c.ID(j) != wantRoute[p] {
				t.Fatalf("route %s->%s: hop %d = %s, legacy %s",
					self.Short(), target.Short(), p, c.ID(j).Short(), wantRoute[p].Short())
			}
		}
	}
}

func TestCompactMatchesLegacyBuild(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 5, 17, 120} {
		legacy, _, c := buildBoth(t, n, uint64(1000+n))
		compareStates(t, legacy, c, true)
		compareHops(t, legacy, c, uint64(n))
	}
}

// churnPair drives the legacy per-node states and the compact core
// through the same join/depart sequence, with identical rng streams, so
// that compareStates can check them against each other after every
// event.
type churnPair struct {
	legacy map[id.ID]*RoutingState
	ring   *Ring
	c      *Compact

	legacyRng, compactRng *rand.Rand
	departed              []uint32 // slabs of departed members
	// emptyDense and emptyTail count refills that found no candidate:
	// slots that held the departed peer and are empty afterwards, in
	// dense and in tail rows.
	emptyDense, emptyTail int
}

func newChurnPair(t *testing.T, n int, seed uint64) *churnPair {
	legacy, ring, c := buildBoth(t, n, seed)
	return &churnPair{
		legacy: legacy, ring: ring, c: c,
		legacyRng:  rand.New(rand.NewPCG(seed, 501)),
		compactRng: rand.New(rand.NewPCG(seed, 501)),
	}
}

// join admits peer on both sides; it is a no-op for a current member.
func (cp *churnPair) join(t *testing.T, peer id.ID) {
	t.Helper()
	if cp.ring.Contains(peer) {
		return
	}
	grown, err := cp.ring.WithMember(peer)
	if err != nil {
		t.Fatal(err)
	}
	cp.ring = grown
	st, err := BuildRoutingState(peer, cp.ring, cp.legacyRng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range cp.ring.Members() {
		if x == peer {
			continue
		}
		if err := cp.legacy[x].ApplyJoin(peer); err != nil {
			t.Fatal(err)
		}
	}
	cp.legacy[peer] = st
	if _, _, err := cp.c.ApplyJoin(peer, cp.compactRng, nil); err != nil {
		t.Fatal(err)
	}
}

// depart removes peer on both sides and counts the compact refills
// that left the departed peer's slot empty.
func (cp *churnPair) depart(t *testing.T, peer id.ID) {
	t.Helper()
	shrunk, err := cp.ring.Without(map[id.ID]bool{peer: true})
	if err != nil {
		t.Fatal(err)
	}
	cp.ring = shrunk
	delete(cp.legacy, peer)
	for _, x := range cp.ring.Members() {
		if err := cp.legacy[x].ApplyDeparture(peer, cp.ring, cp.legacyRng); err != nil {
			t.Fatal(err)
		}
	}
	c := cp.c
	k, _ := c.IndexOf(peer)
	type heldSlot struct {
		node     id.ID
		row      int
		col      byte
		standard bool
	}
	var held []heldSlot
	for i := uint32(0); i < uint32(c.Size()); i++ {
		if i == k {
			continue
		}
		row := id.CommonPrefixLen(c.ID(i), peer)
		col := peer.Digit(row)
		if v, ok := c.SecureSlot(i, row, col); ok && v == k {
			held = append(held, heldSlot{c.ID(i), row, col, false})
		}
		if v, ok := c.StandardSlot(i, row, col); ok && v == k {
			held = append(held, heldSlot{c.ID(i), row, col, true})
		}
	}
	cp.departed = append(cp.departed, c.Slab(k))
	if _, err := c.ApplyDeparture(peer, cp.compactRng, nil); err != nil {
		t.Fatal(err)
	}
	for _, h := range held {
		i, _ := c.IndexOf(h.node)
		slot := c.SecureSlot
		if h.standard {
			slot = c.StandardSlot
		}
		if _, ok := slot(i, h.row, h.col); ok {
			continue
		}
		if h.row < c.DenseRows() {
			cp.emptyDense++
		} else {
			cp.emptyTail++
		}
	}
}

// check asserts the ring↔slab invariants, then slot-for-slot agreement
// with the legacy states.
func (cp *churnPair) check(t *testing.T, step int) {
	t.Helper()
	if cp.c.Size() != cp.ring.Size() {
		t.Fatalf("step %d: compact size %d, ring %d", step, cp.c.Size(), cp.ring.Size())
	}
	checkSlabInvariants(t, cp.c, cp.departed)
	compareStates(t, cp.legacy, cp.c, false)
}

// checkSlabInvariants asserts that Slab and Pos are inverse over the
// live slabs, that every departed slab's Pos is NoIndex, and that no
// slot of either table names a departed slab.
func checkSlabInvariants(t *testing.T, c *Compact, departed []uint32) {
	t.Helper()
	live := 0
	for p := uint32(0); p < uint32(c.Slabs()); p++ {
		i := c.Pos(p)
		if i == NoIndex {
			continue
		}
		live++
		if int(i) >= c.Size() || c.Slab(i) != p {
			t.Fatalf("slab %d: Pos %d, whose Slab is not %d", p, i, p)
		}
	}
	if live != c.Size() {
		t.Fatalf("%d live slabs, %d members", live, c.Size())
	}
	for _, p := range departed {
		if c.Pos(p) != NoIndex {
			t.Fatalf("departed slab %d has Pos %d", p, c.Pos(p))
		}
	}
	for i := uint32(0); i < uint32(c.Size()); i++ {
		for _, tbl := range []*compactTable{&c.secure, &c.standard} {
			tbl.forEach(c.denseRows, i, func(row int, col byte, slab uint32) {
				if int(slab) >= c.Slabs() || c.Pos(slab) == NoIndex {
					t.Fatalf("node %d: slot (%d,%d) names departed slab %d", i, row, col, slab)
				}
			})
		}
	}
}

func TestCompactMatchesLegacyChurn(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		n, steps int
		seed     uint64
	}{
		{name: "n90", n: 90, steps: 10, seed: 77},
		// denseRows(300) = 3: rows 3 and deeper live in sparse tails. Two
		// departures per join shrink the ring by ≈30 members.
		{name: "n300-tails", n: 300, steps: 90, seed: 301},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cp := newChurnPair(t, tc.n, tc.seed)
			idRng := rand.New(rand.NewPCG(tc.seed, 502))
			pick := rand.New(rand.NewPCG(tc.seed, 503))
			for step := 0; step < tc.steps; step++ {
				if step%3 == 2 {
					cp.join(t, id.Random(idRng))
				} else {
					cp.depart(t, cp.ring.Members()[pick.IntN(cp.ring.Size())])
				}
				cp.check(t, step)
			}
			compareHops(t, cp.legacy, cp.c, tc.seed)
			if cp.emptyDense == 0 || cp.emptyTail == 0 {
				t.Fatalf("refills with no candidate: %d dense, %d tail; want both > 0", cp.emptyDense, cp.emptyTail)
			}
		})
	}
}

// FuzzCompactChurn checks the compact core against the legacy per-node
// states over join/depart sequences the input selects, at N≈40. The
// first eight bytes seed a PCG that draws every identifier — packed
// identifiers from raw bytes tie under the legacy leaf set's float64
// spacing — and each further byte is one event: an even byte joins a
// fresh identifier, an odd one departs the member at (byte>>1) mod size.
func FuzzCompactChurn(f *testing.F) {
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x03\x05\x02\x07\x09\x04"))
	f.Add([]byte("concilium churn\xff\xfd\xfb\xf9\xf7\xf5\xf3\xf1\xef\xed"))
	f.Add([]byte("\x2a\x00\x00\x00\x00\x00\x00\x00\x00\x02\x04\x06\x01\x01\x01\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		const n, maxSteps, minSize = 40, 48, 8
		seed := binary.LittleEndian.Uint64(data)
		cp := newChurnPair(t, n, seed)
		idRng := rand.New(rand.NewPCG(seed, 502))
		for step, b := range data[8:min(len(data), 8+maxSteps)] {
			if b&1 == 0 || cp.ring.Size() <= minSize {
				cp.join(t, id.Random(idRng))
			} else {
				cp.depart(t, cp.ring.Members()[int(b>>1)%cp.ring.Size()])
			}
			cp.check(t, step)
		}
	})
}

// peerSequences returns every member's routing-peer sequence as
// identifiers, keyed by the member's identifier — the form in which a
// sequence survives the ring-index shifts of a churn event.
func peerSequences(c *Compact) map[id.ID][]id.ID {
	out := make(map[id.ID][]id.ID, c.Size())
	var idx []uint32
	for i := 0; i < c.Size(); i++ {
		idx = c.AppendRoutingPeers(uint32(i), idx[:0])
		seq := make([]id.ID, len(idx))
		for p, j := range idx {
			seq[p] = c.ID(j)
		}
		out[c.ID(uint32(i))] = seq
	}
	return out
}

// TestCompactChurnReportsChangedPeers checks the changed set both churn
// operations report against the definition: a surviving member is
// reported exactly when its routing-peer identifier sequence differs
// across the event (sound: nothing changed goes unreported; tight:
// nothing unchanged is reported), once, and — at a size where leaf sets
// do not cover the ring — that is a small share of the members.
func TestCompactChurnReportsChangedPeers(t *testing.T) {
	t.Parallel()
	for _, n := range []int{5, 20, 70, 256} {
		seed := uint64(0x6368616e67656400 + n)
		rng := rand.New(rand.NewPCG(seed, 1))
		members := make([]id.ID, n)
		for i := range members {
			members[i] = id.Random(rng)
		}
		c, err := NewCompact(members, DefaultLeafSetPerSide)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.Size(); i++ {
			c.FillNode(uint32(i), rng)
		}
		var changed []uint32
		for step := 0; step < 40; step++ {
			before := peerSequences(c)
			var churned id.ID
			if step%2 == 0 {
				churned = id.Random(rng)
				_, changed, err = c.ApplyJoin(churned, rng, changed[:0])
			} else {
				churned = c.ID(uint32(rng.IntN(c.Size())))
				changed, err = c.ApplyDeparture(churned, rng, changed[:0])
			}
			if err != nil {
				t.Fatal(err)
			}
			reported := make(map[id.ID]bool, len(changed))
			for _, i := range changed {
				x := c.ID(i)
				if reported[x] || x == churned {
					t.Fatalf("n=%d step %d: position %d (%s) reported twice, or is the churned node", n, step, i, x.Short())
				}
				reported[x] = true
			}
			for x, after := range peerSequences(c) {
				was, survived := before[x]
				if !survived {
					continue
				}
				if differs := !slices.Equal(was, after); differs != reported[x] {
					t.Fatalf("n=%d step %d: %s: peer sequence changed=%v, reported=%v", n, step, x.Short(), differs, reported[x])
				}
			}
			if n == 256 && len(changed) > c.Size()/4 {
				t.Errorf("n=%d step %d: %d of %d members reported", n, step, len(changed), c.Size())
			}
		}
	}
}

func TestDenseRowsFor(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {16, 1}, {17, 2}, {256, 2}, {257, 3},
		{1000, 3}, {20000, 4}, {100000, 5}, {1000000, 5}, {1048576, 5}, {1048577, 6},
	}
	for _, tc := range cases {
		if got := denseRowsFor(tc.n); got != tc.want {
			t.Errorf("denseRowsFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestCompactFootprintSmall(t *testing.T) {
	t.Parallel()
	_, _, c := buildBoth(t, 120, 9)
	perNode := c.Footprint() / int64(c.Size())
	// Two tables at denseRows(120)=2 dense rows of 16 uint32 slots plus
	// sparse tails and the 16-byte identifier: should be well under 1KB
	// per node, where the legacy representation spends ~41KB.
	if perNode <= 0 || perNode > 1024 {
		t.Fatalf("compact footprint %d bytes/node, want (0, 1024]", perNode)
	}
}

// TestCompactValidateSecure accepts every freshly filled and churned
// secure table and rejects a slot whose occupant breaks the prefix
// constraint.
func TestCompactValidateSecure(t *testing.T) {
	t.Parallel()
	_, _, c := buildBoth(t, 120, 91)
	rng := rand.New(rand.NewPCG(91, 1))
	if _, err := c.ApplyDeparture(c.ID(7), rng, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplyJoin(id.Random(rng), rng, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if err := c.ValidateSecure(uint32(i)); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Move node 0's first occupant into a column it does not belong in.
	slots := c.AppendSecureSlots(0, nil)
	if len(slots) == 0 {
		t.Fatal("node 0 has an empty secure table")
	}
	s := slots[0]
	c.secure.set(c.denseRows, 0, int(s.Row), (s.Col+1)%id.Base, c.Slab(s.Peer))
	if err := c.ValidateSecure(0); err == nil {
		t.Fatal("misplaced occupant accepted")
	}
}
