package overlay

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"

	"concilium/internal/id"
)

// buildCompact builds a filled overlay over n identifiers drawn from
// PCG(seed, 0). Node i (a ring position) fills from its own substream
// PCG(seed, 2i+1), the scheme the pinned digests below were computed
// with.
func buildCompact(t testing.TB, n int, seed uint64) *Compact {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	members := make([]id.ID, n)
	for i := range members {
		members[i] = id.Random(rng)
	}
	return fillCompact(t, members, seed)
}

// fillCompact builds a filled overlay over members, in build order.
func fillCompact(t testing.TB, members []id.ID, seed uint64) *Compact {
	t.Helper()
	c, err := NewCompact(members, DefaultLeafSetPerSide)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		c.FillNode(uint32(i), rand.New(rand.NewPCG(seed, uint64(2*i+1))))
	}
	return c
}

func mustInvariants(t testing.TB, c *Compact, when string) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// stateDigest hashes every member's complete routing state in ring
// order: its identifier, its leaves, both tables' occupied slots and its
// routing peers, every peer written as an identifier. Two overlays with
// equal digests agree on every draw the standard fills made.
func stateDigest(c *Compact) uint64 {
	h := fnv.New64a()
	var buf []byte
	var idx []uint32
	var slots []CompactSlot
	ids := func(tag byte, idx []uint32) {
		buf = append(buf, tag)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(idx)))
		for _, j := range idx {
			x := c.ID(j)
			buf = append(buf, x[:]...)
		}
	}
	table := func(tag byte, slots []CompactSlot) {
		buf = append(buf, tag)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(slots)))
		for _, s := range slots {
			x := c.ID(s.Peer)
			buf = append(buf, s.Row, s.Col)
			buf = append(buf, x[:]...)
		}
	}
	for i := uint32(0); i < uint32(c.Size()); i++ {
		self := c.ID(i)
		buf = append(buf[:0], self[:]...)
		ids('L', c.AppendLeafIndices(i, idx[:0]))
		table('S', c.AppendSecureSlots(i, slots[:0]))
		table('T', c.AppendStandardSlots(i, slots[:0]))
		ids('P', c.AppendRoutingPeers(i, idx[:0]))
		h.Write(buf)
	}
	return h.Sum64()
}

// idSlot is a jump-table slot with its occupant as an identifier, the
// form in which two overlays over different slab numberings compare.
type idSlot struct {
	row, col byte
	peer     id.ID
}

func tableIDs(c *Compact, slots []CompactSlot) []idSlot {
	out := make([]idSlot, len(slots))
	for k, s := range slots {
		out[k] = idSlot{s.Row, s.Col, c.ID(s.Peer)}
	}
	return out
}

func secureIDs(c *Compact, i uint32) []idSlot {
	return tableIDs(c, c.AppendSecureSlots(i, nil))
}

// TestCompactMatchesLegacyBuild checks the rules on fresh builds at
// sizes from a ring the leaf sets wrap (3, 5, 17) to one with two dense
// rows, and pins each build's state digest. The digests are the states
// the former pointer-per-node implementation built from the same draws
// and verified slot for slot; CheckInvariants cannot state which member
// a standard fill draws, so the digests carry that.
func TestCompactMatchesLegacyBuild(t *testing.T) {
	t.Parallel()
	pinned := map[int]uint64{
		3:   0x3d727446314737f9,
		5:   0x4e8ecd729c5b24c3,
		17:  0x4224664fc48c7b88,
		120: 0x43120254297dbac5,
	}
	for _, n := range []int{3, 5, 17, 120} {
		c := buildCompact(t, n, uint64(1000+n))
		mustInvariants(t, c, "build")
		if got := stateDigest(c); got != pinned[n] {
			t.Errorf("n=%d: state digest %#x, pinned %#x", n, got, pinned[n])
		}
	}
}

// churnRun drives one overlay through a join/depart sequence, checking
// the rules after every event.
type churnRun struct {
	c        *Compact
	rng      *rand.Rand
	departed []uint32 // slabs of departed members
	// emptyDense and emptyTail count refills that found no candidate:
	// slots that held the departed peer and are empty afterwards, in
	// dense and in tail rows.
	emptyDense, emptyTail int
}

func newChurnRun(t testing.TB, n int, seed uint64) *churnRun {
	return &churnRun{c: buildCompact(t, n, seed), rng: rand.New(rand.NewPCG(seed, 501))}
}

// join admits peer; it is a no-op for a current member.
func (cr *churnRun) join(t testing.TB, peer id.ID) {
	t.Helper()
	if _, ok := cr.c.IndexOf(peer); ok {
		return
	}
	if _, _, err := cr.c.ApplyJoin(peer, cr.rng, nil); err != nil {
		t.Fatal(err)
	}
}

// depart removes peer and counts the refills that left the departed
// peer's slot empty.
func (cr *churnRun) depart(t testing.TB, peer id.ID) {
	t.Helper()
	c := cr.c
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
	cr.departed = append(cr.departed, c.Slab(k))
	if _, err := c.ApplyDeparture(peer, cr.rng, nil); err != nil {
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
		if h.row < c.denseRows {
			cr.emptyDense++
		} else {
			cr.emptyTail++
		}
	}
}

func (cr *churnRun) check(t testing.TB, step int) {
	t.Helper()
	mustInvariants(t, cr.c, fmt.Sprintf("step %d", step))
	for _, p := range cr.departed {
		if cr.c.Pos(p) != NoIndex {
			t.Fatalf("step %d: departed slab %d has Pos %d", step, p, cr.c.Pos(p))
		}
	}
}

// TestCompactMatchesLegacyChurn runs two join/depart schedules, checks
// the rules after every event, requires refills that find no candidate
// in both dense and tail rows, and pins the final state digest. Like
// the build digests, the pinned values are the states the former
// pointer-per-node implementation reached on the same schedules and
// verified slot for slot after every event.
func TestCompactMatchesLegacyChurn(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		n, steps int
		seed     uint64
		digest   uint64
	}{
		{name: "n90", n: 90, steps: 10, seed: 77, digest: 0x1dd046c82fd2bd5b},
		// denseRows(300) = 3: rows 3 and deeper live in sparse tails. Two
		// departures per join shrink the ring by ≈30 members.
		{name: "n300-tails", n: 300, steps: 90, seed: 301, digest: 0x0ec563c21fbf3233},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cr := newChurnRun(t, tc.n, tc.seed)
			idRng := rand.New(rand.NewPCG(tc.seed, 502))
			pick := rand.New(rand.NewPCG(tc.seed, 503))
			for step := 0; step < tc.steps; step++ {
				if step%3 == 2 {
					cr.join(t, id.Random(idRng))
				} else {
					cr.depart(t, cr.c.ID(uint32(pick.IntN(cr.c.Size()))))
				}
				cr.check(t, step)
			}
			if got := stateDigest(cr.c); got != tc.digest {
				t.Errorf("state digest %#x, pinned %#x", got, tc.digest)
			}
			if cr.emptyDense == 0 || cr.emptyTail == 0 {
				t.Fatalf("refills with no candidate: %d dense, %d tail; want both > 0", cr.emptyDense, cr.emptyTail)
			}
		})
	}
}

// FuzzCompactChurn checks the rules over join/depart sequences the input
// selects, at N≈40. The first eight bytes seed a PCG that draws every
// identifier, and each further byte is one event: an even byte joins a
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
		cr := newChurnRun(t, n, seed)
		mustInvariants(t, cr.c, "build")
		idRng := rand.New(rand.NewPCG(seed, 502))
		for step, b := range data[8:min(len(data), 8+maxSteps)] {
			if b&1 == 0 || cr.c.Size() <= minSize {
				cr.join(t, id.Random(idRng))
			} else {
				cr.depart(t, cr.c.ID(uint32(int(b>>1)%cr.c.Size())))
			}
			cr.check(t, step)
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
	c := buildCompact(t, 120, 9)
	perNode := c.Footprint() / int64(c.Size())
	// Two tables at denseRows(120)=2 dense rows of 16 uint32 slots plus
	// sparse tails and the 16-byte identifier: well under 1KB per node.
	if perNode <= 0 || perNode > 1024 {
		t.Fatalf("compact footprint %d bytes/node, want (0, 1024]", perNode)
	}
}

// TestCompactValidateSecure accepts every freshly filled and churned
// secure table and rejects a slot whose occupant breaks the prefix
// constraint.
func TestCompactValidateSecure(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 120, 91)
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

// TestCheckInvariantsCatchesCorruption breaks one rule at a time on a
// valid overlay and requires CheckInvariants to reject each.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	t.Parallel()
	// secondChoice finds a node, a row-0 secure slot, and a qualifying
	// member other than the slot's occupant.
	secondChoice := func(c *Compact) (i uint32, col byte, other uint32) {
		for i := uint32(0); i < uint32(c.Size()); i++ {
			for _, s := range c.AppendSecureSlots(i, nil) {
				if s.Row != 0 {
					continue
				}
				for j := uint32(0); j < uint32(c.Size()); j++ {
					if j != i && j != s.Peer && c.ID(j).Digit(0) == s.Col {
						return i, s.Col, j
					}
				}
			}
		}
		t.Fatal("no row-0 slot with a second candidate")
		return 0, 0, 0
	}
	cases := []struct {
		name    string
		corrupt func(c *Compact)
	}{
		{"secure slot holds the second-closest", func(c *Compact) {
			i, col, other := secondChoice(c)
			c.secure.set(c.denseRows, i, 0, col, c.Slab(other))
		}},
		{"standard slot emptied", func(c *Compact) {
			s := c.AppendStandardSlots(3, nil)[0]
			c.standard.clear(c.denseRows, 3, int(s.Row), s.Col, c.Slab(s.Peer))
		}},
		{"standard occupant lacks the prefix", func(c *Compact) {
			s := c.AppendStandardSlots(3, nil)[0]
			c.standard.set(c.denseRows, 3, int(s.Row), (s.Col+1)%id.Base, c.Slab(s.Peer))
		}},
		{"slot names an unissued slab", func(c *Compact) {
			s := c.AppendSecureSlots(5, nil)[0]
			c.secure.set(c.denseRows, 5, int(s.Row), s.Col, uint32(c.Slabs()))
		}},
		{"Pos and Slab disagree", func(c *Compact) {
			c.posOf[0], c.posOf[1] = c.posOf[1], c.posOf[0]
		}},
		{"ring out of order", func(c *Compact) {
			c.ring.ids[1], c.ring.ids[2] = c.ring.ids[2], c.ring.ids[1]
			c.ring.pairs[1], c.ring.pairs[2] = c.ring.pairs[2], c.ring.pairs[1]
		}},
	}
	for _, tc := range cases {
		c := buildCompact(t, 120, 17)
		mustInvariants(t, c, "before "+tc.name)
		tc.corrupt(c)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestJumpTableSetSlotAndValidate exercises the table storage at both
// a dense and a sparse row: set, replace, clear (only of the named
// slab), occupancy, row-major iteration, and node splices.
func TestJumpTableSetSlotAndValidate(t *testing.T) {
	t.Parallel()
	const dr = 1
	tbl := newCompactTable(2, dr)
	tbl.set(dr, 0, 0, 0xa, 7)
	if v, ok := tbl.slot(dr, 0, 0, 0xa); !ok || v != 7 {
		t.Fatalf("slot(0,a) = %d,%v", v, ok)
	}
	tbl.set(dr, 0, 3, 5, 9) // sparse tail
	tbl.set(dr, 0, 2, 1, 4) // sorts ahead of (3,5)
	if got := tbl.occupancy(dr, 0); got != 3 {
		t.Fatalf("occupancy = %d, want 3", got)
	}
	tbl.set(dr, 0, 0, 0xa, 8) // replace keeps occupancy
	tbl.set(dr, 0, 3, 5, 6)
	if got := tbl.occupancy(dr, 0); got != 3 {
		t.Fatalf("occupancy after replace = %d, want 3", got)
	}
	var order []CompactSlot
	tbl.forEach(dr, 0, func(row int, col byte, slab uint32) {
		order = append(order, CompactSlot{Row: uint8(row), Col: col, Peer: slab})
	})
	want := []CompactSlot{{0, 0xa, 8}, {2, 1, 4}, {3, 5, 6}}
	if !slices.Equal(order, want) {
		t.Fatalf("row-major order %v, want %v", order, want)
	}
	if tbl.clear(dr, 0, 0, 0xa, 7) || tbl.clear(dr, 0, 3, 5, 9) {
		t.Fatal("cleared a slot holding a different slab")
	}
	if !tbl.clear(dr, 0, 0, 0xa, 8) || !tbl.clear(dr, 0, 3, 5, 6) {
		t.Fatal("clear of the held slab failed")
	}
	if got := tbl.occupancy(dr, 0); got != 1 {
		t.Fatalf("occupancy after clears = %d, want 1", got)
	}
	tbl.insertNode(dr, 0)
	if tbl.occupancy(dr, 0) != 0 || tbl.occupancy(dr, 1) != 1 {
		t.Fatal("insertNode did not shift node 0's storage to position 1")
	}
	tbl.removeNode(dr, 0)
	if v, ok := tbl.slot(dr, 0, 2, 1); !ok || v != 4 || len(tbl.tail) != 2 {
		t.Fatal("removeNode did not shift the storage back")
	}
}

// TestJumpTableNextHop: a target the leaf set does not cover goes to the
// secure slot at (shared-prefix length, target's next digit) when that
// slot is occupied; a node routing to itself terminates.
func TestJumpTableNextHop(t *testing.T) {
	t.Parallel()
	r := testRand()
	c := buildCompact(t, 300, 23)
	viaSlot := 0
	for trial := 0; trial < 400; trial++ {
		i := uint32(r.IntN(c.Size()))
		target := id.Random(r)
		if c.LeafCovers(i, target) {
			continue
		}
		row := id.CommonPrefixLen(c.ID(i), target)
		slot, ok := c.SecureSlot(i, row, target.Digit(row))
		if !ok {
			continue
		}
		hop, more := c.NextHopSecure(i, target)
		if !more || hop != slot {
			t.Fatalf("node %d to %s: hop %d,%v, slot holds %d", i, target.Short(), hop, more, slot)
		}
		viaSlot++
	}
	if viaSlot < 100 {
		t.Fatalf("only %d of 400 hops exercised the jump table", viaSlot)
	}
	if _, more := c.NextHopSecure(4, c.ID(4)); more {
		t.Fatal("a node routing to itself forwarded")
	}
}

// TestBuildSecureTableConstraints: every secure slot of a filled node
// holds the ring-closest qualifying member to its target point, found
// by a whole-ring scan, and row 0 is nearly full at N=500.
func TestBuildSecureTableConstraints(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 500, 41)
	ring := mustRing(t, c.ring.ids)
	for _, i := range []uint32{0, 250, 499} {
		if err := c.ValidateSecure(i); err != nil {
			t.Fatal(err)
		}
		self := c.ID(i)
		for row := 0; row < id.Digits; row++ {
			for col := byte(0); col < id.Base; col++ {
				got, ok := c.SecureSlot(i, row, col)
				want, found := -1, false
				if col != self.Digit(row) {
					want, found = bruteClosest(ring, self.WithDigit(row, col), row+1, int(i))
				}
				if ok != found || (ok && int(got) != want) {
					t.Fatalf("node %d slot (%d,%d) = %d,%v, want %d,%v", i, row, col, got, ok, want, found)
				}
			}
		}
		row0 := 0
		for _, s := range c.AppendSecureSlots(i, nil) {
			if s.Row == 0 {
				row0++
			}
		}
		if row0 < 14 {
			t.Errorf("node %d row 0 occupancy = %d, want ~15", i, row0)
		}
	}
}

// TestBuildStandardTableConstraints: standard occupants satisfy the
// prefix rule and fill exactly the slots the secure table fills.
func TestBuildStandardTableConstraints(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 500, 43)
	for i := uint32(0); i < uint32(c.Size()); i += 37 {
		if err := c.validateTable(&c.standard, "standard", i); err != nil {
			t.Fatal(err)
		}
		sec, std := c.AppendSecureSlots(i, nil), c.AppendStandardSlots(i, nil)
		if len(std) == 0 || len(sec) != len(std) {
			t.Fatalf("node %d: %d standard slots, %d secure", i, len(std), len(sec))
		}
		for k := range sec {
			if sec[k].Row != std[k].Row || sec[k].Col != std[k].Col {
				t.Fatalf("node %d: slot %d differs in position", i, k)
			}
		}
	}
}

// TestBuildRoutingStateAndPeers pins the routing-peer sequence: the
// secure occupants row-major, then the leaves in AppendLeafIndices
// order, first occurrence kept, never the node itself.
func TestBuildRoutingStateAndPeers(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 200, 47)
	for i := uint32(0); i < uint32(c.Size()); i += 19 {
		var want []uint32
		add := func(j uint32) {
			if !slices.Contains(want, j) {
				want = append(want, j)
			}
		}
		for _, s := range c.AppendSecureSlots(i, nil) {
			add(s.Peer)
		}
		for _, j := range c.AppendLeafIndices(i, nil) {
			add(j)
		}
		got := c.AppendRoutingPeers(i, nil)
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Fatalf("node %d: routing peers %v, want %v", i, got, want)
		}
		if slices.Contains(got, i) {
			t.Fatalf("node %d lists itself", i)
		}
	}
}

// TestStandardAndSecureDisagreeSometimes: the standard table picks
// freely among prefix-qualifying members, so across many nodes the two
// tables are not identical — if they were, the standard table would not
// be exercising its freedom.
func TestStandardAndSecureDisagreeSometimes(t *testing.T) {
	t.Parallel()
	c := buildCompact(t, 400, 53)
	for i := uint32(0); i < 20; i++ {
		if !slices.Equal(c.AppendSecureSlots(i, nil), c.AppendStandardSlots(i, nil)) {
			return
		}
	}
	t.Error("standard tables identical to secure tables across 20 nodes")
}
