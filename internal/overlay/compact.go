package overlay

import (
	"fmt"
	"math/bits"
	"sort"

	"concilium/internal/id"
	"concilium/internal/stats"
)

// Compact is the struct-of-arrays overlay core: every node's routing
// state for one ring, stored flat and keyed by uint32 position in the
// sorted member slice instead of by identifier. It produces exactly the
// state the per-node RoutingState build produces — same constrained
// secure fills, same uniform standard picks, same rng draw order — but
// at a fraction of the footprint:
//
//   - Leaf sets are not stored at all. The perSide closest peers of the
//     node at ring position i are positions i±1..i±perSide (wrapping),
//     so leaf queries are index arithmetic.
//   - Jump tables split at denseRows = ⌈log₁₆N⌉: rows shallower than
//     that are near-full and live in one flat uint32 slab (NoIndex =
//     empty); deeper rows are almost always empty and live in tiny
//     per-node sorted tail slices.
//
// Compare ~41KB/node for the pointer-per-node representation at N=20k
// against ~(denseRows·64 + tail)·2 + 16 bytes here.
type Compact struct {
	ring      Ring // shares the compact membership slice; mutated by churn
	perSide   int
	denseRows int
	secure    compactTable
	standard  compactTable
}

// NoIndex marks an empty compact jump-table slot.
const NoIndex = ^uint32(0)

// CompactSlot is one occupied jump-table slot in index form.
type CompactSlot struct {
	Row, Col uint8
	Peer     uint32
}

// compactTable is one table kind (secure or standard) for every node:
// a dense slab of denseRows×Base uint32 slots per node plus sparse
// row-major tails for the deep rows.
type compactTable struct {
	dense []uint32
	tail  [][]CompactSlot
}

// denseRowsFor returns ⌈log₁₆ n⌉ clamped to [1, id.Digits] — the prefix
// depth at which expected row occupancy falls below one slot.
func denseRowsFor(n int) int {
	if n <= 1 {
		return 1
	}
	dr := (bits.Len(uint(n-1)) + id.BitsPerDigit - 1) / id.BitsPerDigit
	if dr < 1 {
		dr = 1
	}
	if dr > id.Digits {
		dr = id.Digits
	}
	return dr
}

// NewCompact allocates empty compact state over the given members.
// Tables start empty; call FillNode per node (any order, including in
// parallel — node i writes only its own rows).
func NewCompact(members []id.ID, perSide int) (*Compact, error) {
	if perSide <= 0 {
		return nil, fmt.Errorf("overlay: compact perSide %d must be positive", perSide)
	}
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	n := ring.Size()
	dr := denseRowsFor(n)
	return &Compact{
		ring:      Ring{ids: ring.ids, pairs: ring.pairs},
		perSide:   perSide,
		denseRows: dr,
		secure:    newCompactTable(n, dr),
		standard:  newCompactTable(n, dr),
	}, nil
}

// Size returns the current member count.
func (c *Compact) Size() int { return len(c.ring.ids) }

// PerSide returns the leaf-set half-width.
func (c *Compact) PerSide() int { return c.perSide }

// DenseRows returns the dense/sparse split depth. It is fixed at build
// time; churn does not rebalance the layout.
func (c *Compact) DenseRows() int { return c.denseRows }

// ID returns the identifier at ring position i.
func (c *Compact) ID(i uint32) id.ID { return c.ring.ids[i] }

// IDs returns the sorted members. The slice is shared and must not be
// modified; churn invalidates it.
func (c *Compact) IDs() []id.ID { return c.ring.ids }

// IndexOf returns the ring position of x.
func (c *Compact) IndexOf(x id.ID) (uint32, bool) {
	at, ok := c.ring.IndexOf(x)
	return uint32(at), ok
}

// Ring returns a ring view over the current members. It shares the
// member slice; churn on the Compact invalidates it.
func (c *Compact) Ring() *Ring { return &c.ring }

// leafK returns the effective per-side leaf count: perSide, capped by
// the n-1 other members.
func (c *Compact) leafK() int {
	if n := len(c.ring.ids) - 1; n < c.perSide {
		return n
	}
	return c.perSide
}

// FillNode constructs node i's secure and standard tables from scratch,
// mirroring BuildSecureTable and BuildStandardTable slot for slot. rng
// drives the standard table's free choice and is consumed in exactly
// the legacy draw order, so per-node substreams yield identical tables
// in both representations.
func (c *Compact) FillNode(i uint32, rng stats.Rand) {
	self := c.ring.ids[i]
	for row := 0; row < id.Digits; row++ {
		own := self.Digit(row)
		for col := byte(0); col < id.Base; col++ {
			if col == own {
				continue
			}
			target := self.WithDigit(row, col)
			cand, ok := c.ring.closestWithPrefixExclIdx(target, row+1, int(i))
			if !ok {
				continue
			}
			c.secure.set(c.denseRows, i, row, col, uint32(cand))
		}
		if !c.ring.hasOtherWithPrefixIdx(self, row+1, int(i)) {
			break
		}
	}
	for row := 0; row < id.Digits; row++ {
		anyDeeper := false
		own := self.Digit(row)
		for col := byte(0); col < id.Base; col++ {
			if col == own {
				anyDeeper = true
				continue
			}
			target := self.WithDigit(row, col)
			cand, ok := c.ring.uniformWithPrefixExclIdx(target, row+1, int(i), rng)
			if !ok {
				continue
			}
			anyDeeper = true
			c.standard.set(c.denseRows, i, row, col, uint32(cand))
		}
		if !anyDeeper {
			break
		}
	}
}

// SecureSlot returns the occupant of node i's secure slot (row, col).
func (c *Compact) SecureSlot(i uint32, row int, col byte) (uint32, bool) {
	if row < 0 || row >= id.Digits || col >= id.Base {
		return 0, false
	}
	return c.secure.slot(c.denseRows, i, row, col)
}

// StandardSlot returns the occupant of node i's standard slot (row, col).
func (c *Compact) StandardSlot(i uint32, row int, col byte) (uint32, bool) {
	if row < 0 || row >= id.Digits || col >= id.Base {
		return 0, false
	}
	return c.standard.slot(c.denseRows, i, row, col)
}

// SecureOccupancy returns node i's filled secure-slot count.
func (c *Compact) SecureOccupancy(i uint32) int {
	return c.secure.occupancy(c.denseRows, i)
}

// ValidateSecure checks every occupant of node i's secure table against
// its slot's prefix constraint — JumpTable.Validate over indices.
func (c *Compact) ValidateSecure(i uint32) error {
	owner := c.ring.ids[i]
	var err error
	c.secure.forEach(c.denseRows, i, func(row int, col byte, peer uint32) {
		p := c.ring.ids[peer]
		want := id.CommonPrefixLen(owner, p)
		if err == nil && (want >= id.Digits || want != row || p.Digit(want) != col) {
			err = fmt.Errorf("overlay: peer %s in secure slot (%d,%d) of %s violates its prefix constraint",
				p.Short(), row, col, owner.Short())
		}
	})
	return err
}

// AppendSecureSlots appends node i's occupied secure slots to out in
// row-major order.
func (c *Compact) AppendSecureSlots(i uint32, out []CompactSlot) []CompactSlot {
	return c.secure.appendSlots(c.denseRows, i, out)
}

// AppendStandardSlots appends node i's occupied standard slots to out in
// row-major order.
func (c *Compact) AppendStandardSlots(i uint32, out []CompactSlot) []CompactSlot {
	return c.standard.appendSlots(c.denseRows, i, out)
}

// AppendLeafIndices appends node i's leaf positions to out: clockwise
// neighbors by increasing distance, then counterclockwise ones not
// already present — the same membership order the LeafSet build
// produces.
func (c *Compact) AppendLeafIndices(i uint32, out []uint32) []uint32 {
	n := len(c.ring.ids)
	k := c.leafK()
	start := len(out)
	appendUniq := func(j uint32) {
		for _, q := range out[start:] {
			if q == j {
				return
			}
		}
		out = append(out, j)
	}
	for s := 1; s <= k; s++ {
		appendUniq(uint32((int(i) + s) % n))
	}
	for s := 1; s <= k; s++ {
		appendUniq(uint32(((int(i)-s)%n + n) % n))
	}
	return out
}

// LeafCovers reports whether target falls inside the arc node i's leaf
// set spans — the direct-delivery test of Pastry routing.
func (c *Compact) LeafCovers(i uint32, target id.ID) bool {
	n := len(c.ring.ids)
	k := c.leafK()
	if k <= 0 {
		return false
	}
	self := c.ring.ids[i]
	if target == self {
		return true
	}
	lo := c.ring.ids[((int(i)-k)%n+n)%n]
	hi := c.ring.ids[(int(i)+k)%n]
	return id.Between(target, lo, hi)
}

// LeafClosest returns the position (node i itself or one of its leaves)
// numerically closest to target.
func (c *Compact) LeafClosest(i uint32, target id.ID) uint32 {
	n := len(c.ring.ids)
	k := c.leafK()
	best := i
	for s := 1; s <= k; s++ {
		for _, j := range [2]int{(int(i) + s) % n, ((int(i)-s)%n + n) % n} {
			if id.Closer(c.ring.ids[j], c.ring.ids[best], target) {
				best = uint32(j)
			}
		}
	}
	return best
}

// AppendRoutingPeers appends node i's probe set to out: secure-table
// occupants row-major, then leaves, first-seen deduplicated — the same
// sequence RoutingState.RoutingPeers yields.
func (c *Compact) AppendRoutingPeers(i uint32, out []uint32) []uint32 {
	start := len(out)
	appendUniq := func(j uint32) {
		for _, q := range out[start:] {
			if q == j {
				return
			}
		}
		out = append(out, j)
	}
	c.secure.forEach(c.denseRows, i, func(_ int, _ byte, peer uint32) {
		appendUniq(peer)
	})
	n := len(c.ring.ids)
	k := c.leafK()
	for s := 1; s <= k; s++ {
		appendUniq(uint32((int(i) + s) % n))
	}
	for s := 1; s <= k; s++ {
		appendUniq(uint32(((int(i)-s)%n + n) % n))
	}
	return out
}

// NextHopSecure routes one hop toward target over node i's secure
// table, following the same rule as RoutingState.NextHopSecure: leaf
// delivery when covered, else the jump-table slot, else any known peer
// making strict progress. The boolean is false when the route
// terminates at node i.
func (c *Compact) NextHopSecure(i uint32, target id.ID) (uint32, bool) {
	return c.nextHop(&c.secure, i, target)
}

// NextHopStandard routes one hop over node i's standard table.
func (c *Compact) NextHopStandard(i uint32, target id.ID) (uint32, bool) {
	return c.nextHop(&c.standard, i, target)
}

func (c *Compact) nextHop(t *compactTable, i uint32, target id.ID) (uint32, bool) {
	self := c.ring.ids[i]
	if target == self {
		return 0, false
	}
	if c.LeafCovers(i, target) {
		closest := c.LeafClosest(i, target)
		if closest == i {
			return 0, false
		}
		return closest, true
	}
	row := id.CommonPrefixLen(self, target)
	if peer, ok := t.slot(c.denseRows, i, row, target.Digit(row)); ok {
		return peer, true
	}
	// Rare case: the exact slot is empty. Any known peer strictly closer
	// to the target than we are keeps Pastry's progress guarantee —
	// table slots row-major, then leaves, as in the legacy fallback.
	best, found := i, false
	t.forEach(c.denseRows, i, func(_ int, _ byte, peer uint32) {
		if id.Closer(c.ring.ids[peer], c.ring.ids[best], target) {
			best, found = peer, true
		}
	})
	n := len(c.ring.ids)
	k := c.leafK()
	for s := 1; s <= k; s++ {
		for _, j := range [2]int{(int(i) + s) % n, ((int(i)-s)%n + n) % n} {
			if id.Closer(c.ring.ids[j], c.ring.ids[best], target) {
				best, found = uint32(j), true
			}
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// AppendRouteSecure traces the secure route from src toward target,
// appending positions to out (which may be reused scratch).
func (c *Compact) AppendRouteSecure(src uint32, target id.ID, maxHops int, out []uint32) ([]uint32, error) {
	if maxHops <= 0 {
		maxHops = 2 * id.Digits
	}
	route := append(out, src)
	at := src
	for hop := 0; hop < maxHops; hop++ {
		next, more := c.NextHopSecure(at, target)
		if !more {
			return route, nil
		}
		route = append(route, next)
		at = next
		if c.ring.ids[at] == target {
			return route, nil
		}
	}
	return nil, fmt.Errorf("overlay: compact route from %s to %s exceeded %d hops",
		c.ring.ids[src].Short(), target.Short(), maxHops)
}

// ApplyDeparture removes a member and patches every survivor's state to
// exactly what the per-node ApplyDeparture sequence produces: the one
// slot the departed could occupy (row = shared-prefix length, col = its
// next digit) is refilled — secure from the closest qualifying
// survivor, standard by a uniform draw. Survivors are visited in
// ascending ring order; rng draws happen only for nodes whose standard
// slot actually held the departed peer. Leaf state is derived, so it
// needs no repair.
//
// It appends to changed the post-departure positions of the survivors
// whose routing-peer sequence (what AppendRoutingPeers yields, as
// identifiers) is no longer what it was: those whose secure slot held
// the departed peer and the perSide ring neighbours on each side of the
// splice point, whose derived leaf sets lost it. Each position appears
// once. Everyone else keeps its sequence — standard-table refills are
// not routing peers, and a shifted ring index still names the same
// identifier — which is what lets a cache of per-node derived state
// (tomography trees) invalidate a few dozen entries per event, not all.
func (c *Compact) ApplyDeparture(peer id.ID, rng stats.Rand, changed []uint32) ([]uint32, error) {
	k, ok := c.IndexOf(peer)
	if !ok {
		return changed, fmt.Errorf("overlay: compact: departing %s is not a member", peer.Short())
	}
	if len(c.ring.ids) == 1 {
		return changed, fmt.Errorf("overlay: compact: departure would empty the ring")
	}
	c.ring.ids = append(c.ring.ids[:k], c.ring.ids[k+1:]...)
	c.ring.pairs = append(c.ring.pairs[:k], c.ring.pairs[k+1:]...)
	c.secure.removeNode(c.denseRows, k)
	c.standard.removeNode(c.denseRows, k)
	n := len(c.ring.ids)

	// Record who actually held the departed peer before remapping
	// erases the evidence; refills must not run for slots that were
	// already empty or held someone else. Bit 2 marks the survivors that
	// had it as a leaf: the ring closed over the gap between positions
	// k-1 and k, so those are the perSide positions on each side of it.
	flags := make([]uint8, n)
	for j := 0; j < n; j++ {
		if d := ringSteps(int(k), j, n); d < c.perSide || n-1-d < c.perSide {
			flags[j] |= 4
		}
		row := id.CommonPrefixLen(c.ring.ids[j], peer)
		if row >= id.Digits {
			continue
		}
		col := peer.Digit(row)
		if v, ok := c.secure.slot(c.denseRows, uint32(j), row, col); ok && v == k {
			flags[j] |= 1
		}
		if v, ok := c.standard.slot(c.denseRows, uint32(j), row, col); ok && v == k {
			flags[j] |= 2
		}
	}
	c.secure.remapRemoval(k)
	c.standard.remapRemoval(k)

	for j := 0; j < n; j++ {
		if flags[j]&(1|4) != 0 {
			changed = append(changed, uint32(j))
		}
		if flags[j]&(1|2) == 0 {
			continue
		}
		self := c.ring.ids[j]
		row := id.CommonPrefixLen(self, peer)
		col := peer.Digit(row)
		target := self.WithDigit(row, col)
		if flags[j]&1 != 0 {
			if cand, ok := c.ring.closestWithPrefixExclIdx(target, row+1, j); ok {
				c.secure.set(c.denseRows, uint32(j), row, col, uint32(cand))
			}
		}
		if flags[j]&2 != 0 {
			if cand, ok := c.ring.uniformWithPrefixExclIdx(target, row+1, j, rng); ok {
				c.standard.set(c.denseRows, uint32(j), row, col, uint32(cand))
			}
		}
	}
	return changed, nil
}

// ringSteps returns the number of clockwise steps from position a to
// position b on a ring of n positions.
func ringSteps(a, b, n int) int { return ((b-a)%n + n) % n }

// ApplyJoin admits a new member at its sorted position and patches
// every existing node: the secure table takes the newcomer when it is
// closer to the slot's target point than the incumbent, the standard
// table only for empty slots. The newcomer's own tables are then built
// from scratch with rng — the only draws the join consumes. Returns the
// newcomer's position.
//
// As ApplyDeparture does, it appends to changed the post-join positions
// of the existing members whose routing-peer sequence changed: those
// whose secure slot took the newcomer and the perSide ring neighbours
// on each side of it, whose derived leaf sets gained it. The newcomer
// itself had no sequence before and is not reported.
func (c *Compact) ApplyJoin(peer id.ID, rng stats.Rand, changed []uint32) (uint32, []uint32, error) {
	if _, dup := c.IndexOf(peer); dup {
		return 0, changed, fmt.Errorf("overlay: compact: %s is already a member", peer.Short())
	}
	k := uint32(c.ring.searchGE(peer))
	c.ring.ids = append(c.ring.ids, id.ID{})
	copy(c.ring.ids[k+1:], c.ring.ids[k:])
	c.ring.ids[k] = peer
	c.ring.pairs = append(c.ring.pairs, id.Pair{})
	copy(c.ring.pairs[k+1:], c.ring.pairs[k:])
	c.ring.pairs[k] = peer.Pair()
	c.secure.insertNode(c.denseRows, k)
	c.standard.insertNode(c.denseRows, k)
	c.secure.remapInsertion(k)
	c.standard.remapInsertion(k)

	n := len(c.ring.ids)
	for j := 0; j < n; j++ {
		if uint32(j) == k {
			continue
		}
		self := c.ring.ids[j]
		row := id.CommonPrefixLen(self, peer)
		col := peer.Digit(row)
		target := self.WithDigit(row, col)
		d := ringSteps(int(k), j, n)
		moved := d <= c.perSide || n-d <= c.perSide
		if cur, ok := c.secure.slot(c.denseRows, uint32(j), row, col); !ok || id.Closer(peer, c.ring.ids[cur], target) {
			c.secure.set(c.denseRows, uint32(j), row, col, k)
			moved = true
		}
		if _, ok := c.standard.slot(c.denseRows, uint32(j), row, col); !ok {
			c.standard.set(c.denseRows, uint32(j), row, col, k)
		}
		if moved {
			changed = append(changed, uint32(j))
		}
	}
	c.FillNode(k, rng)
	return k, changed, nil
}

// Footprint returns the overlay state's resident bytes: members (byte
// and word-pair forms), dense slabs, and sparse tails (entries plus
// slice headers). The per-node figure feeds the bytes_per_node scale
// gate.
func (c *Compact) Footprint() int64 {
	total := int64(len(c.ring.ids)) * id.Bytes
	total += int64(len(c.ring.pairs)) * 16
	for _, t := range []*compactTable{&c.secure, &c.standard} {
		total += int64(len(t.dense)) * 4
		total += int64(len(t.tail)) * 24 // slice headers
		for _, ts := range t.tail {
			total += int64(cap(ts)) * 8
		}
	}
	return total
}

func newCompactTable(n, denseRows int) compactTable {
	dense := make([]uint32, n*denseRows*id.Base)
	for i := range dense {
		dense[i] = NoIndex
	}
	return compactTable{dense: dense, tail: make([][]CompactSlot, n)}
}

func (t *compactTable) slot(dr int, i uint32, row int, col byte) (uint32, bool) {
	if row < dr {
		v := t.dense[(int(i)*dr+row)*id.Base+int(col)]
		return v, v != NoIndex
	}
	for _, s := range t.tail[i] {
		if int(s.Row) == row && s.Col == col {
			return s.Peer, true
		}
	}
	return 0, false
}

func (t *compactTable) set(dr int, i uint32, row int, col byte, peer uint32) {
	if row < dr {
		t.dense[(int(i)*dr+row)*id.Base+int(col)] = peer
		return
	}
	ts := t.tail[i]
	pos := len(ts)
	for p, s := range ts {
		if int(s.Row) == row && s.Col == col {
			ts[p].Peer = peer
			return
		}
		if int(s.Row) > row || (int(s.Row) == row && s.Col > col) {
			pos = p
			break
		}
	}
	ts = append(ts, CompactSlot{})
	copy(ts[pos+1:], ts[pos:])
	ts[pos] = CompactSlot{Row: uint8(row), Col: col, Peer: peer}
	t.tail[i] = ts
}

func (t *compactTable) occupancy(dr int, i uint32) int {
	n := 0
	base := int(i) * dr * id.Base
	for _, v := range t.dense[base : base+dr*id.Base] {
		if v != NoIndex {
			n++
		}
	}
	return n + len(t.tail[i])
}

// forEach visits node i's occupied slots in row-major order: the dense
// rows first, then the (sorted) sparse tail.
func (t *compactTable) forEach(dr int, i uint32, fn func(row int, col byte, peer uint32)) {
	base := int(i) * dr * id.Base
	for row := 0; row < dr; row++ {
		for col := 0; col < id.Base; col++ {
			if v := t.dense[base+row*id.Base+col]; v != NoIndex {
				fn(row, byte(col), v)
			}
		}
	}
	for _, s := range t.tail[i] {
		fn(int(s.Row), s.Col, s.Peer)
	}
}

func (t *compactTable) appendSlots(dr int, i uint32, out []CompactSlot) []CompactSlot {
	t.forEach(dr, i, func(row int, col byte, peer uint32) {
		out = append(out, CompactSlot{Row: uint8(row), Col: col, Peer: peer})
	})
	return out
}

// removeNode splices node k's storage out of the table.
func (t *compactTable) removeNode(dr int, k uint32) {
	stride := dr * id.Base
	copy(t.dense[int(k)*stride:], t.dense[(int(k)+1)*stride:])
	t.dense = t.dense[:len(t.dense)-stride]
	t.tail = append(t.tail[:k], t.tail[k+1:]...)
}

// remapRemoval shifts every stored index past the removed position down
// by one and empties slots that pointed at it.
func (t *compactTable) remapRemoval(k uint32) {
	for p, v := range t.dense {
		if v == k {
			t.dense[p] = NoIndex
			continue
		}
		t.dense[p] = v - atOrPast(v, k)
	}
	for i, ts := range t.tail {
		if len(ts) == 0 {
			continue
		}
		kept := ts[:0]
		for _, s := range ts {
			if s.Peer == k {
				continue
			}
			s.Peer -= atOrPast(s.Peer, k)
			kept = append(kept, s)
		}
		t.tail[i] = kept
	}
}

// atOrPast returns 1 when the stored index v is occupied (not NoIndex)
// and names position k or a later one, else 0 — as arithmetic, not as a
// branch: over a million slots whose occupants are spread evenly over
// the ring, "v ≥ k" is a coin flip the branch predictor loses half the
// time, and a remap is nothing but that test. Positions stay below 2³¹,
// so v-k wraps into the upper half exactly when v < k or v is NoIndex.
func atOrPast(v, k uint32) uint32 { return (v-k)>>31 ^ 1 }

// insertNode splices an empty storage block in at position k.
func (t *compactTable) insertNode(dr int, k uint32) {
	stride := dr * id.Base
	t.dense = append(t.dense, make([]uint32, stride)...)
	copy(t.dense[(int(k)+1)*stride:], t.dense[int(k)*stride:len(t.dense)-stride])
	blk := t.dense[int(k)*stride : (int(k)+1)*stride]
	for p := range blk {
		blk[p] = NoIndex
	}
	t.tail = append(t.tail, nil)
	copy(t.tail[k+1:], t.tail[k:])
	t.tail[k] = nil
}

// remapInsertion shifts every stored index at or past the inserted
// position up by one. Run after insertNode, before the newcomer's slots
// fill.
func (t *compactTable) remapInsertion(k uint32) {
	for p, v := range t.dense {
		t.dense[p] = v + atOrPast(v, k)
	}
	for _, ts := range t.tail {
		for p := range ts {
			ts[p].Peer += atOrPast(ts[p].Peer, k)
		}
	}
}

// LeafMeanSpacing returns the average inter-identifier gap across the
// arc node i's derived leaf set spans (owner included) — the compact
// counterpart of LeafSet.MeanSpacing, consumed by signed-snapshot
// publication. It reconstructs the legacy geometry exactly: the arc
// starts at the last entry of the legacy counterclockwise side view
// (the members sorted by counterclockwise spacing from the owner,
// truncated to perSide), and the mean gap is the arc length over the
// segment count. Cold path — snapshot signing dominates it — so the
// small sorts allocate freely.
func (c *Compact) LeafMeanSpacing(i uint32) (float64, error) {
	members := c.AppendLeafIndices(i, nil)
	if len(members) == 0 {
		return 0, fmt.Errorf("overlay: mean spacing of empty leaf set")
	}
	owner := c.ring.ids[i]
	byCCW := make([]id.ID, 0, len(members)+1)
	for _, j := range members {
		byCCW = append(byCCW, c.ring.ids[j])
	}
	sort.Slice(byCCW, func(a, b int) bool {
		return id.Spacing(byCCW[a], owner) < id.Spacing(byCCW[b], owner)
	})
	m := c.perSide
	if m > len(byCCW) {
		m = len(byCCW)
	}
	start := byCCW[m-1]
	all := append(byCCW, owner)
	sort.Slice(all, func(a, b int) bool {
		return id.Spacing(start, all[a]) < id.Spacing(start, all[b])
	})
	arc := id.Spacing(start, all[len(all)-1])
	segments := len(all) - 1
	if segments <= 0 || arc <= 0 {
		return 0, fmt.Errorf("overlay: leaf set spans no arc")
	}
	return arc / float64(segments), nil
}
