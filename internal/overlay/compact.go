package overlay

import (
	"fmt"
	"math/bits"
	"sort"

	"concilium/internal/id"
	"concilium/internal/stats"
)

// DefaultLeafSetPerSide is half the paper's 16-leaf set: 8 numerically
// closest peers on each side of the local identifier.
const DefaultLeafSetPerSide = 8

// Compact is the overlay: every node's routing state for one ring,
// stored flat and keyed by uint32 position in the sorted member slice
// instead of by identifier. The state follows §2's rules, which
// CheckInvariants states in full:
//
//   - Secure slot (r, c) of node i holds the member other than i closest
//     to the target point self.WithDigit(r, c) among those sharing r+1
//     digits with it, and is empty when there is none.
//   - Standard slot (r, c) holds some member with that prefix, drawn
//     uniformly from rng (a proxy for proximity choice), and is empty
//     exactly when the secure slot is.
//   - The leaf set holds the perSide nearest members on each side.
//
// The layout:
//
//   - Every member also has a slab: its index in build order, with
//     joiners appended. Slabs never change while a member lives, so
//     jump-table slots store slabs, not ring positions, and a churn
//     event touches only the slots that held the churned member. Compact
//     is the one owner of the ring↔slab mapping (Slab, Pos); its public
//     API speaks ring positions throughout.
//   - Leaf sets are not stored at all. The perSide closest peers of the
//     node at ring position i are positions i±1..i±perSide (wrapping),
//     so leaf queries are index arithmetic.
//   - Jump tables split at denseRows = ⌈log₁₆N⌉: rows shallower than
//     that are near-full and live in one flat uint32 array (NoIndex =
//     empty); deeper rows are almost always empty and live in tiny
//     per-node sorted tail slices. Rows are stored in ring order.
//
// A node costs ≈(denseRows·64 + tail)·2 + 40 bytes.
type Compact struct {
	ring Ring // shares the compact membership slice; mutated by churn
	// slabAt is the slab of the member at each ring position, spliced
	// with ring.ids and ring.pairs; posOf is each slab's ring position,
	// NoIndex once the member departs.
	slabAt    []uint32
	posOf     []uint32
	perSide   int
	denseRows int
	secure    compactTable
	standard  compactTable
}

// NoIndex marks an empty compact jump-table slot and a departed slab.
const NoIndex = ^uint32(0)

// CompactSlot is one occupied jump-table slot in index form; Peer is a
// ring position.
type CompactSlot struct {
	Row, Col uint8
	Peer     uint32
}

// compactTable is one table kind (secure or standard) for every node,
// rows in ring order: denseRows×Base uint32 slots per node in one flat
// array plus sparse row-major tails for the deep rows. Every slot holds
// its occupant's slab (a tail entry's Peer too), NoIndex when empty.
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

// NewCompact allocates empty compact state over the given members, in
// build order: members[p] owns slab p. Tables start empty; call FillNode
// per node (any order, including in parallel — node i writes only its
// own rows).
func NewCompact(members []id.ID, perSide int) (*Compact, error) {
	if perSide <= 0 {
		return nil, fmt.Errorf("overlay: compact perSide %d must be positive", perSide)
	}
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	n := ring.Size()
	slabAt, posOf := make([]uint32, n), make([]uint32, n)
	for p, x := range members {
		i, _ := ring.IndexOf(x)
		slabAt[i], posOf[p] = uint32(p), uint32(i)
	}
	dr := denseRowsFor(n)
	return &Compact{
		ring:      Ring{ids: ring.ids, pairs: ring.pairs},
		slabAt:    slabAt,
		posOf:     posOf,
		perSide:   perSide,
		denseRows: dr,
		secure:    newCompactTable(n, dr),
		standard:  newCompactTable(n, dr),
	}, nil
}

// Size returns the current member count.
func (c *Compact) Size() int { return len(c.ring.ids) }

// ID returns the identifier at ring position i.
func (c *Compact) ID(i uint32) id.ID { return c.ring.ids[i] }

// Slab returns the slab of the member at ring position i.
func (c *Compact) Slab(i uint32) uint32 { return c.slabAt[i] }

// Pos returns slab p's ring position, NoIndex once it has departed.
func (c *Compact) Pos(p uint32) uint32 { return c.posOf[p] }

// Slabs returns the number of slabs ever issued, departed ones included.
func (c *Compact) Slabs() int { return len(c.posOf) }

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
// one row at a time over nested arcs. Row r starts from the arc of
// members sharing i's first r digits (the whole ring at row 0) and cuts
// it into its Base digit sub-arcs. The sub-arc of each column other
// than i's own digit holds exactly the members qualifying for slot
// (r, col): the secure slot takes the one closest to the slot's target
// point, the standard slot one uniform rng draw over the sub-arc. Row
// r+1's arc is i's own sub-arc; once that holds i alone, every deeper
// sub-arc is empty and the fill stops. Draws happen only for occupied
// standard slots, row-major; the draw order is part of the output, and
// per-node substreams make the build reproducible. The fill allocates
// nothing beyond the sparse-tail entries it stores, and costs ≈10 µs
// per node at N=20k and ≈15 µs at N=100k (BenchmarkFillNode, 2-CPU
// x86-64).
func (c *Compact) FillNode(i uint32, rng stats.Rand) {
	self, sp := c.ring.ids[i], c.ring.pairs[i]
	lo, hi := 0, len(c.ring.pairs)
	var cut [id.Base + 1]int
	for row := 0; row < id.Digits; row++ {
		c.ring.splitArc(lo, hi, row, &cut)
		own := sp.Digit(row)
		for col := byte(0); col < id.Base; col++ {
			a, b := cut[col], cut[col+1]
			if col == own || a == b {
				continue
			}
			if cand, ok := c.ring.closestInArc(self.WithDigit(row, col), a, b, int(i)); ok {
				c.secure.set(c.denseRows, i, row, col, c.slabAt[cand])
			}
			if cand, ok := uniformInArc(a, b, int(i), rng); ok {
				c.standard.set(c.denseRows, i, row, col, c.slabAt[cand])
			}
		}
		lo, hi = cut[own], cut[own+1]
		if hi-lo == 1 {
			break
		}
	}
}

// SecureSlot returns the ring position of node i's secure slot (row,
// col) occupant.
func (c *Compact) SecureSlot(i uint32, row int, col byte) (uint32, bool) {
	return c.slotPos(&c.secure, i, row, col)
}

// StandardSlot returns the ring position of node i's standard slot
// (row, col) occupant.
func (c *Compact) StandardSlot(i uint32, row int, col byte) (uint32, bool) {
	return c.slotPos(&c.standard, i, row, col)
}

func (c *Compact) slotPos(t *compactTable, i uint32, row int, col byte) (uint32, bool) {
	if row < 0 || row >= id.Digits || col >= id.Base {
		return 0, false
	}
	p, ok := t.slot(c.denseRows, i, row, col)
	if !ok {
		return 0, false
	}
	return c.posOf[p], true
}

// SecureOccupancy returns node i's filled secure-slot count.
func (c *Compact) SecureOccupancy(i uint32) int {
	return c.secure.occupancy(c.denseRows, i)
}

// ValidateSecure checks every occupant of node i's secure table against
// its slot's prefix constraint: the occupant of slot (r, c) shares
// exactly r digits with i and has c as its digit r.
func (c *Compact) ValidateSecure(i uint32) error {
	return c.validateTable(&c.secure, "secure", i)
}

func (c *Compact) validateTable(t *compactTable, kind string, i uint32) error {
	owner := c.ring.ids[i]
	var err error
	t.forEach(c.denseRows, i, func(row int, col byte, slab uint32) {
		p := c.ring.ids[c.posOf[slab]]
		want := id.CommonPrefixLen(owner, p)
		if err == nil && (want >= id.Digits || want != row || p.Digit(want) != col) {
			err = fmt.Errorf("overlay: peer %s in %s slot (%d,%d) of %s violates its prefix constraint",
				p.Short(), kind, row, col, owner.Short())
		}
	})
	return err
}

// AppendSecureSlots appends node i's occupied secure slots to out in
// row-major order.
func (c *Compact) AppendSecureSlots(i uint32, out []CompactSlot) []CompactSlot {
	return c.appendSlots(&c.secure, i, out)
}

// AppendStandardSlots appends node i's occupied standard slots to out in
// row-major order.
func (c *Compact) AppendStandardSlots(i uint32, out []CompactSlot) []CompactSlot {
	return c.appendSlots(&c.standard, i, out)
}

func (c *Compact) appendSlots(t *compactTable, i uint32, out []CompactSlot) []CompactSlot {
	t.forEach(c.denseRows, i, func(row int, col byte, slab uint32) {
		out = append(out, CompactSlot{Row: uint8(row), Col: col, Peer: c.posOf[slab]})
	})
	return out
}

// AppendLeafIndices appends node i's leaf positions to out: the perSide
// clockwise neighbours by increasing distance, then the counterclockwise
// ones not already present (on a small ring one member can be both).
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
// set spans — the direct-delivery test of Pastry routing. When the two
// sides together hold every other member (2·perSide ≥ N−1) the leaf set
// is the whole ring and covers every target; the arc between the
// farthest leaves would otherwise leave out the gap next to i, or the
// one opposite it.
func (c *Compact) LeafCovers(i uint32, target id.ID) bool {
	n := len(c.ring.ids)
	k := c.leafK()
	if k <= 0 {
		return false
	}
	if 2*k >= n-1 {
		return true
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

// AppendRoutingPeers appends node i's routing peers to out: the peers it
// probes and whose IP paths its tomography tree covers (§3.2). The order
// is secure-table occupants row-major, then leaves as AppendLeafIndices
// lists them, first-seen deduplicated.
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
	c.secure.forEach(c.denseRows, i, func(_ int, _ byte, slab uint32) {
		appendUniq(c.posOf[slab])
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
// table, by Pastry's rule: leaf delivery when covered, else the
// jump-table slot, else any known peer making strict progress. The
// boolean is false when the route terminates at node i. Every route
// runs over the secure tables, which Concilium's fault attribution
// needs (§2); no route reads the standard table.
func (c *Compact) NextHopSecure(i uint32, target id.ID) (uint32, bool) {
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
	if slab, ok := c.secure.slot(c.denseRows, i, row, target.Digit(row)); ok {
		return c.posOf[slab], true
	}
	// Rare case: the exact slot is empty. Any known peer strictly closer
	// to the target than we are keeps Pastry's progress guarantee —
	// table slots row-major, then leaves, first strict improvement wins.
	best, found := i, false
	c.secure.forEach(c.denseRows, i, func(_ int, _ byte, slab uint32) {
		if peer := c.posOf[slab]; id.Closer(c.ring.ids[peer], c.ring.ids[best], target) {
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

// ApplyDeparture removes a member and patches every survivor's state
// back to the rules: the one slot per table the departed could occupy
// (row = shared-prefix length, col = its next digit) is emptied if it
// held the departed, then refilled — secure from the closest qualifying
// survivor, standard by a uniform draw. Survivors are visited in
// ascending ring order; rng draws happen only for nodes whose standard
// slot actually held the departed peer. Slots store slabs, so no other
// slot changes. Leaf state is derived, so it needs no repair.
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
	gone := c.slabAt[k]
	c.ring.ids = append(c.ring.ids[:k], c.ring.ids[k+1:]...)
	c.ring.pairs = append(c.ring.pairs[:k], c.ring.pairs[k+1:]...)
	c.slabAt = append(c.slabAt[:k], c.slabAt[k+1:]...)
	c.posOf[gone] = NoIndex
	c.renumberFrom(k)
	c.secure.removeNode(c.denseRows, k)
	c.standard.removeNode(c.denseRows, k)

	// The ring closed over the gap between positions k-1 and k, so the
	// survivors that had the departed as a leaf are the perSide positions
	// on each side of it.
	n := len(c.ring.ids)
	for j := 0; j < n; j++ {
		d := ringSteps(int(k), j, n)
		moved := d < c.perSide || n-1-d < c.perSide
		self := c.ring.ids[j]
		row := id.CommonPrefixLen(self, peer)
		col := peer.Digit(row)
		if c.secure.clear(c.denseRows, uint32(j), row, col, gone) {
			moved = true
			if cand, ok := c.ring.closestWithPrefixExcl(self.WithDigit(row, col), row+1, j); ok {
				c.secure.set(c.denseRows, uint32(j), row, col, c.slabAt[cand])
			}
		}
		if c.standard.clear(c.denseRows, uint32(j), row, col, gone) {
			if cand, ok := c.ring.uniformWithPrefixExcl(self.WithDigit(row, col), row+1, j, rng); ok {
				c.standard.set(c.denseRows, uint32(j), row, col, c.slabAt[cand])
			}
		}
		if moved {
			changed = append(changed, uint32(j))
		}
	}
	return changed, nil
}

// renumberFrom records the ring positions of the members at position k
// and past, after a splice shifted them.
func (c *Compact) renumberFrom(k uint32) {
	for i := int(k); i < len(c.slabAt); i++ {
		c.posOf[c.slabAt[i]] = uint32(i)
	}
}

// ringSteps returns the number of clockwise steps from position a to
// position b on a ring of n positions.
func ringSteps(a, b, n int) int { return ((b-a)%n + n) % n }

// ApplyJoin admits a new member at its sorted position, under the next
// unissued slab, and patches every existing node: the secure table takes
// the newcomer when it is closer to the slot's target point than the
// incumbent, the standard table only for empty slots. The newcomer's own
// tables are then built from scratch with rng — the only draws the join
// consumes. Returns the newcomer's position.
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
	slab := uint32(len(c.posOf))
	c.slabAt = append(c.slabAt, 0)
	copy(c.slabAt[k+1:], c.slabAt[k:])
	c.slabAt[k] = slab
	c.posOf = append(c.posOf, k)
	c.renumberFrom(k + 1)
	c.secure.insertNode(c.denseRows, k)
	c.standard.insertNode(c.denseRows, k)

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
		if cur, ok := c.secure.slot(c.denseRows, uint32(j), row, col); !ok || id.Closer(peer, c.ring.ids[c.posOf[cur]], target) {
			c.secure.set(c.denseRows, uint32(j), row, col, slab)
			moved = true
		}
		if _, ok := c.standard.slot(c.denseRows, uint32(j), row, col); !ok {
			c.standard.set(c.denseRows, uint32(j), row, col, slab)
		}
		if moved {
			changed = append(changed, uint32(j))
		}
	}
	c.FillNode(k, rng)
	return k, changed, nil
}

// Footprint returns the overlay state's resident bytes: members (byte
// and word-pair forms), the ring↔slab mapping, dense rows, and sparse
// tails (entries plus slice headers). The per-node figure feeds the
// bytes_per_node scale gate.
func (c *Compact) Footprint() int64 {
	total := int64(len(c.ring.ids)) * id.Bytes
	total += int64(len(c.ring.pairs)) * 16
	total += int64(len(c.slabAt)+len(c.posOf)) * 4
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

// slot returns the slab in node i's slot (row, col).
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

func (t *compactTable) set(dr int, i uint32, row int, col byte, slab uint32) {
	if row < dr {
		t.dense[(int(i)*dr+row)*id.Base+int(col)] = slab
		return
	}
	ts := t.tail[i]
	pos := len(ts)
	for p, s := range ts {
		if int(s.Row) == row && s.Col == col {
			ts[p].Peer = slab
			return
		}
		if int(s.Row) > row || (int(s.Row) == row && s.Col > col) {
			pos = p
			break
		}
	}
	ts = append(ts, CompactSlot{})
	copy(ts[pos+1:], ts[pos:])
	ts[pos] = CompactSlot{Row: uint8(row), Col: col, Peer: slab}
	t.tail[i] = ts
}

// clear empties node i's slot (row, col) if it holds slab, and reports
// whether it did. A cleared tail entry is spliced out, keeping the tail
// sorted.
func (t *compactTable) clear(dr int, i uint32, row int, col byte, slab uint32) bool {
	if row < dr {
		at := (int(i)*dr+row)*id.Base + int(col)
		if t.dense[at] != slab {
			return false
		}
		t.dense[at] = NoIndex
		return true
	}
	ts := t.tail[i]
	for p, s := range ts {
		if int(s.Row) == row && s.Col == col {
			if s.Peer != slab {
				return false
			}
			t.tail[i] = append(ts[:p], ts[p+1:]...)
			return true
		}
	}
	return false
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

// forEach visits node i's occupied slots, as slabs, in row-major order:
// the dense rows first, then the (sorted) sparse tail.
func (t *compactTable) forEach(dr int, i uint32, fn func(row int, col byte, slab uint32)) {
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

// removeNode splices node k's storage out of the table.
func (t *compactTable) removeNode(dr int, k uint32) {
	stride := dr * id.Base
	copy(t.dense[int(k)*stride:], t.dense[(int(k)+1)*stride:])
	t.dense = t.dense[:len(t.dense)-stride]
	t.tail = append(t.tail[:k], t.tail[k+1:]...)
}

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

// LeafMeanSpacing returns the average inter-identifier gap across the
// arc node i's derived leaf set spans (owner included), consumed by the
// eclipse campaign's spacing detector; RingSize over it estimates N
// (Mahajan et al.). The arc starts at the farthest of the perSide
// counterclockwise leaves (the leaves sorted by counterclockwise
// spacing from the owner, truncated to perSide), and the mean gap is the
// arc length over the segment count. Cold path, so the small sorts
// allocate freely.
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
