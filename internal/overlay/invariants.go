package overlay

import (
	"fmt"
	"slices"

	"concilium/internal/id"
)

// CheckInvariants checks the overlay against the rules it maintains
// (§2), over every node:
//
//   - the ring is strictly ascending, and pairs shadow the identifiers;
//   - Slab and Pos are inverse over the live slabs, and a departed slab
//     has Pos NoIndex;
//   - no slot names a departed slab, and each sparse tail is sorted and
//     holds deep rows only;
//   - secure slot (r, c) of node i holds exactly the member other than i
//     closest (by id.Closer) to i's target point WithDigit(r, c) among
//     the members sharing r+1 digits with it, and is empty iff there is
//     no such member;
//   - standard slot (r, c) is occupied iff such a member exists, and its
//     occupant has the slot's prefix;
//   - the derived leaf sets are symmetric.
//
// The expected slot contents come from linear scans of the shared-prefix
// arc around each node, not from the binary searches the fills use, so
// the check costs O(N²). It is meant for tests and soaks.
func (c *Compact) CheckInvariants() error {
	n := len(c.ring.ids)
	if n == 0 {
		return fmt.Errorf("overlay: empty ring")
	}
	if len(c.ring.pairs) != n || len(c.slabAt) != n {
		return fmt.Errorf("overlay: %d members, %d pairs, %d slab entries", n, len(c.ring.pairs), len(c.slabAt))
	}
	for i, x := range c.ring.ids {
		if c.ring.pairs[i] != x.Pair() {
			return fmt.Errorf("overlay: pair %d does not shadow %s", i, x.Short())
		}
		if i > 0 && !id.Less(c.ring.ids[i-1], x) {
			return fmt.Errorf("overlay: ring not strictly ascending at position %d", i)
		}
	}
	// Every live slab names a distinct position holding it back; with n
	// of them, Slab and Pos are a bijection.
	live := 0
	for p, i := range c.posOf {
		if i == NoIndex {
			continue
		}
		live++
		if int(i) >= n || c.slabAt[i] != uint32(p) {
			return fmt.Errorf("overlay: slab %d has Pos %d, whose Slab is not %d", p, i, p)
		}
	}
	if live != n {
		return fmt.Errorf("overlay: %d live slabs for %d members", live, n)
	}
	for _, t := range []*compactTable{&c.secure, &c.standard} {
		if len(t.dense) != n*c.denseRows*id.Base || len(t.tail) != n {
			return fmt.Errorf("overlay: table sized %d dense slots and %d tails for %d members", len(t.dense), len(t.tail), n)
		}
	}
	var best [id.Base]int
	leaves := make([][]uint32, n)
	for i := uint32(0); i < uint32(n); i++ {
		if err := c.checkSlabs(i); err != nil {
			return err
		}
		if err := c.checkSlots(i, &best); err != nil {
			return err
		}
		leaves[i] = c.AppendLeafIndices(i, nil)
	}
	for i, ls := range leaves {
		for _, j := range ls {
			if !slices.Contains(leaves[j], uint32(i)) {
				return fmt.Errorf("overlay: %s is a leaf of %s but not the reverse",
					c.ring.ids[j].Short(), c.ring.ids[i].Short())
			}
		}
	}
	return nil
}

// checkSlabs checks that node i's slots name live slabs and that its
// sparse tails are sorted and hold only rows past the dense split.
func (c *Compact) checkSlabs(i uint32) error {
	for _, t := range []*compactTable{&c.secure, &c.standard} {
		var err error
		t.forEach(c.denseRows, i, func(row int, col byte, slab uint32) {
			if err == nil && (int(slab) >= len(c.posOf) || c.posOf[slab] == NoIndex) {
				err = fmt.Errorf("overlay: node %s slot (%d,%d) names departed slab %d",
					c.ring.ids[i].Short(), row, col, slab)
			}
		})
		if err != nil {
			return err
		}
		for k, s := range t.tail[i] {
			if int(s.Row) < c.denseRows || (k > 0 && !tailBefore(t.tail[i][k-1], s)) {
				return fmt.Errorf("overlay: node %s tail entry (%d,%d) out of order", c.ring.ids[i].Short(), s.Row, s.Col)
			}
		}
	}
	if err := c.ValidateSecure(i); err != nil {
		return err
	}
	return c.validateTable(&c.standard, "standard", i)
}

func tailBefore(a, b CompactSlot) bool {
	return a.Row < b.Row || (a.Row == b.Row && a.Col < b.Col)
}

// checkSlots compares node i's slots with the brute-force rule, row by
// row. The members sharing r digits with i are the contiguous arc around
// i that a walk outward in both directions visits (for r = 0, the whole
// ring); among them, those whose digit r is c qualify for slot (r, c).
// Once no other member shares r digits, every slot from row r on must
// be empty.
func (c *Compact) checkSlots(i uint32, best *[id.Base]int) error {
	ids := c.ring.ids
	self := ids[i]
	var targets [id.Base]id.ID
	for row := 0; row < id.Digits; row++ {
		own := self.Digit(row)
		for col := range best {
			best[col] = -1
			targets[col] = self.WithDigit(row, byte(col))
		}
		sharing := 0
		visit := func(j int) bool {
			x := ids[j]
			if row > 0 && id.CommonPrefixLen(x, self) < row {
				return false
			}
			sharing++
			if col := x.Digit(row); col != own {
				if b := best[col]; b < 0 || id.Closer(x, ids[b], targets[col]) {
					best[col] = j
				}
			}
			return true
		}
		for j := int(i) - 1; j >= 0 && visit(j); j-- {
		}
		for j := int(i) + 1; j < len(ids) && visit(j); j++ {
		}
		if sharing == 0 {
			return c.checkEmptyFrom(i, row)
		}
		for col := byte(0); col < id.Base; col++ {
			if col == own {
				continue
			}
			want := best[col]
			got, ok := c.SecureSlot(i, row, col)
			if ok != (want >= 0) || (ok && int(got) != want) {
				return fmt.Errorf("overlay: node %s secure slot (%d,%d) holds %s, want %s",
					self.Short(), row, col, c.describe(got, ok), c.describe(uint32(want), want >= 0))
			}
			if _, ok := c.StandardSlot(i, row, col); ok != (want >= 0) {
				return fmt.Errorf("overlay: node %s standard slot (%d,%d) occupied=%v, qualifying member exists=%v",
					self.Short(), row, col, ok, want >= 0)
			}
		}
	}
	return nil
}

// checkEmptyFrom checks that node i holds no slot in row first or
// deeper, in either table.
func (c *Compact) checkEmptyFrom(i uint32, first int) error {
	for _, t := range []*compactTable{&c.secure, &c.standard} {
		var err error
		t.forEach(c.denseRows, i, func(row int, col byte, _ uint32) {
			if err == nil && row >= first {
				err = fmt.Errorf("overlay: node %s slot (%d,%d) is occupied, but no other member shares %d digits with it",
					c.ring.ids[i].Short(), row, col, first)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *Compact) describe(pos uint32, ok bool) string {
	if !ok {
		return "nothing"
	}
	return c.ring.ids[pos].Short()
}
